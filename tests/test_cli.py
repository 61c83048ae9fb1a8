import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import lpreset
from lpreset import (
    MODE_FULL,
    MODE_STRICT,
    LpresetError,
    NextPriceDistribution,
    UtilityParams,
    expected_utility,
    optimal_strategy,
    proportional_strategy,
    run_strategy,
    sample_path,
    uniform_strategy,
)
from lpreset.cli import main
from lpreset.strategies import load_strategy, resolve_strategy

from conftest import dists, write_dist, write_price_csv


@pytest.fixture
def dist_file(tmp_path, toy_dist):
    return write_dist(toy_dist, tmp_path / "dist.json")


@pytest.fixture
def strategy_file(tmp_path):
    path = tmp_path / "strategy.json"
    doc = {
        "kind": "uniform",
        "n_tau": 1,
        "n_alpha": 1,
        "params": {"a": 0.0, "kappa": 1.0, "ell": 1.0},
    }
    path.write_text(json.dumps(doc))
    return str(path)


class TestFit:
    def test_writes_distribution_json(self, tmp_path):
        prices = [100.0 * 1.0005**i for i in range(40)]
        csv_path = write_price_csv(tmp_path / "px.csv", prices)
        out = tmp_path / "dist.json"
        code = main(["fit", csv_path, "--k-max", "8", "--out", str(out)])
        assert code == 0
        dist = NextPriceDistribution.load(str(out))
        assert dist.k_max == 8
        assert dist.probs.sum() == pytest.approx(1.0)

    def test_rerun_is_byte_identical(self, tmp_path):
        prices = [100.0, 100.3, 100.1, 100.6, 100.2, 100.9]
        csv_path = write_price_csv(tmp_path / "px.csv", prices)
        out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
        main(["fit", csv_path, "--k-max", "4", "--out", str(out1)])
        main(["fit", csv_path, "--k-max", "4", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestEval:
    def test_matches_library(self, dist_file, strategy_file, capsys, toy_dist):
        code = main(["eval", dist_file, strategy_file])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        want = expected_utility(toy_dist, 1, spec.allocation, params, MODE_STRICT)
        assert doc["expected_utility"] == pytest.approx(want, abs=1e-15)
        assert doc["expected_utility"] == pytest.approx(5 / 18, abs=1e-12)
        assert doc["mode"] == MODE_STRICT

    def test_explicit_weights_document(self, dist_file, tmp_path, capsys):
        doc = {
            "n_tau": 1,
            "n_alpha": 1,
            "weights": [0.0, 1.0, 0.0],
            "params": {"a": 0.0, "kappa": 1.0, "ell": 1.0},
        }
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", dist_file, str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["expected_utility"] == pytest.approx(1 / 3, abs=1e-12)

    # a count, a mass (h puts 1/3 on the centre, so 0.5 needs n_alpha 1), a window
    # past the reach and none, which is the reach n_tau + k_max = 2
    @pytest.mark.parametrize("window, n_alpha",
                             [({"n_alpha": 0}, 0), ({"alpha_mass": 0.5}, 1),
                              ({"n_alpha": 3}, 3), ({}, 2)],
                             ids=["count", "mass", "past_the_reach", "reach"])
    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_FULL])
    def test_optimal_document_is_solved_over_its_window(
        self, window, n_alpha, mode, dist_file, tmp_path, capsys, toy_dist
    ):
        params = UtilityParams(a=0.5, kappa=1.0, ell=3.0)
        path = tmp_path / "optimal.json"
        path.write_text(json.dumps({"kind": "optimal", "n_tau": 1, **window,
                                    "params": params.to_json_dict()}))
        assert main(["eval", dist_file, str(path), "--mode", mode]) == 0
        out = json.loads(capsys.readouterr().out)
        spec = optimal_strategy(toy_dist, 1, params, n_alpha)[0]
        assert (out["n_alpha"], spec.n_alpha) == (n_alpha, n_alpha)
        assert out["expected_utility"] == expected_utility(
            toy_dist, 1, spec.allocation, params, mode)

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_optimal_window_without_landing_mass_is_one_error_line(
        self, command, tmp_path, capsys
    ):
        # every move leaves B_tau = {0}, so the price never lands on the centre
        dist = NextPriceDistribution(k_max=1, probs=np.array([0.5, 0.0, 0.5]),
                                     bin_width_pct=1.0)
        path = write_dist(dist, tmp_path / "dist.json")
        doc = tmp_path / "optimal.json"
        doc.write_text(json.dumps({"kind": "optimal", "n_tau": 0, "n_alpha": 0}))
        argv = {"eval": ["eval", path, str(doc)],
                "sweep": ["sweep", path, "--strategy", "optimal", "--n-tau-grid", "0",
                          "--n-alpha-grid", "1,0"]}[command]
        assert main(argv) == 1
        assert_one_error_line(capsys, "zero mass over B_alpha")


class TestOptimize:
    def test_reports_certificate(self, dist_file, capsys):
        code = main(["optimize", dist_file, "--n-tau", "1", "--a", "1.0"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kkt_residual"] < 1e-10
        assert doc["converged"] is True
        assert doc["n_tau"] == 1
        assert abs(sum(doc["weights"]) - 1.0) < 1e-12

    def test_tau_mass_form(self, dist_file, capsys):
        code = main(["optimize", dist_file, "--tau-mass", "0.5", "--a", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_tau"] == 1

    @pytest.mark.parametrize("a", ["-1", "0", "0.5"])
    def test_output_reads_back_as_the_optimal_spec(self, dist_file, tmp_path, toy_dist, a):
        out = tmp_path / "optimal.json"
        argv = ["optimize", dist_file, "--n-tau", "1", "--a", a, "--kappa", "2", "--ell", "3"]
        assert main([*argv, "--out", str(out)]) == 0
        want = optimal_strategy(toy_dist, 1, UtilityParams(a=float(a), kappa=2.0, ell=3.0))[0]
        got = load_strategy(str(out), toy_dist)
        assert (got.kind, got.n_tau, got.n_alpha, got.params) == (
            "optimal", 1, want.n_alpha, want.params
        )
        assert got.allocation.weights.tolist() == want.allocation.weights.tolist()

    def test_negative_float_in_exponent_form_after_an_equals_sign(self, dist_file, capsys):
        # after a space argparse takes -1e-3 for an option, so --name=value passes it
        assert main(["optimize", dist_file, "--n-tau", "1", "--a=-1e-3", "--kappa=-1e-3"]) == 1
        assert_one_error_line(capsys, "kappa must be > 0, got -0.001")
        assert main(["optimize", dist_file, "--tau-mass=-1e-3"]) == 1
        assert_one_error_line(capsys, "mass must be in (0, 1], got -0.001")
        assert main(["optimize", dist_file, "--tau-mass=5e-1", "--a=-1e-3", "--kappa=2e0"]) == 0
        spelled = capsys.readouterr().out
        assert main(["optimize", dist_file, "--tau-mass", "0.5", "--a", "-0.001",
                     "--kappa", "2"]) == 0
        assert capsys.readouterr().out == spelled
        assert json.loads(spelled)["params"]["a"] == -0.001

    @pytest.mark.parametrize("a", ["1e-30", "1e-20", "1e-16", "1e-300"])
    def test_tiny_risk_aversion_is_certified(self, dist_file, capsys, a):
        # a*kappa*ell below about 1e-15 puts the water-filling inputs past 2**53
        code = main(["optimize", dist_file, "--n-tau", "2", "--a", a])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["method"] == "water-filling"
        assert doc["kkt_residual"] <= 1e-10
        assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", ["5e-324", "1e-320"])
    def test_risk_aversion_that_overflows_is_one_error_line(self, dist_file, capsys, a):
        assert main(["optimize", dist_file, "--n-tau", "2", "--a", a]) == 1
        assert_one_error_line(capsys, "risk aversion", "too small")

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_risk_seeking_that_overflows_is_one_error_line(self, tmp_path, eth_dist, capsys):
        # |a| * kappa * ell = 1,500 overflows exp: the objective raises before
        # the gradient's exp in the KKT residual can warn
        path = write_dist(eth_dist, tmp_path / "dist.json")
        assert main(["optimize", path, "--n-tau", "3", "--a", "-15"]) == 1
        assert_one_error_line(capsys, "overflow")


class TestSweep:
    def test_grid_csv(self, dist_file, capsys, toy_dist):
        code = main(
            [
                "sweep",
                dist_file,
                "--strategy",
                "uniform",
                "--n-tau-grid",
                "1,2",
                "--n-alpha-grid",
                "1",
                "--ell",
                "1.0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_tau,n_alpha,expected_utility"
        assert len(lines) == 3
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        want = expected_utility(toy_dist, 1, spec.allocation, params, MODE_STRICT)
        got = float(lines[1].split(",")[2])
        assert got == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("strategy", ["proportional", "uniform", "optimal"])
    def test_every_cell_equals_the_library(self, strategy, dist_file, capsys, toy_dist):
        argv = ["sweep", dist_file, "--strategy", strategy, "--n-tau-grid", "0,1,3",
                "--n-alpha-grid", "0,2", "--a", "0.5", "--ell", "3", "--mode", MODE_FULL]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        params = UtilityParams(a=0.5, kappa=1.0, ell=3.0)
        want = []
        for n_tau in (0, 1, 3):
            for n_alpha in (0, 2):
                if strategy == "proportional":
                    spec = proportional_strategy(toy_dist, params, n_tau=n_tau, n_alpha=n_alpha)
                elif strategy == "uniform":
                    spec = uniform_strategy(toy_dist, n_tau, n_alpha, params)
                else:
                    spec = optimal_strategy(toy_dist, n_tau, params, n_alpha)[0]
                value = expected_utility(toy_dist, n_tau, spec.allocation, params, MODE_FULL)
                want.append([str(n_tau), str(n_alpha), repr(value)])
        assert rows == want

    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_FULL])
    def test_optimal_row_is_eval_of_its_document(self, mode, dist_file, tmp_path, capsys):
        flags = ["--a", "0.5", "--ell", "3", "--mode", mode]
        assert main(["sweep", dist_file, "--strategy", "optimal", "--n-tau-grid", "0,2",
                     "--n-alpha-grid", "0,1,5", *flags]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 6
        doc = tmp_path / "optimal.json"
        for n_tau, n_alpha, value in rows:
            doc.write_text(json.dumps({"kind": "optimal", "n_tau": int(n_tau),
                                       "n_alpha": int(n_alpha), "params": {"a": 0.5, "ell": 3}}))
            assert main(["eval", dist_file, str(doc), "--mode", mode]) == 0
            out = json.loads(capsys.readouterr().out)
            assert (out["n_alpha"], repr(out["expected_utility"])) == (int(n_alpha), value)

    def test_tau_mass_grid_rows_carry_the_optimal_window(self, dist_file, capsys, toy_dist):
        assert main(["sweep", dist_file, "--tau-mass-grid", "0.3,1.0", "--a", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        params = UtilityParams(a=1.0)
        want = []
        for n_tau in (0, 1):
            spec = optimal_strategy(toy_dist, n_tau, params)[0]
            value = expected_utility(toy_dist, n_tau, spec.allocation, params)
            want.append([str(n_tau), str(n_tau + toy_dist.k_max), repr(value)])
        assert rows == want

    def test_missing_grid_is_an_error(self, dist_file, capsys):
        code = main(["sweep", dist_file, "--strategy", "uniform"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "grids",
        [
            ["--strategy", "uniform", "--n-tau-grid", ",", "--n-alpha-grid", "1"],
            ["--strategy", "uniform", "--n-tau-grid", "1", "--n-alpha-grid", " , "],
            ["--tau-mass-grid", ","],
        ],
    )
    def test_grid_without_values_is_an_error(self, grids, dist_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", dist_file, *grids, "--out", str(out)]) == 1
        assert_one_error_line(capsys, "has no values")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-tau-grid", "--n-alpha-grid"])
    def test_tau_mass_grid_excludes_the_window_grids(self, flag, dist_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", dist_file, "--tau-mass-grid", "0.5", flag, "1"])
        assert exc.value.code == 2
        assert f"argument {flag}: not allowed with argument --tau-mass-grid" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("strategy", ["proportional", "uniform", "optimal"])
    def test_tau_mass_grid_excludes_the_strategy(self, strategy, dist_file, capsys):
        # the mass grid always sweeps the optimal strategy, so a --strategy
        # given with it would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["sweep", dist_file, "--strategy", strategy, "--tau-mass-grid", "0.5"])
        assert exc.value.code == 2
        assert "argument --tau-mass-grid: not allowed with argument --strategy" in (
            capsys.readouterr().err
        )

    def test_window_grids_default_to_the_proportional_strategy(self, dist_file, capsys):
        grids = ["--n-tau-grid", "0,2", "--n-alpha-grid", "1,3", "--a", "0.1"]
        assert main(["sweep", dist_file, *grids]) == 0
        implicit = capsys.readouterr().out
        assert main(["sweep", dist_file, "--strategy", "proportional", *grids]) == 0
        assert capsys.readouterr().out == implicit

    def test_window_grids_go_together(self, dist_file, capsys):
        argv = ["sweep", dist_file, "--n-tau-grid", "0,1", "--n-alpha-grid", "4,8",
                "--a", "0.1", "--mode", MODE_FULL]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    @pytest.mark.parametrize("strategy", ["proportional", "uniform", "optimal"])
    @pytest.mark.parametrize("n_taus", ["-1", "2,-1", "1,2,-3"])
    def test_bad_n_tau_is_reported_before_bad_n_alpha(self, strategy, n_taus, dist_file, capsys):
        argv = ["sweep", dist_file, "--strategy", strategy, "--n-tau-grid", n_taus,
                "--n-alpha-grid", "-1"]
        assert main(argv) == 1
        assert_one_error_line(capsys, "n_tau must be >= 0")

    @pytest.mark.parametrize("strategy", ["proportional", "uniform", "optimal"])
    def test_bad_n_alpha_is_an_error(self, strategy, dist_file, capsys):
        argv = ["sweep", dist_file, "--strategy", strategy, "--n-tau-grid", "0,1",
                "--n-alpha-grid", "1,-1"]
        assert main(argv) == 1
        assert_one_error_line(capsys, "n_alpha must be >= 0, got -1")

    def test_n_tau_too_large_for_memory_is_one_error_line(self, dist_file, monkeypatch, capsys):
        eye = np.eye

        def small_eye(n, *args, **kwargs):  # never allocates the (2 n_tau + 1)^2 block
            if n > 10_001:
                raise MemoryError(f"Unable to allocate an array of shape ({n}, {n})")
            return eye(n, *args, **kwargs)

        monkeypatch.setattr(np, "eye", small_eye)
        argv = ["sweep", dist_file, "--strategy", "uniform", "--n-tau-grid", "1,100000",
                "--n-alpha-grid", "3"]
        assert main(argv) == 1
        assert_one_error_line(capsys, "n_tau 100000", "memory")


class TestSweepCells:
    """Each sweep cell is ``repr`` of the library E_u of that cell's own strategy."""

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        dist=dists(),
        strategy=st.sampled_from(["proportional", "uniform", "optimal"]),
        n_taus=st.lists(st.integers(0, 10), min_size=1, max_size=3).map(
            lambda taus: [*taus, taus[0]]  # a repeated n_tau
        ),
        # 0, past k_max (at most 8) and past the reach (at most 18)
        n_alphas=st.lists(st.integers(0, 30), min_size=1, max_size=4),
        mode=st.sampled_from([MODE_STRICT, MODE_FULL]),
        a=st.sampled_from([0.0, 0.1, 15.0, -0.05]),
    )
    @example(
        dist=NextPriceDistribution(k_max=2, probs=np.array([0.0, 0.5, 0.0, 0.5, 0.0]),
                                   bin_width_pct=1.0),
        strategy="proportional", n_taus=[1, 3, 1], n_alphas=[0, 2, 9, 30],
        mode=MODE_FULL, a=15.0,
    )
    def test_every_cell_is_its_own_expected_utility(
        self, dist, strategy, n_taus, n_alphas, mode, a, tmp_path_factory, capsys
    ):
        path = write_dist(dist, tmp_path_factory.mktemp("sweep") / "dist.json")
        params = UtilityParams(a=a)
        try:
            want = []
            for n_tau in n_taus:
                for n_alpha in n_alphas:
                    if strategy == "proportional":
                        spec = proportional_strategy(dist, params, n_tau, n_alpha)
                    elif strategy == "uniform":
                        spec = uniform_strategy(dist, n_tau, n_alpha, params)
                    else:
                        spec = optimal_strategy(dist, n_tau, params, n_alpha)[0]
                    value = expected_utility(dist, n_tau, spec.allocation, params, mode)
                    want.append([str(n_tau), str(n_alpha), repr(value)])
        except LpresetError:
            want = None
        capsys.readouterr()
        argv = ["sweep", str(path), "--strategy", strategy,
                "--n-tau-grid", ",".join(map(str, n_taus)),
                "--n-alpha-grid", ",".join(map(str, n_alphas)), "--a", repr(a), "--mode", mode]
        code = main(argv)
        if want is None:
            assert code == 1
            assert_one_error_line(capsys)
        else:
            assert code == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
            assert rows == [["n_tau", "n_alpha", "expected_utility"], *want]


class TestSimulate:
    def test_matches_library_run(self, dist_file, strategy_file, capsys, toy_dist):
        code = main(
            ["simulate", dist_file, strategy_file, "--steps", "2000", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        want = run_strategy(sample_path(toy_dist, 2000, seed=3), spec, seed=3)
        assert doc["mean_utility_per_step"] == want.mean_utility_per_step
        assert doc["resets"] == want.resets
        assert doc["rng"] == "pcg64"

    def test_deterministic_output_files(self, dist_file, strategy_file, tmp_path):
        out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
        args = ["simulate", dist_file, strategy_file, "--steps", "500", "--seed", "9"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_file(self, dist_file, strategy_file, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                dist_file,
                strategy_file,
                "--steps",
                "25",
                "--trace-out",
                str(trace),
                "--quiet",
            ]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "step,offset,reward,reset_flag"
        assert len(lines) == 26

    def test_negative_seed_is_one_error_line(self, dist_file, strategy_file, tmp_path, capsys):
        out = tmp_path / "s.json"
        argv = ["simulate", dist_file, strategy_file, "--seed", "-1", "--out", str(out)]
        assert main(argv) == 1
        assert_one_error_line(capsys, "seed must be >= 0, got -1")
        assert not out.exists()


class TestBacktest:
    def make_inputs(self, tmp_path, strategy_file):
        rng = np.random.default_rng(4)
        moves = rng.choice([-1, 0, 1], size=400)
        levels = np.concatenate([[0], np.cumsum(moves)])
        prices = 100.0 * 1.005 ** (levels + 0.5)
        return write_price_csv(tmp_path / "px.csv", [float(p) for p in prices]), strategy_file

    def test_report_fields(self, tmp_path, strategy_file, capsys):
        csv_path, strat = self.make_inputs(tmp_path, strategy_file)
        code = main(["backtest", csv_path, strat, "--bin-width-pct", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == 400
        assert doc["grid_bins"] >= 1
        assert np.isfinite(doc["ratio"])
        assert doc["ratio"] == pytest.approx(
            doc["mean_utility_per_step"] / doc["v2_mean_utility_per_step"]
        )

    def test_band_out(self, tmp_path, strategy_file):
        csv_path, strat = self.make_inputs(tmp_path, strategy_file)
        band = tmp_path / "band.csv"
        code = main(
            [
                "backtest",
                csv_path,
                strat,
                "--bin-width-pct",
                "0.5",
                "--band-out",
                str(band),
                "--quiet",
            ]
        )
        assert code == 0
        lines = band.read_text().strip().splitlines()
        assert lines[0] == "step,price,alpha_low,alpha_high,tau_low,tau_high"
        assert len(lines) == 401

    def test_low_one_ulp_below_a_bin_edge(self, tmp_path, strategy_file, capsys):
        # with the grid anchored at the first price, 100.0, bin -3 starts at
        # 100 * 1.005**-3; the minimum one ulp below it is in bin -4, which
        # the grid used to leave out
        low = math.nextafter(100.0 * (1.0 + 0.005) ** -3, 0.0)
        prices = [100.0, 99.2, low, 98.9, 99.7, 100.4]
        csv_path = write_price_csv(tmp_path / "px.csv", prices)
        code = main(["backtest", csv_path, strategy_file, "--bin-width-pct", "0.5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["steps"] == 5
        assert doc["grid_bins"] == 6  # bins -4 .. 1

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_ratio_that_is_not_finite_is_one_error_line(self, tmp_path, capsys):
        # 1,269 bins share kappa * ell = 3e-308, so the v2 utility is subnormal,
        # and every step resets: -1 over it overflows, and the report read
        # "ratio": -Infinity
        steps = [1.02] * 30 + [0.98] * 29
        prices = (100.0 * np.cumprod([1.0, *steps])).tolist()
        csv_path = write_price_csv(tmp_path / "px.csv", prices)
        doc = tmp_path / "tiny.json"
        doc.write_text(json.dumps({"kind": "uniform", "n_tau": 1, "n_alpha": 1,
                                   "params": {"a": 0, "kappa": 3e-308, "ell": 1}}))
        assert main(["backtest", csv_path, str(doc)]) == 1
        assert_one_error_line(capsys, "ratio of mean utility -1.0 to the v2 baseline's",
                              "is not finite")

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_sums_past_the_float_range(self, tmp_path, capsys):
        # kappa * ell = 1e308: a step earns up to 1e308 / 7, and 400 steps sum
        # past the float range; the backtest mean is finite, a simulate total is not
        csv_path, _ = self.make_inputs(tmp_path, None)
        doc = tmp_path / "overflow.json"
        doc.write_text(json.dumps({"kind": "uniform", "n_tau": 2, "n_alpha": 3,
                                   "params": {"a": 0, "kappa": 1e307, "ell": 10}}))
        assert main(["backtest", csv_path, str(doc), "--bin-width-pct", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert 0.0 < out["mean_utility_per_step"] <= 1e308 / 7
        dist = tmp_path / "dist.json"
        assert main(["fit", csv_path, "--bin-width-pct", "0.5", "--out", str(dist)]) == 0
        assert main(["simulate", str(dist), str(doc), "--steps", "400"]) == 1
        assert_one_error_line(capsys, "total reward of 400 steps overflows")
        assert main(["simulate", str(dist), str(doc), "--steps", "5"]) == 0
        json.loads(capsys.readouterr().out, parse_constant=pytest.fail)


class TestErrorHandling:
    NUMPY_MESSAGE = "Unable to allocate 14.9 GiB for an array with shape (2000000001,) and data type int64"

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    @pytest.mark.parametrize(
        "message, shown",
        [(NUMPY_MESSAGE, NUMPY_MESSAGE), ("", "out of memory")],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_is_one_error_line(
        self, command, message, shown, dist_file, strategy_file, tmp_path, monkeypatch, capsys
    ):
        # the allocators refuse an array past a million entries; none is ever requested
        bincount = np.bincount

        def small_bincount(x, weights=None, minlength=0):
            if minlength > 10**6:
                raise MemoryError(message)
            return bincount(x, weights=weights, minlength=minlength)

        class SmallGenerator(np.random.Generator):
            def random(self, size=None, *args, **kwargs):
                if size is not None and size > 10**6:
                    raise MemoryError(message)
                return super().random(size, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", small_bincount)
        monkeypatch.setattr(np.random, "Generator", SmallGenerator)
        if command == "fit":
            csv_path = write_price_csv(tmp_path / "px.csv", [100.0, 100.3, 100.1])
            argv = ["fit", csv_path, "--k-max", "1000000000"]
        else:
            argv = ["simulate", dist_file, strategy_file, "--steps", "10000000000"]
        assert main(argv) == 1
        assert_one_error_line(capsys, f"error: {shown}")

    def test_domain_error_is_one_line_and_nonzero(self, dist_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery"}))
        code = main(["eval", dist_file, str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit", "backtest"])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_price_is_one_line_and_nonzero(
        self, command, bad, strategy_file, tmp_path, capsys
    ):
        csv_path = tmp_path / "px.csv"
        csv_path.write_text(f"timestamp,price\n1,100.0\n2,{bad}\n3,101.0\n")
        argv = [command, str(csv_path)]
        if command == "backtest":
            argv.append(strategy_file)
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize(
        "width, message",
        [("1e300", "overflows"), ("1e-300", "1 + step == 1"), ("1e-17", "1 + step == 1")],
    )
    def test_extreme_bin_width_backtest_is_one_line_and_nonzero(
        self, width, message, strategy_file, tmp_path, capsys
    ):
        csv_path = write_price_csv(tmp_path / "px.csv", [100.0, 100.4, 99.8, 100.9])
        out = tmp_path / "out.json"
        argv = ["backtest", csv_path, strategy_file, f"--bin-width-pct={width}"]
        assert main(argv + ["--out", str(out)]) == 1
        assert_one_error_line(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "backtest"])
    @pytest.mark.parametrize("width", ["nan", "inf", "-inf", "0"])
    def test_bin_width_not_finite_and_positive_is_one_line_and_nonzero(
        self, command, width, strategy_file, tmp_path, capsys
    ):
        csv_path = write_price_csv(tmp_path / "px.csv", [100.0, 100.4, 99.8, 100.9])
        argv = [command, csv_path]
        if command == "backtest":
            argv += [strategy_file, "--band-out", str(tmp_path / "band.csv")]
        out = tmp_path / "out.json"
        assert main(argv + [f"--bin-width-pct={width}", "--out", str(out)]) == 1
        assert_one_error_line(capsys, "bin_width_pct must be finite and > 0")
        assert not out.exists()
        assert not (tmp_path / "band.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "backtest"])
    def test_short_row_is_one_line_and_nonzero(
        self, command, strategy_file, tmp_path, capsys
    ):
        csv_path = tmp_path / "px.csv"
        csv_path.write_text("timestamp,price\n1,100\n2\n3,101\n")
        argv = [command, str(csv_path)]
        if command == "backtest":
            argv.append(strategy_file)
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert str(csv_path) in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["fit", "backtest"])
    @pytest.mark.parametrize("where", ["header", "price", "late price"])
    def test_undecodable_byte_is_one_line_and_nonzero(
        self, command, where, strategy_file, tmp_path, capsys
    ):
        # a Latin-1 e-acute is not UTF-8; past the first 8 KiB the text reader
        # decodes a later chunk, and the position must still count from byte 0
        rows = [f"{t},{100 + t % 7}" for t in range(1, 3000 if where == "late price" else 4)]
        text = "\n".join(["timestamp,price" + (",caf\xe9" if where == "header" else ""), *rows])
        if where != "header":
            text = text.replace("\n2,102", "\n2,10\xe92") if where == "price" else text + "\xe9"
        data = text.encode("latin-1") + b"\n"
        csv_path = tmp_path / "px.csv"
        csv_path.write_bytes(data)
        argv = [command, str(csv_path)]
        if command == "backtest":
            argv.append(strategy_file)
        assert main(argv + ["--out", str(tmp_path / "out.json")]) == 1
        assert_one_error_line(capsys, str(csv_path), f"position {data.index(0xE9)}")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("a", [1e308, -1e308])
    @pytest.mark.parametrize("command", ["eval", "optimize", "sweep", "simulate", "backtest"])
    def test_huge_risk_aversion_warns_nothing(self, command, a, dist_file, tmp_path, capsys):
        # a*c overflows: at a > 0 each utility saturates at its limit 1/a; an
        # a < 0 (and, unshifted in backtest, a reset's u(-1) at a > 0) is refused
        doc = tmp_path / "strategy.json"
        doc.write_text(json.dumps({"kind": "uniform", "n_tau": 1, "n_alpha": 1,
                                   "params": {"a": a}}))
        argv = {
            "eval": ["eval", dist_file, str(doc)],
            "optimize": ["optimize", dist_file, "--n-tau", "1", f"--a={a!r}"],
            "sweep": ["sweep", dist_file, "--strategy", "optimal", "--n-tau-grid", "0,1,2",
                      "--n-alpha-grid", "1", f"--a={a!r}"],
            "simulate": ["simulate", dist_file, str(doc), "--steps", "500"],
            "backtest": [
                "backtest",
                write_price_csv(tmp_path / "px.csv", [100.0, 100.4, 99.8, 103.9, 100.2]),
                str(doc),
            ],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert caught == []
        if a < 0 or command == "backtest":
            assert code == 1
            assert_one_error_line(capsys, "exp_utility overflow")
        else:
            assert code == 0
            out = capsys.readouterr().out
            if command == "sweep":
                values = [float(row.split(",")[2]) for row in out.splitlines()[1:]]
            else:
                key = {"eval": "expected_utility", "optimize": "objective"}.get(
                    command, "mean_utility_per_step")
                values = [json.loads(out)[key]]
            assert all(0.0 < v <= (1.0 + 1e-12) / a for v in values)

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize("command", ["eval", "optimize", "sweep", "simulate", "backtest"])
    def test_kappa_times_ell_that_overflows_is_one_error_line(
        self, command, dist_file, tmp_path, capsys
    ):
        # each is finite and > 0, their product is not: every reward would be
        # inf or NaN, or, below the smallest normal float, lose A(j)
        ends = [("1e200", "1e200", "overflows: 1e+200 * 1e+200"),
                ("1e-200", "1e-200", "underflows: 1e-200 * 1e-200"),
                ("1e-320", "1", "underflows: 1e-320 * 1.0")]
        prices = write_price_csv(tmp_path / "px.csv", [100.0, 100.4, 99.8, 103.9, 100.2])
        doc, out = tmp_path / "strategy.json", tmp_path / "out.json"
        for kappa, ell, verdict in ends:
            doc.write_text(json.dumps({"kind": "uniform", "n_tau": 1, "n_alpha": 1, "params": {
                "a": 0.1, "kappa": float(kappa), "ell": float(ell)}}))
            flags = ["--kappa", kappa, "--ell", ell, "--a", "1"]
            argv = {
                "eval": ["eval", dist_file, str(doc)],
                "optimize": ["optimize", dist_file, "--n-tau", "1", *flags],
                "sweep": ["sweep", dist_file, "--n-tau-grid", "0,1", "--n-alpha-grid", "1", *flags],
                "simulate": ["simulate", dist_file, str(doc), "--steps", "50"],
                "backtest": ["backtest", prices, str(doc)],
            }[command]
            assert main(argv + ["--out", str(out)]) == 1
            assert_one_error_line(capsys, f"kappa * ell {verdict}")
            assert not out.exists()

    @pytest.mark.parametrize("argv, code, message", [
        (["simulate", "D", "S", "--steps", str(10**20 - 1)], 2, "invalid count value"),
        (["optimize", "D", "--n-tau", str(10**20 - 1)], 2, "invalid count value"),
        (["optimize", "D", "--n-tau", "1.5"], 2, "invalid count value"),
        (["fit", "P", "--k-max", str(10**20 - 1)], 2, "invalid count value"),
        (["backtest", "P", "S", "--k-max", str(10**20 - 1)], 2, "invalid count value"),
        (["simulate", "D", "S", "--steps", "1" + "0" * 400], 2, "invalid count value"),
        (["sweep", "D", "--n-tau-grid", "1", "--n-alpha-grid", str(10**20 - 1)], 1, "bad grid"),
        (["sweep", "D", "--n-tau-grid", "1" + "0" * 400, "--n-alpha-grid", "1"], 1, "bad grid"),
        (["eval", "D", {"n_tau": 10**20 - 1}], 1, "strategy field 'n_tau'"),
        (["eval", "D", {"n_tau": 1e300}], 1, "strategy field 'n_tau'"),
        (["eval", "D", {"n_alpha": 10**20 - 1}], 1, "strategy field 'n_alpha'"),
        (["simulate", "D", {"n_tau": 10**20 - 1}], 1, "strategy field 'n_tau'"),
        (["eval", "D", {"n_tau": 2**53}], 1, "strategy field 'n_tau'"),
    ])
    def test_count_past_the_array_range_is_one_line(
        self, argv, code, message, dist_file, strategy_file, tmp_path, capsys
    ):
        # refused before any array is sized by it: no ValueError or OverflowError
        # traceback from numpy, and nothing allocated
        def arg(value):
            if isinstance(value, dict):
                doc = {"kind": "uniform", "n_tau": 1, "n_alpha": 1, **value}
                (tmp_path / "doc.json").write_text(json.dumps(doc))
                return str(tmp_path / "doc.json")
            prices = [100.0, 100.4, 99.8, 103.9, 100.2]
            return {"D": dist_file, "S": strategy_file,
                    "P": write_price_csv(tmp_path / "px.csv", prices)}.get(value, value)

        argv = [arg(value) for value in argv]
        if code == 2:
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: lpreset")
            assert message in err.splitlines()[-1]
        else:
            assert main(argv) == 1
            assert_one_error_line(capsys, message)

    def test_resolve_rejects_unknown_kind(self, toy_dist):
        from lpreset import InputError

        with pytest.raises(InputError):
            resolve_strategy({"kind": "mystery"}, toy_dist)


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


class TestUnreadableInputs:
    def test_missing_price_csv(self, tmp_path, strategy_file, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["fit", missing]) == 1
        assert_one_error_line(capsys, missing, "No such file")
        assert main(["backtest", missing, strategy_file]) == 1
        assert_one_error_line(capsys, missing)

    def test_missing_distribution(self, tmp_path, strategy_file, capsys):
        missing = str(tmp_path / "missing.json")
        for argv in (
            ["eval", missing, strategy_file],
            ["optimize", missing, "--n-tau", "1"],
            ["sweep", missing, "--n-tau-grid", "1", "--n-alpha-grid", "1"],
            ["simulate", missing, strategy_file],
        ):
            assert main(argv) == 1
            assert_one_error_line(capsys, missing, "No such file")

    def test_missing_strategy_document(self, tmp_path, dist_file, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["eval", dist_file, missing]) == 1
        assert_one_error_line(capsys, missing, "No such file")
        assert main(["eval", dist_file, str(tmp_path)]) == 1  # a directory
        assert_one_error_line(capsys, str(tmp_path))

    def test_document_that_is_not_json(self, tmp_path, dist_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", dist_file, str(bad)]) == 1
        assert_one_error_line(capsys, str(bad))
        assert main(["eval", str(bad), str(bad)]) == 1
        assert_one_error_line(capsys, str(bad))

    def test_unwritable_output(self, tmp_path, dist_file, capsys):
        out = str(tmp_path / "no" / "such" / "dir.json")
        assert main(["optimize", dist_file, "--n-tau", "1", "--out", out]) == 1
        assert_one_error_line(capsys, out)


class TestParserReuse:
    def test_one_parser_and_no_carried_attributes(self, dist_file, strategy_file, monkeypatch, capsys):
        import lpreset.cli as cli

        parser = cli._parser()
        assert cli._parser() is parser
        parsed = []
        parse = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: parsed.append(parse(argv)) or parsed[-1])
        argvs = [
            ["optimize", dist_file, "--n-tau", "1", "--a", "2.5"],
            ["sweep", dist_file, "--n-tau-grid", "1", "--n-alpha-grid", "1", "--mode", "full-coverage"],
            ["eval", dist_file, strategy_file],
        ]
        assert [main(argv) for argv in argvs] == [0, 0, 0]
        assert cli._parser() is parser
        assert [vars(ns) for ns in parsed] == [
            vars(cli.build_parser().parse_args(argv)) for argv in argvs
        ]
        assert not {"a", "kappa", "ell", "n_tau", "tau_mass"} & set(vars(parsed[2]))
        assert parsed[2].mode == MODE_STRICT

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "x", "--mode", "full-coverage"],
            ["simulate", "x", "y", "--mode", "full-coverage"],
            ["backtest", "x", "y", "--mode", "full-coverage"],
            # the optimal allocation's strict and full objectives coincide
            ["optimize", "x", "--n-tau", "1", "--mode", "full-coverage"],
            # tails are clamped unless --drop-tails
            ["fit", "x", "--clamp-tails"],
        ],
    )
    def test_mode_flag_only_where_it_matters(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = next(arg for arg in argv if arg in ("--mode", "--clamp-tails"))
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--compare-v2", "--no-compare-v2"])
    def test_backtest_always_compares_with_v2(self, flag, capsys):
        with pytest.raises(SystemExit):
            main(["backtest", "x", "y", flag])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def malformed_documents():
    """Strategy documents that must be refused: one bad field each."""
    valid = [
        {"kind": "uniform", "n_tau": 1, "n_alpha": 1},
        {"kind": "proportional", "tau_mass": 0.5, "alpha_mass": 0.9},
        {"kind": "optimal", "n_tau": 1, "params": {"a": 0.5}},
        {"kind": "custom", "n_tau": 0, "n_alpha": 1, "weights": [0.2, 0.5, 0.3]},
    ]
    bad_values = st.one_of(
        st.text(max_size=3),
        st.lists(st.integers(-2, 2), max_size=2),
        st.fixed_dictionaries({"a": st.one_of(st.text(max_size=3), st.none())}),
        st.none(),
        st.sampled_from([math.nan, math.inf, -math.inf, -1, 1.5, True, ["0.5"]]),
    )

    @st.composite
    def one_bad_field(draw):
        doc = dict(draw(st.sampled_from(valid)))
        key = draw(st.sampled_from(sorted(doc)))
        doc[key] = draw(bad_values)
        return doc

    return st.one_of(
        one_bad_field(),
        st.lists(st.integers(), max_size=2),
        st.text(max_size=3),
        st.none(),
        st.integers(),
    )


class TestMalformedStrategyDocuments:
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "uniform", "n_tau": "x", "n_alpha": 1},
            {"kind": "custom", "n_tau": 0, "n_alpha": 1, "weights": "ab"},
            {"kind": "proportional", "tau_mass": "z", "alpha_mass": 0.9},
            [{"kind": "uniform", "n_tau": 1, "n_alpha": 1}],
            {"kind": "uniform", "n_tau": 1, "n_alpha": 1, "params": {"a": "q"}},
            {"kind": "uniform", "n_tau": 1, "n_alpha": 1, "params": "q"},
            {"kind": "uniform", "n_tau": 1, "tau_mass": 0.5, "n_alpha": 1},
            {"kind": "custom", "n_tau": 0, "n_alpha": 0, "weights": [math.nan]},
        ],
    )
    def test_named_cases(self, doc, dist_file, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["eval", dist_file, str(path)]) == 1
        assert_one_error_line(capsys)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(doc=malformed_documents())
    def test_fuzz_is_one_error_line(self, doc, dist_file, tmp_path_factory, capsys):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", dist_file, str(path)]) == 1
        assert_one_error_line(capsys)


# each input's valid value, and the off values an example may draw in its place:
# counts past the array range, floats at and past the float range, masses and
# bin widths out of their range, seeds past int64, weights that are not a simplex
# point, a price CSV row whose price is not positive or not finite or whose
# timestamp repeats or goes back. A mass or a width of None is the count form or
# the default width; a price or a stamp of None leaves the CSV as it is. An off
# count is refused before an array is sized by it, and every weights list has
# 2 * 2 + 1 entries, so no example allocates more than a valid one.
COUNTS = [0, -1, 2**53, 2**63, 10**20]
SCALES = [1e-200, 1e-320, 1e200, 1e307, 1e308, -1e308, math.nan, math.inf]
MASSES = [0.5, 0.0, -1.0, 1.5, math.nan, math.inf]
INPUTS = {
    "k_max": (4, COUNTS),
    "n_tau": (1, COUNTS),
    "n_alpha": (2, COUNTS),
    "steps": (50, COUNTS),
    "kappa": (1.0, SCALES),
    "ell": (1.0, SCALES),
    # None: the drawn risk; a tiny |a| with a large kappa * ell overflows u's division
    "a": (None, [1e307, 1e308, -1e308, math.nan, math.inf, 1e-306, -1e-306, 1e-300, -1e-300]),
    "tau_mass": (None, MASSES),
    "alpha_mass": (None, MASSES),
    "width": (None, [0.0, -1.0, 1e-320, 1e308, math.nan, math.inf]),
    "seed": (0, [-1, 2**63, 2**64]),
    "weights": (None, [[0.2] * 5, [0.2, 0.2, math.nan, 0.2, 0.2],
                       [0.2, 0.2, math.inf, 0.2, 0.2], [0.2, 0.2, -1.0, 0.2, 0.2], [0.3] * 5]),
    # (data row, value): the first, a middle and the last of the CSV's 60 rows
    "price": (None, [(row, value) for row in (0, 30, 59)
                     for value in [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]]),
    "stamp": (None, [(row, kind) for row in (1, 30, 59) for kind in ["equal", "decreasing"]]),
}
OFF = [(name, value) for name, (_, values) in INPUTS.items() for value in values]


class TestEveryInputEndsCleanly:
    """Every command ends in a result, one ``error:`` line or argparse usage."""

    # moves of 0, +-1 and +-2 bins at the default width
    PRICES = (100.0 * np.cumprod([1.0005, 0.9995, 1.0, 1.001, 0.999] * 12)).tolist()

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        write_price_csv(root / "px.csv", self.PRICES)
        assert main(["fit", str(root / "px.csv"), "--k-max", "4",
                     "--out", str(root / "dist.json")]) == 0
        return root

    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(["fit", "eval", "optimize", "sweep", "simulate", "backtest"]),
        kind=st.sampled_from(["uniform", "proportional", "optimal"]),
        risk=st.sampled_from([-1.0, 0.0, 1.0]),
        off=st.lists(st.sampled_from(OFF), max_size=3),
        anchor=st.sampled_from(["first", "low"]),
        # eval's and sweep's E_u mode, or one argparse refuses
        mode=st.sampled_from([MODE_STRICT, MODE_FULL, "exact"]),
    )
    # the inputs this property first found or pinned: a std_error whose squares
    # overflowed, kappa * ell under the smallest normal float, a count past int64,
    # a backtest mean whose sum overflowed, a utility -expm1(-a c) / a whose
    # division overflowed at a tiny a < 0, and a v2 baseline whose a * c underflowed
    @example(command="simulate", kind="uniform", risk=0.0, off=[("kappa", 1e200)],
             anchor="first", mode=MODE_STRICT)
    @example(command="backtest", kind="uniform", risk=1.0, off=[("kappa", 1e-320)],
             anchor="first", mode=MODE_STRICT)
    @example(command="optimize", kind="uniform", risk=1.0,
             off=[("kappa", 1e-200), ("ell", 1e-200)], anchor="first", mode=MODE_STRICT)
    @example(command="eval", kind="uniform", risk=0.0, off=[("n_tau", 2**63)], anchor="first",
             mode=MODE_STRICT)
    @example(command="backtest", kind="uniform", risk=0.0, off=[("kappa", 1e308)],
             anchor="first", mode=MODE_STRICT)
    @example(command="eval", kind="uniform", risk=0.0, off=[("a", -1e-306), ("kappa", 1e308)],
             anchor="first", mode=MODE_STRICT)
    @example(command="optimize", kind="uniform", risk=0.0,
             off=[("a", -1e-306), ("kappa", 1e307)], anchor="first", mode=MODE_STRICT)
    @example(command="backtest", kind="uniform", risk=-1.0,
             off=[("kappa", 1e-200), ("a", 1e-306)], anchor="first", mode=MODE_STRICT)
    def test_exit_code_and_stderr(self, inputs, command, kind, risk, off, anchor, mode):
        v = {name: valid for name, (valid, _) in INPUTS.items()} | dict(off)
        a = risk if v["a"] is None else v["a"]
        body = {"kind": kind, "params": {"a": a, "kappa": v["kappa"], "ell": v["ell"]}}
        if v["weights"] is not None:
            body.update(n_tau=v["n_tau"], n_alpha=v["n_alpha"], weights=v["weights"])
        else:
            for count, mass in (("n_tau", "tau_mass"), ("n_alpha", "alpha_mass")):
                body.update({count: v[count]} if v[mass] is None else {mass: v[mass]})
        doc = inputs / "strategy.json"
        doc.write_text(json.dumps(body))
        dist, prices = str(inputs / "dist.json"), str(inputs / "px.csv")
        if v["price"] is not None or v["stamp"] is not None:
            stamps = [1_600_000_000 + 600 * i for i in range(len(self.PRICES))]
            values = list(self.PRICES)
            if v["price"] is not None:
                row, values[row] = v["price"]
            if v["stamp"] is not None:
                row, how = v["stamp"]
                stamps[row] = stamps[row - 1] - (600 if how == "decreasing" else 0)
            prices = str(inputs / "px_off.csv")
            with open(prices, "w") as fh:
                fh.write("timestamp,price\n")
                fh.writelines(f"{t},{p!r}\n" for t, p in zip(stamps, values))
        # --name=value: after a space, argparse reads -1e308 as an option
        flags = [f"--a={a!r}", f"--kappa={v['kappa']!r}", f"--ell={v['ell']!r}"]
        taus = (["--n-tau", str(v["n_tau"])] if v["tau_mass"] is None
                else [f"--tau-mass={v['tau_mass']!r}"])
        windows = (["--n-tau-grid", str(v["n_tau"]), "--n-alpha-grid", str(v["n_alpha"])]
                   if v["tau_mass"] is None else [f"--tau-mass-grid=0.5,{v['tau_mass']!r}"])
        widths = [] if v["width"] is None else [f"--bin-width-pct={v['width']!r}"]
        argv = {
            "fit": ["fit", prices, "--k-max", str(v["k_max"]), *widths],
            "eval": ["eval", dist, str(doc), "--mode", mode],
            "optimize": ["optimize", dist, *taus, *flags],
            "sweep": ["sweep", dist, *windows, *flags, "--mode", mode],
            "simulate": ["simulate", dist, str(doc), "--steps", str(v["steps"]),
                         "--seed", str(v["seed"])],
            "backtest": ["backtest", prices, str(doc), "--k-max", str(v["k_max"]), *widths,
                         "--grid-anchor", anchor],
        }[command]
        err, out = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage
                code = exc.code
        assert [str(w.message) for w in caught] == []
        lines = err.getvalue().splitlines()
        if command in ("fit", "backtest") and (v["price"] or v["stamp"]) and code != 2:
            # the CSV is read before anything else is checked: its bad row is the error
            assert code == 1
            assert lines[0] in {"error: prices must be finite",
                                "error: prices must be strictly positive",
                                "error: timestamps must be strictly increasing"}
        if code == 0:
            assert lines == []
            text = out.getvalue()
            if command == "sweep":
                assert all(math.isfinite(float(row.split(",")[2]))
                           for row in text.splitlines()[1:])
            else:  # strict JSON: no NaN or Infinity
                json.loads(text, parse_constant=pytest.fail)
        elif code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert code == 2
            assert lines[0].startswith("usage: lpreset")
            assert lines[-1].startswith(f"lpreset {command}: error: argument")


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# runs each argv of the JSON list in argv[1]; lpreset.cli comes first, so its
# thread pin is set before numpy loads
THREAD_CHILD = """
import lpreset.cli
import json, sys
for argv in json.loads(sys.argv[1]):
    assert lpreset.cli.main(argv) == 0
"""


class TestThreadCount:
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, eth_dist):
        # chains of 129 and 513 states, whose dense solve rounds differently
        # under 1 and 2 OpenBLAS threads
        dist = write_dist(eth_dist, tmp_path / "dist.json")
        # importing lpreset.cli pinned this process's environment too, so each
        # child's is built without the three variables, then given its setting
        base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        base["PYTHONPATH"] = str(Path(lpreset.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2", None):
            out = tmp_path / f"threads_{threads}"
            out.mkdir()
            argvs = [
                *(["optimize", dist, "--n-tau", n_tau, "--a", "0.1",
                   "--out", str(out / f"optimize_{n_tau}.json")] for n_tau in ("64", "256")),
                ["sweep", dist, "--strategy", "optimal", "--n-tau-grid", "64,256",
                 "--n-alpha-grid", "64,320", "--a", "0.1", "--out", str(out / "sweep.csv")],
            ]
            env = base if threads is None else {**base, **dict.fromkeys(THREAD_VARS, threads)}
            subprocess.run([sys.executable, "-c", THREAD_CHILD, json.dumps(argvs)],
                           env=env, timeout=120, check=True)
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(outputs[0]) == 3
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


class TestBlasKernel:
    def test_simulate_and_backtest_bytes_do_not_depend_on_the_openblas_core(
        self, tmp_path, eth_dist
    ):
        # the sums of a path's rewards and utilities take no BLAS call, so a
        # generic core writes the bytes that the one OpenBLAS picks here writes
        dist = write_dist(eth_dist, tmp_path / "dist.json")
        doc = tmp_path / "strategy.json"
        doc.write_text(json.dumps({"kind": "proportional", "tau_mass": 0.5,
                                   "alpha_mass": 0.9, "params": {"a": 0.1}}))
        steps = np.random.default_rng(5).standard_t(3.0, size=1999) * 0.00114
        prices = (2000.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))).tolist()
        csv_path = write_price_csv(tmp_path / "px.csv", prices)
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        base["PYTHONPATH"] = str(Path(lpreset.__file__).resolve().parents[1])
        outputs = []
        for core in (None, "Prescott"):
            out = tmp_path / f"core_{core}"
            out.mkdir()
            argvs = [
                ["simulate", dist, str(doc), "--steps", "20000", "--seed", "3",
                 "--out", str(out / "simulate.json")],
                ["backtest", csv_path, str(doc), "--band-out", str(out / "band.csv"),
                 "--out", str(out / "backtest.json")],
            ]
            env = base if core is None else {**base, "OPENBLAS_CORETYPE": core}
            subprocess.run([sys.executable, "-c", THREAD_CHILD, json.dumps(argvs)],
                           env=env, timeout=120, check=True)
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert len(outputs[0]) == 3
        assert outputs[1] == outputs[0]
