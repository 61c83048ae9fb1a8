import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
from lpreset.strategies import resolve_strategy

from conftest import dists, write_price_csv


@pytest.fixture
def dist_file(tmp_path, toy_dist):
    path = tmp_path / "dist.json"
    toy_dist.save(str(path))
    return str(path)


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
        path = tmp_path / "dist.json"
        eth_dist.save(str(path))
        assert main(["optimize", str(path), "--n-tau", "3", "--a", "-15"]) == 1
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
                    spec = optimal_strategy(toy_dist, n_tau, params)[0]
                value = expected_utility(toy_dist, n_tau, spec.allocation, params, MODE_FULL)
                want.append([str(n_tau), str(n_alpha), repr(value)])
        assert rows == want

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

    @pytest.mark.parametrize("strategy", ["proportional", "uniform"])
    @pytest.mark.parametrize("n_taus", ["-1", "2,-1", "1,2,-3"])
    def test_bad_n_tau_is_reported_before_bad_n_alpha(self, strategy, n_taus, dist_file, capsys):
        argv = ["sweep", dist_file, "--strategy", strategy, "--n-tau-grid", n_taus,
                "--n-alpha-grid", "-1"]
        assert main(argv) == 1
        assert_one_error_line(capsys, "n_tau must be >= 0")

    @pytest.mark.parametrize("strategy", ["proportional", "uniform"])
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
        path = tmp_path_factory.mktemp("sweep") / "dist.json"
        dist.save(str(path))
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
                        spec = optimal_strategy(dist, n_tau, params)[0]
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
        first = ["optimize", dist_file, "--n-tau", "1", "--a", "2.5", "--mode", "full-coverage"]
        second = ["eval", dist_file, strategy_file]
        assert main(first) == 0
        assert main(second) == 0
        assert cli._parser() is parser
        assert [vars(ns) for ns in parsed] == [
            vars(cli.build_parser().parse_args(argv)) for argv in (first, second)
        ]
        assert not {"a", "kappa", "ell", "n_tau", "tau_mass"} & set(vars(parsed[1]))
        assert parsed[1].mode == MODE_STRICT

    @pytest.mark.parametrize(
        "argv", [["fit", "x"], ["simulate", "x", "y"], ["backtest", "x", "y"]]
    )
    def test_mode_flag_only_where_it_matters(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv + ["--mode", "full-coverage"])
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

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
