import math

import numpy as np
import pytest

from lpreset import (
    MODE_FULL,
    InputError,
    NextPriceDistribution,
    NumericalError,
    UtilityParams,
    expected_utility,
    landing_law,
    proportional_strategy,
    run_strategy,
    sample_path,
    uniform_strategy,
    window_for_mass,
)
from lpreset.simulate import execute, payoffs


class TestSamplePath:
    def test_point_mass_path_is_constant(self):
        d = NextPriceDistribution(1, np.array([0.0, 1.0, 0.0]), 1.0)
        assert np.all(sample_path(d, 500, seed=3) == 0)

    def test_empirical_frequencies(self, toy_dist):
        path = sample_path(toy_dist, 30_000, seed=42)
        for k in (-1, 0, 1):
            freq = np.mean(path == k)
            assert abs(freq - 1 / 3) < 0.01

    def test_deterministic_for_fixed_seed(self, eth_dist):
        p1 = sample_path(eth_dist, 1000, seed=9)
        p2 = sample_path(eth_dist, 1000, seed=9)
        np.testing.assert_array_equal(p1, p2)
        assert not np.array_equal(p1, sample_path(eth_dist, 1000, seed=10))

    def test_moves_stay_in_support(self, eth_dist):
        path = sample_path(eth_dist, 10_000, seed=0)
        assert np.all(np.abs(path) <= eth_dist.k_max)

    def test_needs_positive_steps(self, toy_dist):
        with pytest.raises(InputError):
            sample_path(toy_dist, 0, seed=1)

    def test_negative_seed_is_an_input_error(self, toy_dist):
        with pytest.raises(InputError, match="seed must be >= 0, got -1"):
            sample_path(toy_dist, 10, seed=-1)


class TestRunStrategy:
    def test_worked_example_converges_to_analytic(self, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(1, 1, params)
        analytic = expected_utility(toy_dist, 1, spec.allocation, params, MODE_FULL)
        path = sample_path(toy_dist, 50_000, seed=7)
        report = run_strategy(path, spec, seed=7)
        assert abs(report.mean_utility_per_step - analytic) <= 3 * report.std_error

    def test_static_price_never_resets(self):
        d = NextPriceDistribution(1, np.array([0.0, 1.0, 0.0]), 1.0)
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(1, 1, params)
        report = run_strategy(sample_path(d, 200, seed=1), spec, seed=1)
        assert report.resets == 0
        assert report.total_reward == pytest.approx(200 * spec.allocation.weight(0))
        assert report.std_error == pytest.approx(0.0, abs=1e-15)

    def test_single_bin_utility_matches_center_mass(self, eth_dist):
        # all liquidity on the center bin of a 0-width window: per-step mean
        # reward approaches ell * h(0) = 15
        params = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        spec = uniform_strategy(0, 0, params)
        path = sample_path(eth_dist, 50_000, seed=13)
        report = run_strategy(path, spec, seed=13)
        analytic = expected_utility(eth_dist, 0, spec.allocation, params, MODE_FULL)
        assert abs(report.mean_utility_per_step - analytic) <= 3 * report.std_error
        assert analytic == pytest.approx(100 * eth_dist.prob(0) - (1 - eth_dist.prob(0)))

    def test_reset_frequency_matches_chain(self, eth_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        n_tau = 2
        spec = uniform_strategy(n_tau, 4, params)
        path = sample_path(eth_dist, 50_000, seed=21)
        report = run_strategy(path, spec, seed=21)
        expected_rate = 1.0 / landing_law(eth_dist, n_tau).cycle_length
        observed = report.resets / report.steps
        se = np.sqrt(expected_rate * (1 - expected_rate) / report.steps)
        assert abs(observed - expected_rate) <= 3 * se

    def test_bitwise_reproducible(self, eth_dist):
        params = UtilityParams(a=0.5, kappa=1.0, ell=100.0)
        spec = uniform_strategy(2, 4, params)
        path = sample_path(eth_dist, 5000, seed=5)
        r1 = run_strategy(path, spec, seed=5)
        r2 = run_strategy(path, spec, seed=5)
        assert r1 == r2
        assert r1.to_json_dict() == r2.to_json_dict()

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_std_error_where_the_squares_pass_the_float_range(self, toy_dist):
        # at kappa * ell = 1e200 and a = 0 a deviation's square overflows; the
        # report scales u by a power of two first
        spec = uniform_strategy(1, 1, UtilityParams(kappa=1e200, ell=1.0))
        path = sample_path(toy_dist, 400, seed=3)
        rows, _, table, _ = payoffs(execute(path, spec.n_tau), spec, spec.params.shift)
        utilities = table[rows]
        want = float(np.std(utilities / 1e200, ddof=1)) * 1e200 / math.sqrt(len(path))
        assert run_strategy(path, spec).std_error == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_total_reward_past_the_float_range_is_refused(self, toy_dist, tmp_path):
        # each step at offset 0 earns 1e308 / 3: two steps sum inside the float
        # range and twenty do not, which is refused before a trace is written
        spec = uniform_strategy(1, 1, UtilityParams(kappa=1e307, ell=10.0))
        trace = tmp_path / "trace.csv"
        with pytest.raises(NumericalError, match="total reward of 20 steps overflows"):
            run_strategy(np.zeros(20, dtype=np.int64), spec, trace_out=str(trace))
        assert not trace.exists()
        report = run_strategy(np.zeros(2, dtype=np.int64), spec)
        assert report.total_reward == pytest.approx(2 * (1e308 / 3), rel=1e-15)
        assert report.mean_utility_per_step == pytest.approx(1e308 / 3, rel=1e-15)

    @pytest.mark.parametrize("a", [0.0, 0.1, 15.0])
    def test_total_reward_is_within_a_few_roundings_of_the_exact_sum(self, eth_dist, a):
        # the total is the landings per payoff row times the reward table, a
        # sum of 2 far + 1 terms, so its error is bounded by a few roundings
        # of sum |r| however long the path; a running sum's bound grows with it
        spec = proportional_strategy(eth_dist, UtilityParams(a=a), 2,
                                     window_for_mass(eth_dist, 0.9))
        far = max(spec.n_tau, spec.n_alpha) + 1
        for seed in range(4):
            path = sample_path(eth_dist, 200_000, seed)
            rows, rewards, _, _ = payoffs(execute(path, spec.n_tau), spec, 0.0)
            steps = rewards[rows].tolist()
            bound = (2 * far + 2) * np.finfo(float).eps * math.fsum(map(abs, steps))
            assert abs(run_strategy(path, spec).total_reward - math.fsum(steps)) <= bound

    def test_trace_csv(self, tmp_path, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(1, 1, params)
        out = tmp_path / "trace.csv"
        run_strategy(sample_path(toy_dist, 50, seed=2), spec, trace_out=str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,offset,reward,reset_flag"
        assert len(lines) == 51

    def test_nonzero_risk_aversion_agrees_with_analytic(self, eth_dist):
        params = UtilityParams(a=1.0, kappa=1.0, ell=100.0)
        spec = uniform_strategy(3, 10, params)
        analytic = expected_utility(eth_dist, 3, spec.allocation, params, MODE_FULL)
        path = sample_path(eth_dist, 50_000, seed=31)
        report = run_strategy(path, spec, seed=31)
        assert abs(report.mean_utility_per_step - analytic) <= 3 * report.std_error
