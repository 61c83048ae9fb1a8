import numpy as np
import pytest

from lpreset import (
    MODE_FULL,
    InputError,
    NextPriceDistribution,
    UtilityParams,
    expected_utility,
    landing_law,
    run_strategy,
    sample_path,
    uniform_strategy,
)


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


class TestRunStrategy:
    def test_worked_example_converges_to_analytic(self, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        analytic = expected_utility(toy_dist, 1, spec.allocation, params, MODE_FULL)
        path = sample_path(toy_dist, 50_000, seed=7)
        report = run_strategy(path, spec, seed=7)
        assert abs(report.mean_utility_per_step - analytic) <= 3 * report.std_error

    def test_static_price_never_resets(self):
        d = NextPriceDistribution(1, np.array([0.0, 1.0, 0.0]), 1.0)
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(d, 1, 1, params)
        report = run_strategy(sample_path(d, 200, seed=1), spec, seed=1)
        assert report.resets == 0
        assert report.total_reward == pytest.approx(200 * spec.allocation.weight(0))
        assert report.std_error == pytest.approx(0.0, abs=1e-15)

    def test_single_bin_utility_matches_center_mass(self, eth_dist):
        # all liquidity on the center bin of a 0-width window: per-step mean
        # reward approaches ell * h(0) = 15
        params = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        spec = uniform_strategy(eth_dist, 0, 0, params)
        path = sample_path(eth_dist, 50_000, seed=13)
        report = run_strategy(path, spec, seed=13)
        analytic = expected_utility(eth_dist, 0, spec.allocation, params, MODE_FULL)
        assert abs(report.mean_utility_per_step - analytic) <= 3 * report.std_error
        assert analytic == pytest.approx(100 * eth_dist.prob(0) - (1 - eth_dist.prob(0)))

    def test_reset_frequency_matches_chain(self, eth_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        n_tau = 2
        spec = uniform_strategy(eth_dist, n_tau, 4, params)
        path = sample_path(eth_dist, 50_000, seed=21)
        report = run_strategy(path, spec, seed=21)
        expected_rate = 1.0 / landing_law(eth_dist, n_tau).cycle_length
        observed = report.resets / report.steps
        se = np.sqrt(expected_rate * (1 - expected_rate) / report.steps)
        assert abs(observed - expected_rate) <= 3 * se

    def test_bitwise_reproducible(self, eth_dist):
        params = UtilityParams(a=0.5, kappa=1.0, ell=100.0)
        spec = uniform_strategy(eth_dist, 2, 4, params)
        path = sample_path(eth_dist, 5000, seed=5)
        r1 = run_strategy(path, spec, seed=5)
        r2 = run_strategy(path, spec, seed=5)
        assert r1 == r2
        assert r1.to_json() == r2.to_json()

    def test_trace_csv(self, tmp_path, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        out = tmp_path / "trace.csv"
        run_strategy(sample_path(toy_dist, 50, seed=2), spec, trace_out=str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,offset,reward,reset_flag"
        assert len(lines) == 51

    def test_nonzero_risk_aversion_agrees_with_analytic(self, eth_dist):
        params = UtilityParams(a=1.0, kappa=1.0, ell=100.0)
        spec = uniform_strategy(eth_dist, 3, 10, params)
        analytic = expected_utility(eth_dist, 3, spec.allocation, params, MODE_FULL)
        path = sample_path(eth_dist, 50_000, seed=31)
        report = run_strategy(path, spec, seed=31)
        assert abs(report.mean_utility_per_step - analytic) <= 3 * report.std_error
