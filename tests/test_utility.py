import math

import numpy as np
import pytest

from lpreset import (
    MODE_FULL,
    MODE_STRICT,
    Allocation,
    InputError,
    NumericalError,
    RangeError,
    UtilityParams,
    build_reset_chain,
    exp_utility,
    expected_utility,
    reward,
)
from lpreset.utility import exp_utility_vec


def uniform_alloc(n_alpha):
    n = 2 * n_alpha + 1
    return Allocation(n_alpha=n_alpha, weights=np.full(n, 1.0 / n))


def brute_force_expected_utility(dist, n_tau, alloc, params, mode):
    """Enumerate every (current bin, landing bin) pair weighted by p(i) h(j-i)."""
    chain = build_reset_chain(dist, n_tau)
    if mode == MODE_STRICT:
        js = range(-alloc.n_alpha, alloc.n_alpha + 1)
    else:
        js = range(-(n_tau + dist.k_max), n_tau + dist.k_max + 1)
    total = 0.0
    for idx, i in enumerate(range(-n_tau, n_tau + 1)):
        for j in js:
            r = params.kappa * params.ell * alloc.weight(j)
            if abs(j) > n_tau:
                r -= 1.0
            total += (
                chain.stationary[idx]
                * dist.prob(j - i)
                * exp_utility(r + params.shift, params)
            )
    return total


class TestExpUtility:
    def test_risk_neutral_identity(self):
        p = UtilityParams(a=0.0)
        for c in (-3.0, 0.0, 17.2):
            assert exp_utility(c, p) == c

    def test_zero_consumption(self):
        for a in (-2.0, 0.5, 15.0):
            assert exp_utility(0.0, UtilityParams(a=a)) == 0.0

    def test_unit_values(self):
        assert exp_utility(1.0, UtilityParams(a=1.0)) == pytest.approx(
            1.0 - math.exp(-1.0)
        )

    def test_continuous_in_a_at_zero(self):
        c = 2.5
        assert exp_utility(c, UtilityParams(a=1e-10)) == pytest.approx(c, rel=1e-6)

    @pytest.mark.parametrize("a", [1e-20, -1e-20, 1e-300])
    def test_tiny_a_keeps_every_digit(self, a):
        params = UtilityParams(a=a)
        assert exp_utility(2.5, params) == pytest.approx(2.5, rel=1e-15)
        np.testing.assert_allclose(
            exp_utility_vec(np.array([2.5, 0.5]), params), [2.5, 0.5], rtol=1e-15
        )

    def test_strictly_increasing(self):
        p = UtilityParams(a=3.0)
        values = [exp_utility(c, p) for c in np.linspace(-2, 5, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_overflow_raises(self):
        with pytest.raises(NumericalError, match="overflow"):
            exp_utility(800.0, UtilityParams(a=-1.0))


class TestReward:
    def test_worked_example_center(self):
        p = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        assert reward(uniform_alloc(1), 0, 1, p) == pytest.approx(1 / 3)

    def test_unallocated_bin_inside_window(self):
        alloc = Allocation(1, np.array([0.5, 0.0, 0.5]))
        assert reward(alloc, 0, 1, UtilityParams()) == 0.0

    def test_reset_fee_outside_window(self):
        alloc = Allocation(1, np.array([0.2, 0.6, 0.2]))
        p = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        assert reward(alloc, 1, 0, p) == pytest.approx(19.0)

    def test_outside_alpha_raises(self):
        with pytest.raises(RangeError):
            reward(uniform_alloc(1), 2, 1, UtilityParams())


class TestExpectedUtility:
    def test_worked_example_strict(self, toy_dist):
        p = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        value = expected_utility(toy_dist, 1, uniform_alloc(1), p, MODE_STRICT)
        assert value == pytest.approx(5 / 18, abs=1e-12)

    def test_worked_example_full_coverage(self, toy_dist):
        p = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        value = expected_utility(toy_dist, 1, uniform_alloc(1), p, MODE_FULL)
        assert value == pytest.approx(5 / 18 - 1 / 6, abs=1e-12)

    def test_zero_allocation_is_zero_strict(self, toy_dist):
        alloc = Allocation(1, np.zeros(3))
        p = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        assert expected_utility(toy_dist, 1, alloc, p, MODE_STRICT) == 0.0

    @pytest.mark.parametrize("a", [1e-20, -1e-20])
    def test_tiny_risk_aversion_is_the_shifted_risk_neutral_value(self, eth_dist, a):
        # a != 0 adds the reward shift of 1; full coverage sums q to 1
        alloc = uniform_alloc(5)
        tiny = expected_utility(eth_dist, 2, alloc, UtilityParams(a=a), MODE_FULL)
        neutral = expected_utility(eth_dist, 2, alloc, UtilityParams(a=0.0), MODE_FULL)
        assert tiny == pytest.approx(neutral + 1.0, rel=1e-12)

    def test_unknown_mode_rejected(self, toy_dist):
        with pytest.raises(InputError):
            expected_utility(toy_dist, 1, uniform_alloc(1), UtilityParams(), "other")

    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_FULL])
    @pytest.mark.parametrize("a", [0.0, 0.7, -0.4])
    def test_matches_brute_force_enumeration(self, five_dist, mode, a):
        params = UtilityParams(a=a, kappa=1.3, ell=2.0)
        rng = np.random.default_rng(5)
        for n_tau in (0, 1, 2):
            for n_alpha in (0, 1, 3):
                w = rng.random(2 * n_alpha + 1)
                alloc = Allocation(n_alpha, w / w.sum())
                got = expected_utility(five_dist, n_tau, alloc, params, mode)
                want = brute_force_expected_utility(
                    five_dist, n_tau, alloc, params, mode
                )
                assert got == pytest.approx(want, abs=1e-12)

    def test_linearity_at_risk_neutrality(self, five_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=10.0)
        rng = np.random.default_rng(9)
        w1 = rng.random(5)
        w2 = rng.random(5)
        a1 = Allocation(2, w1 / w1.sum())
        a2 = Allocation(2, w2 / w2.sum())
        lam = 0.37
        mix = Allocation(2, lam * a1.weights + (1 - lam) * a2.weights)
        e_mix = expected_utility(five_dist, 1, mix, params, MODE_FULL)
        e_lin = lam * expected_utility(
            five_dist, 1, a1, params, MODE_FULL
        ) + (1 - lam) * expected_utility(five_dist, 1, a2, params, MODE_FULL)
        assert e_mix == pytest.approx(e_lin, abs=1e-12)

    def test_concavity_for_risk_averse(self, five_dist):
        params = UtilityParams(a=2.0, kappa=1.0, ell=3.0)
        rng = np.random.default_rng(21)
        for _ in range(50):
            w1 = rng.random(5)
            w2 = rng.random(5)
            a1 = Allocation(2, w1 / w1.sum())
            a2 = Allocation(2, w2 / w2.sum())
            mid = Allocation(2, 0.5 * (a1.weights + a2.weights))
            e_mid = expected_utility(five_dist, 1, mid, params, MODE_FULL)
            e_avg = 0.5 * (
                expected_utility(five_dist, 1, a1, params, MODE_FULL)
                + expected_utility(five_dist, 1, a2, params, MODE_FULL)
            )
            assert e_mid >= e_avg - 1e-12

    @pytest.mark.parametrize("a", [0.0, 1.5, -0.5])
    def test_monotone_in_reachable_weight(self, five_dist, a):
        params = UtilityParams(a=a, kappa=1.0, ell=2.0)
        base = Allocation(2, np.array([0.1, 0.2, 0.3, 0.1, 0.1]))
        bumped = Allocation(2, np.array([0.1, 0.2, 0.4, 0.1, 0.1]))
        e0 = expected_utility(five_dist, 1, base, params, MODE_FULL)
        e1 = expected_utility(five_dist, 1, bumped, params, MODE_FULL)
        assert e1 > e0


class TestAllocation:
    def test_weight_lookup_and_outside(self):
        alloc = Allocation(1, np.array([0.2, 0.5, 0.3]))
        assert alloc.weight(-1) == 0.2
        assert alloc.weight(5) == 0.0

    def test_negative_weights_rejected(self):
        with pytest.raises(InputError):
            Allocation(1, np.array([-0.1, 0.6, 0.5]))

    def test_overfull_rejected(self):
        with pytest.raises(InputError):
            Allocation(1, np.array([0.5, 0.6, 0.5]))
