import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lpreset import (
    MODE_FULL,
    MODE_STRICT,
    Allocation,
    InputError,
    NumericalError,
    OptimizationProblem,
    StrategySpec,
    UtilityParams,
    build_reset_chain,
    exp_utility,
    expected_utility,
    landing_law,
    sample_path,
)
from lpreset.distribution import at_offsets, centred
from lpreset.markov import landing_over
from lpreset.simulate import execute, payoffs
from lpreset.utility import expected_utilities, landing_rewards

from conftest import dists


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
            exp_utility(np.array([2.5, 0.5]), params), [2.5, 0.5], rtol=1e-15
        )

    def test_strictly_increasing(self):
        p = UtilityParams(a=3.0)
        values = [exp_utility(c, p) for c in np.linspace(-2, 5, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_overflow_raises(self):
        with pytest.raises(NumericalError, match="overflow"):
            exp_utility(800.0, UtilityParams(a=-1.0))

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_risk_neutral_is_c_bit_for_bit(self):
        # at a = 0 every a*c underflows, so the one formula hands back c itself
        p = UtilityParams(a=0.0)
        c = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.5, -1.0, 1e-310, 3e-17])
        for x in c.tolist():
            u = exp_utility(x, p)
            assert type(u) is float and np.float64(u).tobytes() == np.float64(x).tobytes()
            assert np.float64(exp_utility(np.array(x), p)).tobytes() == np.float64(x).tobytes()
        for shaped in (c, c.reshape(2, 5), c.reshape(5, 1, 2)):
            u = exp_utility(shaped, p)
            assert u.shape == shaped.shape and u.tobytes() == shaped.tobytes()
            assert not np.shares_memory(u, shaped)

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    def test_huge_a_saturates_at_one_over_a(self):
        # a*c overflows to inf for every c > 1: u is its limit 1/a, and u(0) = 0
        c = np.array([0.0, 0.5, 2.0, 101.0])
        u = exp_utility(c, UtilityParams(a=1e308))
        assert u.tolist() == [0.0, 1e-308, 1e-308, 1e-308]
        with pytest.raises(NumericalError, match="overflow"):
            exp_utility(c, UtilityParams(a=-1e308))


class TestReward:
    def test_worked_example_center(self):
        p = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        assert landing_rewards(uniform_alloc(1).over(0), [False], p).tolist() == [
            pytest.approx(1 / 3)
        ]

    def test_unallocated_bin_inside_window(self):
        alloc = Allocation(1, np.array([0.5, 0.0, 0.5]))
        assert landing_rewards(alloc.over(0), [False], UtilityParams()).tolist() == [0.0]

    def test_reset_fee_outside_window(self):
        alloc = Allocation(1, np.array([0.2, 0.6, 0.2]))
        p = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        rewards = landing_rewards(alloc.over(1), [True, False, True], p)
        assert rewards.tolist() == pytest.approx([19.0, 60.0, 19.0])

    def test_fee_applies_across_leading_axes(self):
        weights = np.array([[0.25, 0.5, 0.25], [0.0, 1.0, 0.0]])
        resets = np.array([True, False, True])
        p = UtilityParams(a=0.0, kappa=2.0, ell=10.0)
        rewards = landing_rewards(weights, resets, p)
        assert rewards.tolist() == [[4.0, 10.0, 4.0], [-1.0, 20.0, -1.0]]


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


class TestUtilityParams:
    @pytest.mark.parametrize("ell", [0.0, -0.0, -1.0])
    def test_liquidity_that_is_not_positive_rejected(self, ell):
        with pytest.raises(InputError, match="ell must be > 0"):
            UtilityParams(ell=ell)


class TestAllocation:
    def test_weight_lookup_and_outside(self):
        alloc = Allocation(1, np.array([0.2, 0.5, 0.3]))
        assert alloc.weight(-1) == 0.2
        assert alloc.weight(5) == 0.0

    def test_negative_weights_rejected(self):
        with pytest.raises(InputError):
            Allocation(1, np.array([-0.1, 0.6, 0.5]))

    @pytest.mark.parametrize("n_alpha, weights, message", [
        (-1, [], "n_alpha must be >= 0, got -1"),
        (1, [0.5, 0.5], r"weights must have length 3, got \(2,\)"),
        (0, [0.2, 0.5, 0.3], r"weights must have length 1, got \(3,\)"),
    ], ids=["negative_window", "too_few_weights", "too_many_weights"])
    def test_window_and_weights_that_disagree_rejected(self, n_alpha, weights, message):
        with pytest.raises(InputError, match=message):
            Allocation(n_alpha, np.array(weights))

    def test_overfull_rejected(self):
        with pytest.raises(InputError, match=r"sum to 1\.6 > 1$"):  # a float, not np.float64(1.6)
            Allocation(1, np.array([0.5, 0.6, 0.5]))

    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_over_slices_inside_and_pads_beyond_b_alpha(self, n):
        alloc = Allocation(3, np.arange(1.0, 8.0) / 28.0)
        assert alloc.over(n).tolist() == [alloc.weight(j) for j in range(-n, n + 1)]


@st.composite
def allocations(draw, max_n_alpha=20):
    """Random A over B_alpha with exact zero bins, summing to 0, 1/2 or 1."""
    n_alpha = draw(st.integers(0, max_n_alpha))
    raw = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
        min_size=2 * n_alpha + 1, max_size=2 * n_alpha + 1,
    )))
    total = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return Allocation(n_alpha, raw / raw.sum() * total if raw.sum() > 0 else raw)


RULE_RISKS = st.sampled_from([-1.0, -1e-6, 0.0, 1e-20, 0.1, 15.0])


class TestOnePayoffRule:
    """Every caller prices a landing by ``landing_rewards``, so they agree exactly."""

    @settings(max_examples=300, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 12), alloc=allocations(), a=RULE_RISKS,
           ell=st.sampled_from([0.01, 1.0, 37.0, 100.0]))
    def test_objective_is_full_coverage_expected_utility(self, dist, n_tau, alloc, a, ell):
        params = UtilityParams(a=a, ell=ell)
        law = landing_law(dist, n_tau)
        js = np.arange(-law.reach, law.reach + 1)
        problem = OptimizationProblem(q=law.q, tau_membership=np.abs(js) <= n_tau, params=params)
        got = problem.objective(alloc.over(law.reach))
        assert got == expected_utilities(law, [alloc], params, MODE_FULL)[0]

    @settings(max_examples=300, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 12), alloc=allocations(), a=RULE_RISKS,
           steps=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           stretch=st.sampled_from([1, 3, 10**9]))
    def test_payoffs_price_each_step_at_its_own_offset(
        self, dist, n_tau, alloc, a, steps, seed, stretch
    ):
        params = UtilityParams(a=a)
        spec = StrategySpec("custom", n_tau, alloc, params)
        js = execute(sample_path(dist, steps, seed) * stretch, n_tau)
        rows, *tables = payoffs(js, spec, params.shift)
        rewards, utilities, resets = (table[rows] for table in tables)
        own = landing_rewards([alloc.weight(j) for j in js.tolist()], np.abs(js) > n_tau, params)
        assert rewards.tolist() == own.tolist()
        assert resets.tolist() == (np.abs(js) > n_tau).tolist()
        assert utilities.tolist() == [exp_utility(r + params.shift, params) for r in own.tolist()]


def half_widths(m):
    """n = 0, and n below, at and above a stored half-width m."""
    return st.one_of(st.just(0), st.integers(0, m), st.just(m), st.integers(m + 1, m + 10))


def reference_centred(values, n):
    """v(j) for |j| <= n by a dict lookup, 0.0 where v is not stored."""
    m = (len(values) - 1) // 2
    stored = {j: float(values[j + m]) for j in range(-m, m + 1)}
    return [stored.get(j, 0.0) for j in range(-n, n + 1)]


class TestOneWindowReader:
    """Every zero-padding read of a centred vector is ``distribution.centred``."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.integers(0, 12).flatmap(lambda m: st.lists(
               st.floats(-1e3, 1e3), min_size=2 * m + 1, max_size=2 * m + 1)),
           data=st.data())
    def test_centred_equals_a_dict_lookup_and_never_aliases(self, values, data):
        values = np.array(values)
        n = data.draw(half_widths((len(values) - 1) // 2))
        got = centred(values, n)
        assert got.tolist() == reference_centred(values, n)
        assert not np.shares_memory(got, values)

    @settings(max_examples=200, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 6), alloc=allocations(), data=st.data())
    def test_readers_equal_centred(self, dist, n_tau, alloc, data):
        law = landing_law(dist, n_tau)
        n = data.draw(half_widths(law.reach))
        assert law.over(n).tolist() == centred(law.q, n).tolist()
        js = np.arange(-n, n + 1)
        chain = build_reset_chain(dist, n_tau)
        assert landing_over(chain, js).tolist() == centred(law.q, n).tolist()
        n = data.draw(half_widths(dist.k_max))
        assert at_offsets(dist.probs, np.arange(-n, n + 1)).tolist() == centred(dist.probs, n).tolist()
        n = data.draw(half_widths(alloc.n_alpha))
        assert alloc.over(n).tolist() == centred(alloc.weights, n).tolist()

    @settings(max_examples=100, deadline=None)
    @given(dist=dists(), ks=st.lists(st.integers(-(10**12), 10**12), max_size=20))
    def test_arbitrary_offsets_read_as_their_scalar_view(self, dist, ks):
        # offsets far past the support allocate nothing of their size
        assert at_offsets(dist.probs, np.array(ks, dtype=np.int64)).tolist() == [dist.prob(k) for k in ks]


SAFE_C = st.floats(-40.0, 600.0)  # -a*c <= 600 for every a of FORM_RISKS
FORM_RISKS = [-1.0, 0.0, 1e-12, 0.1, 15.0]


class TestOneUtilityForm:
    """``exp_utility`` of an array is ``exp_utility`` of each element, bit for bit."""

    @pytest.mark.parametrize("a", FORM_RISKS)
    @settings(max_examples=200, deadline=None)
    @given(c=st.lists(st.one_of(SAFE_C, st.floats(-1e-12, 1e-12)), max_size=40))
    @example(c=[0.0, -0.0, 1e-300, -5e-324])
    def test_array_equals_each_element_bit_for_bit(self, a, c):
        params = UtilityParams(a=a)
        u = exp_utility(np.array(c), params)
        each = [exp_utility(x, params) for x in c]
        assert all(type(v) is float for v in each)
        assert u.dtype == np.float64
        assert u.view(np.int64).tolist() == np.array(each).view(np.int64).tolist()

    @pytest.mark.parametrize("a", [a for a in FORM_RISKS if a != 0.0])
    @settings(max_examples=100, deadline=None)
    @given(excess=st.floats(1.0, 1e6), safe=st.lists(SAFE_C, max_size=10), at=st.integers(0, 10))
    def test_both_forms_raise_the_same_overflow(self, a, excess, safe, at):
        params = UtilityParams(a=a)
        bad = -(700.0 + excess) / a
        with pytest.raises(NumericalError) as scalar:
            exp_utility(bad, params)
        c = safe[:at] + [bad] + safe[at:]
        with pytest.raises(NumericalError) as array:
            exp_utility(np.array(c), params)
        assert str(array.value) == str(scalar.value)
        assert str(scalar.value) == f"exp_utility overflow: a={a}, c={bad}"

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
    @pytest.mark.parametrize("a, kappa", [(-1e-306, 1e308), (-1e-306, 1e307), (-1e-300, 1e302)])
    def test_division_that_overflows_is_refused(self, a, kappa):
        # -a*c is at most about 100, well inside the exp guard, but expm1(-a c) / a
        # passes the float range at a tiny a < 0
        params = UtilityParams(a=a, kappa=kappa, ell=1.0)
        c = np.array([1.0, kappa + 1.0])
        with pytest.raises(NumericalError) as array:
            exp_utility(c, params)
        with pytest.raises(NumericalError) as scalar:
            exp_utility(kappa + 1.0, params)
        assert str(array.value) == str(scalar.value)
        assert str(scalar.value) == f"exp_utility overflow: a={a}, c={kappa + 1.0}"
        assert exp_utility(1.0, params) == pytest.approx(1.0)

    @pytest.mark.parametrize("a", [1e-306, -1e-306, 1e-300, -1e-300])
    def test_underflowing_a_times_c_gives_c(self, a):
        # a*c below the smallest normal float: -expm1(-a c) / a would read 0 or
        # lose digits, while u = c(1 - a c / 2 + ...) is c to the last bit
        params = UtilityParams(a=a, kappa=1.0, ell=1.0)
        c = np.array([2e-201, -3e-250, 1e-310, 0.0, 1.0])
        u = exp_utility(c, params)
        assert u[:4].tolist() == c[:4].tolist()
        assert [exp_utility(x, params) for x in c[:4].tolist()] == c[:4].tolist()
        assert u[4] == exp_utility(1.0, params)

    def test_payoffs_overflow_does_not_depend_on_the_path(self, toy_dist):
        # the whole table is evaluated, so an offset no step lands on still
        # overflows, as it does in E_u
        params = UtilityParams(a=-1.0, ell=1000.0)
        spec = StrategySpec("custom", 0, Allocation(5, np.eye(11)[10]), params)
        with pytest.raises(NumericalError, match="overflow"):
            payoffs(np.array([1, -1, 0]), spec, params.shift)
        with pytest.raises(NumericalError, match="overflow"):
            expected_utility(toy_dist, 0, spec.allocation, params, MODE_STRICT)
