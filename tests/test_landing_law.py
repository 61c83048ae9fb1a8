"""The closed-form landing law and sort-based solve against the code they replaced.

``reference_stationary`` is the old normalization-row solve with its
power-iteration fallback, ``reference_landing`` the old dense landing path
(one h lookup per (i, j) pair), ``reference_water_filling`` the old
bisection on the log multiplier and ``reference_vertex_objectives`` the old
a <= 0 enumeration of every vertex's objective. The new code must agree with
them to a few ulps: it solves the same equations in a different order.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lpreset import (
    MODE_FULL,
    MODE_STRICT,
    Allocation,
    InputError,
    NextPriceDistribution,
    NumericalError,
    OptimizationProblem,
    UtilityParams,
    build_reset_chain,
    expected_utility,
    kkt_residual,
    landing_law,
    optimal_strategy,
    run_strategy,
    sample_path,
    solve,
    stationary_distribution,
    uniform_strategy,
)
from lpreset.simulate import execute
from lpreset.utility import exp_utility, landing_rewards

from conftest import dists, make_eth_like

SOLVE_TOL = 1e-10  # solve()'s default KKT tolerance


def reference_stationary(M, max_iters=100_000):
    n = M.shape[0]
    A = M.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        p = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        p = np.full(n, np.nan)

    def valid(p):
        if not np.all(np.isfinite(p)) or np.any(p < -1e-12) or abs(p.sum() - 1) > 1e-9:
            return False
        p = np.maximum(p, 0.0)
        return float(np.max(np.abs(p @ M - p))) < 1e-10

    if not valid(p):
        p = np.full(n, 1.0 / n)
        for _ in range(max_iters):
            nxt = p @ M
            if np.max(np.abs(nxt - p)) < 1e-11:
                p = nxt
                break
            p = nxt
        p = np.maximum(p, 0.0)
        p /= p.sum()
    return p


def reference_landing(dist, p, n_tau, js):
    i = np.arange(-n_tau, n_tau + 1)[:, None]
    return p @ dist.prob_array(np.asarray(js)[None, :] - i)


def reference_water_filling(problem):
    p = problem.params
    a, scale = p.a, p.kappa * p.ell
    s = np.where(problem.tau_membership, p.shift, p.shift - 1.0)
    with np.errstate(divide="ignore"):
        top = np.log(problem.q * scale) - a * s
        # the same logs taken relative to the largest: near a * scale = 1e-3
        # the absolute ones (about -7) round weights by up to 1e-12 each
        m = int(np.argmax(top))
        top = np.log(problem.q / problem.q[m]) - a * (s - s[m])
    top[problem.q == 0.0] = -np.inf

    def weights_at(log_lam):
        return np.maximum(0.0, (top - log_lam) / (a * scale))

    hi = float(np.max(top))
    lo = hi - a * scale * (1.0 + 1.0 / (a * scale))
    assert weights_at(lo).sum() >= 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        total = weights_at(mid).sum()
        if abs(total - 1.0) < 1e-14:
            hi = lo = mid
            break
        if total > 1.0:
            lo = mid
        else:
            hi = mid
    w = weights_at(0.5 * (lo + hi))
    return w / w.sum()


def reference_vertex_objectives(problem):
    """The objective of each one-hot allocation, one full evaluation each."""
    return np.array([problem.objective(vertex) for vertex in np.eye(problem.q.shape[0])])


@st.composite
def vertex_problems(draw):
    """Problems for a <= 0: q with exact zeros and, half the time, exact mirror ties."""
    n_alpha = draw(st.integers(0, 12))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    half = np.array(draw(st.lists(weight, min_size=n_alpha, max_size=n_alpha)))
    center = draw(weight)
    right = half[::-1] if draw(st.booleans()) else np.array(
        draw(st.lists(weight, min_size=n_alpha, max_size=n_alpha))
    )
    q = np.concatenate([half, [center], right])
    assume(q.sum() > 0.0)
    n_tau = draw(st.integers(0, n_alpha))
    params = UtilityParams(
        a=draw(st.floats(-5.0, 0.0)), kappa=1.0, ell=draw(st.floats(0.01, 100.0))
    )
    js = np.arange(-n_alpha, n_alpha + 1)
    return OptimizationProblem(q=q / q.sum(), tau_membership=np.abs(js) <= n_tau, params=params)


def no_move(dist):
    return dist.prob(0) == 1.0


RISKS = [-1.0, 0.0, 0.1, 15.0, 100.0]
SCALES = st.sampled_from([0.01, 1.0, 37.0, 100.0, 1e4])


class TestLandingLaw:
    @settings(max_examples=300, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 12))
    def test_convolution_equals_dense_landing(self, dist, n_tau):
        law = landing_law(dist, n_tau)
        js = np.arange(-law.reach, law.reach + 1)
        assert law.reach == n_tau + dist.k_max
        dense = reference_landing(dist, law.stationary, n_tau, js)
        assert np.max(np.abs(law.q - dense)) <= 1e-14
        assert law.q.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 12))
    def test_stationary_is_a_fixed_point_on_the_simplex(self, dist, n_tau):
        law = landing_law(dist, n_tau)
        chain = build_reset_chain(dist, n_tau)
        p = law.stationary
        assert np.array_equal(chain.stationary, p)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(p @ chain.M - p)) <= 1e-12
        if not no_move(dist):
            # the old solve agrees wherever its fixed point is unique
            assert np.max(np.abs(p - reference_stationary(chain.M))) <= 1e-10
            assert np.max(np.abs(stationary_distribution(chain.M) - p)) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 12), n_alpha=st.integers(0, 16),
           a=st.sampled_from(RISKS), scale=SCALES)
    def test_expected_utility_equals_dense_path(self, dist, n_tau, n_alpha, a, scale):
        assume(not no_move(dist))
        params = UtilityParams(a=a, kappa=1.0, ell=scale)
        alloc = uniform_strategy(dist, n_tau, n_alpha, params).allocation
        p = reference_stationary(build_reset_chain(dist, n_tau).M)
        law = landing_law(dist, n_tau)
        for mode, n in ((MODE_STRICT, n_alpha), (MODE_FULL, law.reach)):
            js = np.arange(-n, n + 1)
            rewards = landing_rewards(alloc.over(n), np.abs(js) > n_tau, params)
            try:
                u = exp_utility(rewards + params.shift, params)
            except NumericalError:
                with pytest.raises(NumericalError):
                    expected_utility(dist, n_tau, alloc, params, mode)
                continue
            want = float(reference_landing(dist, p, n_tau, js) @ u)
            got = expected_utility(dist, n_tau, alloc, params, mode)
            # q differs from the old q by rounding, at most 1e-14 a bin
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14 * np.max(np.abs(u)))
            assert got == expected_utility(dist, n_tau, alloc, params, mode, law=law)

    def test_point_mass_never_resets(self):
        d = NextPriceDistribution(3, np.array([0, 0, 0, 1.0, 0, 0, 0]), 1.0)
        for n_tau in (0, 1, 5):
            law = landing_law(d, n_tau)
            center = np.zeros(2 * n_tau + 1)
            center[n_tau] = 1.0
            assert np.array_equal(law.stationary, center)
            assert law.cycle_length == math.inf
            assert law.q.tolist() == [float(j == 0) for j in range(-law.reach, law.reach + 1)]

    @pytest.mark.parametrize("n_tau", [0, 2, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cycle_length_is_the_mean_time_between_resets(self, n_tau, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random(9) * (rng.random(9) > 0.3)
        probs[4] += 0.5
        dist = make_eth_like() if seed == 0 else NextPriceDistribution(4, probs / probs.sum(), 1.0)
        spec = uniform_strategy(dist, n_tau, n_tau, UtilityParams())
        steps, batches = 100_000, 50
        path = sample_path(dist, steps, seed=seed + 17)
        report = run_strategy(path, spec, seed=seed)
        flags = np.abs(execute(path, n_tau)) > n_tau
        assert int(flags.sum()) == report.resets
        # the reset flags are correlated, so the SE comes from batch means
        se = flags.reshape(batches, -1).mean(axis=1).std(ddof=1) / math.sqrt(batches)
        rate = 1.0 / landing_law(dist, n_tau).cycle_length
        assert abs(report.resets / steps - rate) <= 5 * se

    def test_over_pads_beyond_the_reach(self, toy_dist):
        law = landing_law(toy_dist, 1)
        assert law.over(0).tolist() == [law.q[2]]
        assert law.over(4).tolist() == [0.0, 0.0, *law.q.tolist(), 0.0, 0.0]

    def test_law_for_another_window_is_rejected(self, toy_dist):
        law = landing_law(toy_dist, 1)
        alloc = Allocation(n_alpha=1, weights=np.full(3, 1 / 3))
        with pytest.raises(InputError):
            expected_utility(toy_dist, 2, alloc, UtilityParams(), law=law)
        with pytest.raises(InputError):
            optimal_strategy(toy_dist, 2, UtilityParams(a=1.0), law=law)


class TestStationaryDistribution:
    def test_reducible_matrix_without_unique_fixed_point_raises(self):
        with pytest.raises(NumericalError):
            stationary_distribution(np.eye(3))
        block = np.zeros((4, 4))
        block[:2, :2] = 0.5
        block[2:, 2:] = [[0.3, 0.7], [0.6, 0.4]]
        with pytest.raises(NumericalError):
            stationary_distribution(block)

    def test_transient_states_get_zero_mass(self):
        M = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        np.testing.assert_allclose(stationary_distribution(M), [0.0, 0.5, 0.5], atol=1e-15)


class TestSortWaterFilling:
    @settings(max_examples=300, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 12),
           a=st.sampled_from([a for a in RISKS if a > 0]), scale=SCALES)
    def test_equals_bisection(self, dist, n_tau, a, scale):
        law = landing_law(dist, n_tau)
        js = np.arange(-law.reach, law.reach + 1)
        problem = OptimizationProblem(
            q=law.q,
            tau_membership=np.abs(js) <= n_tau,
            params=UtilityParams(a=a, kappa=1.0, ell=scale),
        )
        sol = solve(problem)
        w = sol.allocation.weights
        assert np.max(np.abs(w - reference_water_filling(problem))) <= 1e-12
        assert sol.kkt_residual <= SOLVE_TOL
        assert kkt_residual(problem, w) == sol.kkt_residual
        assert sol.iterations == np.count_nonzero(w)
        assert np.all(w[law.q == 0.0] == 0.0)


class TestVertexRule:
    @settings(max_examples=500, deadline=None)
    @given(problem=vertex_problems())
    def test_equals_enumeration(self, problem):
        sol = solve(problem)
        w = sol.allocation.weights
        assert np.count_nonzero(w) == 1 and w.sum() == 1.0
        values = reference_vertex_objectives(problem)
        best = float(values.max())
        tol = 1e-12 * float(np.max(np.abs(values)))
        assert sol.objective >= best - tol
        assert sol.objective == values[np.argmax(w)]
        if np.sum(values >= best - tol) == 1:  # a unique best vertex
            assert np.argmax(w) == np.argmax(values)
        assert (sol.method, sol.iterations) == ("vertex-enumeration", w.shape[0])
