import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lpreset import (
    InputError,
    NumericalError,
    OptimizationProblem,
    UtilityParams,
    kkt_residual,
    projected_gradient_verify,
    solve,
)
from lpreset.markov import build_reset_chain, landing_over
from lpreset.optimizer import _argmax_center_first, project_simplex


def toy_full_problem(toy_dist, a, kappa=1.0, ell=1.0):
    """Full-coverage problem for the three-bin worked example (n_tau = 1)."""
    chain = build_reset_chain(toy_dist, 1)
    js = np.arange(-2, 3)
    q = landing_over(chain, js)
    return OptimizationProblem(
        q=q,
        tau_membership=np.abs(js) <= 1,
        params=UtilityParams(a=a, kappa=kappa, ell=ell),
    )


def random_problem(rng, a, n_alpha=None, kappa=1.0, ell=1.0):
    if n_alpha is None:
        n_alpha = int(rng.integers(1, 21))
    n = 2 * n_alpha + 1
    q = rng.random(n)
    q /= q.sum()
    n_tau = int(rng.integers(0, n_alpha + 1))
    js = np.arange(-n_alpha, n_alpha + 1)
    return OptimizationProblem(
        q=q,
        tau_membership=np.abs(js) <= n_tau,
        params=UtilityParams(a=a, kappa=kappa, ell=ell),
    )


class TestSolve:
    def test_risk_neutral_argmax(self):
        prob = OptimizationProblem(
            q=np.array([0.25, 1 / 3, 0.25]),
            tau_membership=np.array([True, True, True]),
            params=UtilityParams(a=0.0, kappa=1.0, ell=1.0),
        )
        sol = solve(prob)
        np.testing.assert_array_equal(sol.allocation.weights, [0.0, 1.0, 0.0])

    def test_risk_seeking_one_hot(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, a=-1.0)
        sol = solve(prob)
        w = sol.allocation.weights
        assert np.sum(w > 0) == 1
        # vertex optimality: no other vertex does better
        n = len(w)
        for i in range(n):
            vert = np.zeros(n)
            vert[i] = 1.0
            assert sol.objective >= prob.objective(vert) - 1e-12

    def test_argmax_tie_breaks_toward_center_negative_first(self):
        q = np.array([0.3, 0.1, 0.2, 0.1, 0.3])
        prob = OptimizationProblem(
            q=q,
            tau_membership=np.ones(5, bool),
            params=UtilityParams(a=0.0),
        )
        sol = solve(prob)
        assert sol.allocation.weights.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_risk_seeking_tie_breaks_toward_center_negative_first(self):
        # an exact tie in the vertex gain, which n-term objective sums round apart
        prob = OptimizationProblem(
            q=np.array([0.3, 0.2, 0.3]),
            tau_membership=np.ones(3, bool),
            params=UtilityParams(a=-1.0, kappa=1.0, ell=37.0),
        )
        sol = solve(prob)
        assert sol.allocation.weights.tolist() == [1.0, 0.0, 0.0]

    @given(n_alpha=st.integers(0, 6), scale=st.sampled_from([1.0, 1e-300, 1e300]), data=st.data())
    def test_ties_go_centre_first_then_negative(self, n_alpha, scale, data):
        # few levels, so that the maximum is often tied among several bins
        n = 2 * n_alpha + 1
        levels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        values = np.array(levels, dtype=float) * scale
        # the order centre, -1, +1, -2, +2, ...: the first bin at the maximum wins
        order = sorted(range(n), key=lambda i: (abs(i - n_alpha), i > n_alpha))
        want = next(i for i in order if values[i] == values.max())
        assert _argmax_center_first(values, n_alpha) == want

    def test_water_filling_certificate(self, toy_dist):
        sol = solve(toy_full_problem(toy_dist, a=1.0))
        assert sol.method == "water-filling"
        assert sol.kkt_residual < 1e-10

    def test_objective_consistent_with_evaluator(self, toy_dist):
        prob = toy_full_problem(toy_dist, a=1.0)
        sol = solve(prob)
        assert sol.objective == pytest.approx(
            prob.objective(sol.allocation.weights), abs=1e-12
        )

    def test_extreme_risk_aversion_near_uniform_spread(self, eth_dist):
        chain = build_reset_chain(eth_dist, 2)
        js = np.arange(-66, 67)
        prob = OptimizationProblem(
            q=landing_over(chain, js),
            tau_membership=np.abs(js) <= 2,
            params=UtilityParams(a=15.0, kappa=1.0, ell=100.0),
        )
        w = solve(prob).allocation.weights
        assert w.max() - w.min() < 1e-2

    def test_monotone_risk_response(self, eth_dist):
        chain = build_reset_chain(eth_dist, 2)
        js = np.arange(-66, 67)
        q = landing_over(chain, js)
        spreads = []
        for a in (0.0, 0.1, 1.0, 10.0, 15.0):
            prob = OptimizationProblem(
                q=q,
                tau_membership=np.abs(js) <= 2,
                params=UtilityParams(a=a, kappa=1.0, ell=100.0),
            )
            w = solve(prob).allocation.weights
            spreads.append(w.max() - w.min())
        assert all(s1 >= s2 - 1e-12 for s1, s2 in zip(spreads, spreads[1:]))

    def test_zero_q_rejected(self):
        with pytest.raises(InputError):
            OptimizationProblem(
                q=np.zeros(3),
                tau_membership=np.ones(3, bool),
                params=UtilityParams(),
            )

    @pytest.mark.parametrize("q, tau, message", [
        ([0.2, 0.5, 0.3], [True, True], "must be 1-d and share a length"),
        ([0.5, 0.5], [True, True], "bin count must be odd"),
        ([0.2, -0.1, 0.3], [True, True, True], "must be non-negative"),
    ], ids=["shapes_differ", "even_length", "negative_q"])
    def test_malformed_problem_rejected(self, q, tau, message):
        with pytest.raises(InputError, match=message):
            OptimizationProblem(q=np.array(q), tau_membership=np.array(tau),
                                params=UtilityParams())

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_residual_without_an_active_bin_is_the_largest_marginal_utility(self, a):
        prob = OptimizationProblem(q=np.array([0.2, 0.5, 0.3]),
                                   tau_membership=np.ones(3, bool), params=UtilityParams(a=a))
        zero = np.zeros(3)
        assert kkt_residual(prob, zero) == float(np.max(prob.gradient(zero))) > 0.0

    @pytest.mark.parametrize("a", [0.05, 1.0, 12.0])
    def test_feasibility_exact(self, a):
        rng = np.random.default_rng(int(a * 100))
        for _ in range(10):
            sol = solve(random_problem(rng, a))
            w = sol.allocation.weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0.0)


class TestKktResidual:
    def test_water_filling_output_is_stationary(self, toy_dist):
        prob = toy_full_problem(toy_dist, a=2.0)
        sol = solve(prob)
        assert kkt_residual(prob, sol.allocation.weights) < 1e-10

    def test_uniform_on_asymmetric_q_violates(self):
        q = np.array([0.6, 0.3, 0.1])
        prob = OptimizationProblem(
            q=q, tau_membership=np.ones(3, bool), params=UtilityParams(a=1.0, ell=1.0)
        )
        assert kkt_residual(prob, np.full(3, 1 / 3)) > 0.0

    def test_one_hot_at_argmax_is_optimal_for_linear(self):
        q = np.array([0.2, 0.5, 0.3])
        prob = OptimizationProblem(
            q=q, tau_membership=np.ones(3, bool), params=UtilityParams(a=0.0)
        )
        assert kkt_residual(prob, np.array([0.0, 1.0, 0.0])) == 0.0


class TestProjectedGradient:
    def test_matches_water_filling_on_worked_example(self, toy_dist):
        prob = toy_full_problem(toy_dist, a=1.0)
        exact = solve(prob)
        pg = projected_gradient_verify(prob)
        assert abs(pg.objective - exact.objective) < 1e-6

    def test_linear_case_reaches_argmax_vertex(self):
        q = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        prob = OptimizationProblem(
            q=q, tau_membership=np.ones(5, bool), params=UtilityParams(a=0.0, ell=1.0)
        )
        pg = projected_gradient_verify(prob)
        assert abs(pg.objective - q.max() * 1.0) < 1e-9

    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_cross_solver_agreement(self, a):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            prob = random_problem(rng, a)
            exact = solve(prob)
            pg = projected_gradient_verify(prob)
            assert abs(pg.objective - exact.objective) < 1e-6

    def test_negative_a_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InputError):
            projected_gradient_verify(random_problem(rng, a=-1.0))


class TestGradient:
    @pytest.mark.parametrize("a", [0.0, 0.3, 4.0])
    def test_matches_central_differences(self, a):
        rng = np.random.default_rng(77)
        prob = random_problem(rng, a, n_alpha=4)
        w = rng.random(9)
        w /= w.sum()
        g = prob.gradient(w)
        h = 1e-6
        fd = np.empty_like(g)
        for j in range(len(w)):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd[j] = (prob.objective(wp) - prob.objective(wm)) / (2 * h)
        assert np.max(np.abs(fd - g)) / np.max(np.abs(g)) < 1e-5

    @settings(max_examples=300, deadline=None)
    @given(
        n_alpha=st.integers(0, 12),
        data=st.data(),
        kappa=st.sampled_from([1e-300, 1e-3, 1.0, 37.0, 1e150]),
        ell=st.sampled_from([1e-8, 0.01, 1.0, 100.0, 1e150]),
    )
    def test_risk_neutral_is_q_kappa_ell_bit_for_bit(self, n_alpha, data, kappa, ell):
        # u' = 1 at a = 0: exp(-0.0 * c) == 1.0 leaves q * kappa * ell unrounded
        assume((kappa, ell) != (1e-300, 1e-8))  # a product of 1e-308 is refused
        n = 2 * n_alpha + 1
        probs = st.floats(0.0, 1.0).map(lambda x: x if x > 0.3 else 0.0)
        q = np.array(data.draw(st.lists(probs, min_size=n, max_size=n)))
        q[n_alpha] += 0.5
        q /= q.sum()
        n_tau = data.draw(st.integers(0, n_alpha))
        w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        w /= max(1.0, w.sum())
        prob = OptimizationProblem(
            q=q,
            tau_membership=np.abs(np.arange(-n_alpha, n_alpha + 1)) <= n_tau,
            params=UtilityParams(a=0.0, kappa=kappa, ell=ell),
        )
        assert prob.gradient(w).tolist() == (q * (kappa * ell)).tolist()


class TestProjectSimplex:
    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=200)
    def test_output_is_feasible(self, values):
        w = project_simplex(np.array(values))
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w >= 0)

    def test_idempotent_on_simplex_points(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-12)

    def test_projection_is_closest_point(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=6)
        p = project_simplex(v)
        for _ in range(200):
            z = rng.random(6)
            z /= z.sum()
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - z) + 1e-12


def reference_projection(v):
    """The projection before it always shifted: of v itself, and of v - max(v)
    only when no entry of v passes the threshold test."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    passing = np.nonzero(u - css / np.arange(1, len(v) + 1) > 0)[0]
    if passing.size == 0:
        shifted = v - v.max()
        if not np.all(np.isfinite(shifted)):
            raise NumericalError("simplex projection of a vector that is not finite")
        return reference_projection(shifted)
    rho = passing[-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


class TestOneProjectionPath:
    """``project_simplex`` always projects v - max(v), which is v where max(v) == 0."""

    @given(
        st.lists(
            st.one_of(st.floats(-1e3, 0.0), st.sampled_from([0.0, -0.0, -0.5, -1.0, -1e-300])),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=300)
    def test_unchanged_bit_for_bit_where_the_max_is_zero(self, values):
        v = np.array(values)
        v = v - v.max()  # the form solve's water-filling hands over: its top entry is 0.0
        assert project_simplex(v).tobytes() == reference_projection(v).tobytes()

    @pytest.mark.parametrize("v", [
        [1e17, 1e17 - 2**12, 5e16, -3.0],
        [2.0**60, 2.0**60, 2.0**60 - 2**9],
        [-1e300, 3e18, 3e18],
    ])
    def test_entries_past_two_to_the_53_project_as_before(self, v):
        v = np.array(v)
        w = project_simplex(v)
        assert w.tobytes() == reference_projection(v).tobytes()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("top", [0.0, 0.5, 1e17])
    def test_nan_or_inf_is_refused_as_before(self, bad, top):
        v = np.array([top, bad, -1.0])
        for project in (project_simplex, reference_projection):
            with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="not finite"):
                project(v)
        with pytest.raises(NumericalError, match="not finite"):
            project_simplex(np.array([-np.inf, -np.inf]))

    @pytest.mark.parametrize("top", [0.0, 0.5])
    def test_minus_inf_entry_gets_nothing_as_before(self, top):
        v = np.array([top, -np.inf, top - 1.0])
        with np.errstate(invalid="ignore"):  # -inf - -inf in the threshold test
            w = project_simplex(v)
            assert w.tobytes() == reference_projection(v).tobytes()
        assert w.tolist() == [1.0, 0.0, 0.0]
