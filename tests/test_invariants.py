"""Acceptance criteria 5, 7 and 9 as properties over random h.

``tests/test_acceptance.py`` checks them on fixtures; here h is random, with
exact zero bins, and the problems are the real ones ``optimal_strategy``
solves: the landing law q of ``landing_law(dist, n_tau)`` over B_alpha, its
full reach or a window that may stop short of it or pass it. Risk aversion
is 0 or at least 1e-6, and for criterion 7 also down to 1e-30: for
a*kappa*ell below about 1e-15 the water-filling inputs exceed 2**53, which
``project_simplex`` handles by translation. Below 1e-6 a
utility from ``exp_utility`` is only accurate to about 1e-16/a, so there
the two solutions are compared by an exact objective.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpreset import (
    MODE_FULL,
    MODE_STRICT,
    InputError,
    OptimizationProblem,
    UtilityParams,
    expected_utility,
    landing_law,
    optimal_strategy,
    projected_gradient_verify,
    proportional_strategy,
    solve,
    uniform_strategy,
)
from lpreset.distribution import centred

from conftest import dists

RISK = st.one_of(st.just(0.0), st.floats(1e-6, 100.0))
TINY_RISK = st.floats(1e-30, 1e-6)
SCALE = st.sampled_from([0.5, 1.0, 37.0, 100.0])
# B_alpha: the reach (None), or a window that may stop short of the reach or pass it
WINDOW = st.one_of(st.none(), st.integers(0, 14))


def landing_problem(dist, n_tau, params, n_alpha=None):
    """The problem ``optimal_strategy`` solves for these windows."""
    law = landing_law(dist, n_tau)
    n = law.reach if n_alpha is None else n_alpha
    js = np.arange(-n, n + 1)
    return OptimizationProblem(q=law.over(n), tau_membership=np.abs(js) <= n_tau, params=params)


def exact_objective(problem, weights):
    """E_u by -expm1(-a c)/a, which keeps its digits as a goes to 0 (a > 0)."""
    p = problem.params
    c = p.kappa * p.ell * weights + p.shift - ~problem.tau_membership
    return float(problem.q @ (-np.expm1(-p.a * c) / p.a))


class TestCriterion7:
    @settings(max_examples=60, deadline=None)
    @given(dist=dists(max_k=5), n_tau=st.integers(0, 5), n_alpha=WINDOW,
           a=st.one_of(RISK, TINY_RISK), ell=SCALE)
    def test_solve_is_certified_by_projected_gradient(self, dist, n_tau, n_alpha, a, ell):
        params = UtilityParams(a=a, kappa=1.0, ell=ell)
        try:
            problem = landing_problem(dist, n_tau, params, n_alpha)
        except InputError:  # the landing law has no mass over B_alpha
            with pytest.raises(InputError, match="zero mass over B_alpha"):
                optimal_strategy(landing_law(dist, n_tau), params, n_alpha)
            return
        sol = solve(problem)
        assert sol.kkt_residual <= 1e-8
        check = projected_gradient_verify(problem)
        if a == 0.0 or a >= 1e-6:
            assert abs(sol.objective - check.objective) <= 1e-6
        else:
            w, w_check = sol.allocation.weights, check.allocation.weights
            assert exact_objective(problem, w) >= exact_objective(problem, w_check) - 1e-12
        spec, _ = optimal_strategy(landing_law(dist, n_tau), params, n_alpha)
        assert np.array_equal(spec.allocation.weights, sol.allocation.weights)


class TestCriterion9:
    @settings(max_examples=150, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 8), n_alpha=st.integers(0, 16))
    def test_landing_deficit_is_the_mass_beyond_b_alpha(self, dist, n_tau, n_alpha):
        law = landing_law(dist, n_tau)
        deficit = 1.0 - law.over(n_alpha).sum()
        starts = np.arange(-n_tau, n_tau + 1)
        beyond = [
            sum(dist.prob(j - i) for j in range(-law.reach, law.reach + 1) if abs(j) > n_alpha)
            for i in starts
        ]
        assert abs(deficit - law.stationary @ np.array(beyond)) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 8), n_alpha=st.integers(0, 16), a=RISK)
    def test_every_constructor_lands_on_the_simplex(self, dist, n_tau, n_alpha, a):
        params = UtilityParams(a=a, kappa=1.0, ell=100.0)
        law = landing_law(dist, n_tau)
        specs = [uniform_strategy(n_tau, n_alpha, params)]
        specs.append(optimal_strategy(law, params)[0])
        if law.over(n_alpha).sum() > 0.0:
            specs.append(optimal_strategy(law, params, n_alpha)[0])
        if centred(dist.probs, n_alpha).sum() > 0.0:
            specs.append(proportional_strategy(dist, params, n_tau, n_alpha))
        else:  # h has no mass over B_alpha
            with pytest.raises(InputError):
                proportional_strategy(dist, params, n_tau, n_alpha)
        for spec in specs:
            w = spec.allocation.weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0.0)


class TestCriterion5:
    @settings(max_examples=150, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 8), n_alpha=st.integers(0, 20),
           a=st.one_of(st.sampled_from([-1.0, 0.0]), st.floats(1e-6, 15.0)), ell=SCALE,
           mode=st.sampled_from([MODE_STRICT, MODE_FULL]))
    def test_optimal_dominates_on_the_same_windows(self, dist, n_tau, n_alpha, a, ell, mode):
        params = UtilityParams(a=a, kappa=1.0, ell=ell)
        law = landing_law(dist, n_tau)
        if law.over(n_alpha).sum() == 0.0:
            with pytest.raises(InputError, match="zero mass over B_alpha"):
                optimal_strategy(law, params, n_alpha)
            return
        others = [uniform_strategy(n_tau, n_alpha, params)]
        if centred(dist.probs, n_alpha).sum() > 0.0:
            others.append(proportional_strategy(dist, params, n_tau, n_alpha))
        spec = optimal_strategy(law, params, n_alpha)[0]
        assert spec.n_alpha == n_alpha
        best = expected_utility(dist, n_tau, spec.allocation, params, mode)
        for other in others:
            value = expected_utility(dist, n_tau, other.allocation, params, mode)
            assert best >= value - 1e-12 * max(1.0, abs(value))
