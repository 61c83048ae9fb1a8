"""Acceptance criteria 7 and 9 as properties over random h.

``tests/test_acceptance.py`` checks them on fixtures; here h is random, with
exact zero bins, and the problems are the real ones ``optimal_strategy``
solves: the landing law q of ``landing_law(dist, n_tau)`` over its full
reach. Risk aversion is 0 or at least 1e-6, and for criterion 7 also down
to 1e-30: for a*kappa*ell below about 1e-15 the water-filling inputs exceed
2**53, which ``project_simplex`` handles by translation. Below 1e-6 a
utility from ``exp_utility`` is only accurate to about 1e-16/a, so there
the two solutions are compared by an exact objective.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpreset import (
    InputError,
    OptimizationProblem,
    UtilityParams,
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


def landing_problem(dist, n_tau, params):
    """The problem ``optimal_strategy`` solves for this window."""
    law = landing_law(dist, n_tau)
    js = np.arange(-law.reach, law.reach + 1)
    return OptimizationProblem(q=law.q, tau_membership=np.abs(js) <= n_tau, params=params)


def exact_objective(problem, weights):
    """E_u by -expm1(-a c)/a, which keeps its digits as a goes to 0 (a > 0)."""
    p = problem.params
    c = p.kappa * p.ell * weights + p.shift - ~problem.tau_membership
    return float(problem.q @ (-np.expm1(-p.a * c) / p.a))


class TestCriterion7:
    @settings(max_examples=60, deadline=None)
    @given(dist=dists(max_k=5), n_tau=st.integers(0, 5), a=st.one_of(RISK, TINY_RISK), ell=SCALE)
    def test_solve_is_certified_by_projected_gradient(self, dist, n_tau, a, ell):
        params = UtilityParams(a=a, kappa=1.0, ell=ell)
        problem = landing_problem(dist, n_tau, params)
        sol = solve(problem)
        assert sol.kkt_residual <= 1e-8
        check = projected_gradient_verify(problem)
        if a == 0.0 or a >= 1e-6:
            assert abs(sol.objective - check.objective) <= 1e-6
        else:
            w, w_check = sol.allocation.weights, check.allocation.weights
            assert exact_objective(problem, w) >= exact_objective(problem, w_check) - 1e-12
        spec, _ = optimal_strategy(dist, n_tau, params)
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
        specs = [uniform_strategy(dist, n_tau, n_alpha, params)]
        specs.append(optimal_strategy(dist, n_tau, params)[0])
        if centred(dist.probs, n_alpha).sum() > 0.0:
            specs.append(proportional_strategy(dist, params, n_tau, n_alpha))
        else:  # h has no mass over B_alpha
            with pytest.raises(InputError):
                proportional_strategy(dist, params, n_tau, n_alpha)
        for spec in specs:
            w = spec.allocation.weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0.0)
