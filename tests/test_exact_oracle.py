"""The analytic layer against exact rational arithmetic.

For a rational h every analytic quantity at a = 0 is rational: the
stationary law p, the landing law q, the cycle length and the strict and
full-coverage E_u. ``solve_exact`` finds them by Gaussian elimination over
``fractions.Fraction``, so the float pipeline is checked against the exact
value rather than against another float path. The float h is the rounded
rational, so part of each error is input rounding.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st

from lpreset import (
    MODE_FULL,
    MODE_STRICT,
    Allocation,
    NextPriceDistribution,
    UtilityParams,
    build_reset_chain,
    expected_utility,
    landing_distribution,
    landing_law,
    outcome_matrix,
)
from lpreset.markov import landing_over

REL = 1e-13
# kappa * ell and every product of it with a float weight are exact in floats
KAPPA_ELL = [(1.0, 1.0), (1.0, 37.0), (0.5, 100.0), (2.0, 0.25)]


def solve_exact(A, b):
    """x with A x = b by Gauss-Jordan elimination over Fractions; None when A is singular."""
    n = len(b)
    rows = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_law(h, n_tau):
    """(p over B_tau, q over the reach, cycle length) of the reset chain of h.

    The expected visits v of a cycle from the center solve v (I - F) = e_center,
    F(i, j) = h(j - i) within B_tau; only the no-move h leaves I - F singular.
    """
    k_max = (len(h) - 1) // 2
    n = 2 * n_tau + 1

    def hk(k):
        return h[k + k_max] if abs(k) <= k_max else Fraction(0)

    center = [int(i == n_tau) for i in range(n)]
    visits = solve_exact([[int(i == j) - hk(i - j) for j in range(n)] for i in range(n)], center)
    if visits is None:
        p, cycle = [Fraction(c) for c in center], math.inf
    else:
        cycle = sum(visits)
        p = [v / cycle for v in visits]
    reach = n_tau + k_max
    q = [sum(p[i] * hk(j - i + n_tau) for i in range(n)) for j in range(-reach, reach + 1)]
    return p, q, cycle


def exact_expected_utility(q, n_tau, alloc, kappa_ell, m):
    """sum_{|j| <= m} q(j) R(j) at a = 0, and the sum of |q(j) R(j)|, its scale."""
    reach = (len(q) - 1) // 2
    terms = [
        (q[j + reach] if abs(j) <= reach else 0)
        * (kappa_ell * Fraction(alloc.weight(j)) - (abs(j) > n_tau))
        for j in range(-m, m + 1)
    ]
    return sum(terms), sum(abs(t) for t in terms)


def assert_close(got, exact, scale=None):
    """Each value within REL of the exact one, relative to the largest exact value."""
    exact = [float(x) for x in exact]
    scale = max(map(abs, exact), default=0.0) if scale is None else scale
    assert len(got) == len(exact)
    assert all(abs(g - e) <= REL * scale for g, e in zip(got, exact)), (got, exact)


@st.composite
def problems(draw):
    """A rational h with zero bins, a window, an allocation and exact kappa * ell."""
    k_max = draw(st.integers(1, 8))
    weights = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5, 9]),
                            min_size=2 * k_max + 1, max_size=2 * k_max + 1))
    if not any(weights):
        weights[k_max] = 1
    n_tau = draw(st.integers(0, 8))
    n_alpha = draw(st.integers(0, n_tau + k_max + 2))
    alloc_weights = draw(st.lists(st.integers(0, 9), min_size=2 * n_alpha + 1,
                                  max_size=2 * n_alpha + 1))
    kappa, ell = draw(st.sampled_from(KAPPA_ELL))
    return weights, n_tau, n_alpha, alloc_weights, kappa, ell


NO_MOVE = ([0, 0, 1, 0, 0], 3, 4, [1, 2, 3, 0, 0, 4, 1, 0, 2], 1.0, 37.0)
WORKED = ([1, 1, 1], 1, 1, [1, 1, 1], 1.0, 1.0)  # the 5/18 example


class TestExactOracle:
    @settings(max_examples=120, deadline=None)
    @given(problems())
    @example(NO_MOVE)
    @example(WORKED)
    def test_float_pipeline_is_exact_to_1e13(self, problem):
        weights, n_tau, n_alpha, alloc_weights, kappa, ell = problem
        total = sum(weights)
        h = [Fraction(w, total) for w in weights]
        dist = NextPriceDistribution(len(h) // 2, np.array(weights) / total, 1.0)
        p, q, cycle = exact_law(h, n_tau)

        law = landing_law(dist, n_tau)
        assert_close(law.stationary, p)
        assert_close(law.q, q)
        if cycle == math.inf:
            assert law.cycle_length == math.inf
        else:
            assert abs(law.cycle_length - float(cycle)) <= REL * float(cycle)

        chain = build_reset_chain(dist, n_tau)
        assert_close(chain.stationary, p)
        reach = law.reach
        q_at = [q[j + reach] if abs(j) <= reach else 0 for j in range(-n_alpha, n_alpha + 1)]
        js = np.arange(-n_alpha, n_alpha + 1)
        assert_close(landing_distribution(chain, outcome_matrix(dist, n_tau, n_alpha)), q_at,
                     scale=float(max(q)))
        assert_close(landing_over(chain, js), q_at, scale=float(max(q)))

        raw = np.array(alloc_weights, dtype=float)
        alloc = Allocation(n_alpha, raw / raw.sum() if raw.sum() > 0 else raw)
        params = UtilityParams(a=0.0, kappa=kappa, ell=ell)
        for mode, m in ((MODE_STRICT, n_alpha), (MODE_FULL, reach)):
            want, scale = exact_expected_utility(q, n_tau, alloc, Fraction(kappa * ell), m)
            got = expected_utility(dist, n_tau, alloc, params, mode)
            assert abs(got - float(want)) <= REL * float(scale), (mode, got, want)

    def test_no_move_h_never_resets(self):
        p, q, cycle = exact_law([Fraction(0), Fraction(1), Fraction(0)], 2)
        assert cycle == math.inf
        assert p == [0, 0, 1, 0, 0]
        assert q == [0, 0, 0, 1, 0, 0, 0]

    def test_worked_example_is_5_18(self):
        p, q, cycle = exact_law([Fraction(1, 3)] * 3, 1)
        quarter, third = Fraction(1, 4), Fraction(1, 3)
        assert p == [quarter, 2 * quarter, quarter] and cycle == 6
        assert q[1:4] == [quarter, third, quarter]
        alloc = Allocation(1, np.full(3, 1.0 / 3.0))
        want, _ = exact_expected_utility(q, 1, alloc, Fraction(1), 1)
        # the float weight 1/3 is a third to within half an ulp
        assert abs(want - Fraction(5, 18)) < Fraction(1, 10**16)
