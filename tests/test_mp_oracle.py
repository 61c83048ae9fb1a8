"""The analytic layer at risk aversion a != 0, and the solver, against 40-digit arithmetic.

``test_exact_oracle`` checks the float pipeline against exact rationals, which
exist only at a = 0: at any other a, u(c) = (1 - exp(-a c)) / a leaves the
rationals. Here the float h is read exactly as mpmath numbers, the cycle
visits solve (I - F)^T v = e_center by ``mp.lu_solve`` at 40 digits, q comes
from its defining sum and E_u from ``mp.exp``. At 40 digits the oracle's own
error is far below a float ulp, so each difference is the float pipeline's.
The solver's answer is checked too: at a > 0 the water-filling weights
against v, theta by the sort and the weights formed at 40 digits, and at
a <= 0 the vertex against the argmax of the 40-digit gains.

The bounds were tuned on hypothesis draws of the problems below: 4,500 of
the law (k_max up to 16, n_tau up to 16), 2,600 of E_u and 9,096 of the
water-filling weights (k_max up to 16). The worst errors seen are in each
bound's comment.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lpreset import (
    MODE_FULL,
    MODE_STRICT,
    NextPriceDistribution,
    UtilityParams,
    expected_utility,
    landing_law,
    optimal_strategy,
    proportional_strategy,
)

from conftest import dists, make_eth_like

mp = pytest.importorskip("mpmath", reason="the 40-digit oracle needs mpmath").mp

DIGITS = 40
EPS = 2.0**-52
# the law's errors grow with the 2 n_tau + 1 states of the solve, so their bounds
# are ulps per state: the cycle length's worst was 2.4 (1.7e-14 at n_tau 15) and
# q's, relative to max q, 0.52 (3.4e-15)
CYCLE_ULPS_PER_STATE = 8
Q_ULPS_PER_STATE = 2
# u = e^c - 1 at a = -1 magnifies the rounding of c = kappa*ell*A + 1 by up to c,
# 51 here: worst 5.2e-15 seen, against 1.4e-15 at a = 0.1 and 6.9e-16 at a = 15
EU_REL = 1.6e-14
RISKS = (-1.0, 0.1, 15.0)
# kappa * ell and every product of it with a float weight are exact in floats
KAPPA_ELL = [(1.0, 1.0), (1.0, 37.0), (0.5, 100.0), (2.0, 0.25)]
# water-filling weights, absolute: an error in v is divided by a*kappa*ell, 0.05
# at the least here; worst 2.4e-15 seen, and 4.6e-16 on make_eth_like() at n_tau
# up to 40
WEIGHT_ABS = 1e-14
# the vertex: the index must match where the two best gains differ by more than this
GAIN_TIE_REL = 1e-12


def mp_law(probs, n_tau):
    """(cycle length, q over the reach) of the reset chain of the float h ``probs``."""
    k_max = (len(probs) - 1) // 2
    h = [mp.mpf(float(x)) for x in probs]

    def hk(k):
        return h[k + k_max] if abs(k) <= k_max else mp.zero

    n = 2 * n_tau + 1
    # (I - F)^T, F(i, j) = h(j - i) over B_tau
    transposed = mp.matrix([[int(i == j) - hk(i - j) for j in range(n)] for i in range(n)])
    visits = mp.lu_solve(transposed, mp.matrix([int(i == n_tau) for i in range(n)]))
    cycle = mp.fsum(visits)
    p = [v / cycle for v in visits]
    reach = n_tau + k_max
    q = [mp.fsum(p[i] * hk(j - i + n_tau) for i in range(n)) for j in range(-reach, reach + 1)]
    return cycle, q


def mp_expected_utility(q, n_tau, weights, params, m):
    """sum_{|j| <= m} q(j) u(R(j) + 1) at a != 0, and the sum of its terms' magnitudes."""
    reach, n_alpha = (len(q) - 1) // 2, (len(weights) - 1) // 2
    a, kappa_ell = mp.mpf(params.a), mp.mpf(params.kappa) * mp.mpf(params.ell)
    terms = []
    for j in range(-m, m + 1):
        weight = mp.mpf(float(weights[j + n_alpha])) if abs(j) <= n_alpha else mp.zero
        c = kappa_ell * weight - (abs(j) > n_tau) + 1
        terms.append((q[j + reach] if abs(j) <= reach else mp.zero) * (1 - mp.exp(-a * c)) / a)
    return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def mp_water_filling(q, inside, params):
    """The a > 0 optimum over bins with landing law ``q`` (mp numbers), B_tau where ``inside``.

    On each bin with q_j > 0, v_j = (log q_j - a s_j) / (a kappa ell), with s_j
    the shift 1 less the fee 1 outside B_tau; the weights are v's projection onto
    the simplex, max(v_j - theta, 0), theta found by the sort.
    """
    a, kappa_ell = mp.mpf(params.a), mp.mpf(params.kappa) * mp.mpf(params.ell)
    v = {j: (mp.log(x) - a * int(s)) / (a * kappa_ell)
         for j, (x, s) in enumerate(zip(q, inside)) if x > 0}
    top = sorted(v.values(), reverse=True)
    sums = [mp.fsum(top[: k + 1]) - 1 for k in range(len(top))]
    rho = max(k for k in range(len(top)) if top[k] - sums[k] / (k + 1) > 0)
    theta = sums[rho] / (rho + 1)
    return [max(v[j] - theta, mp.zero) if j in v else mp.zero for j in range(len(q))]


def relative(got, want, scale):
    return float(abs(mp.mpf(float(got)) - want) / scale)


class TestMpOracle:
    @settings(max_examples=80, deadline=None)
    @given(dists(), st.integers(0, 16), st.sampled_from(RISKS), st.sampled_from(KAPPA_ELL))
    @example(make_eth_like(), 16, -1.0, (1.0, 37.0))
    @example(make_eth_like(), 16, 15.0, (0.5, 100.0))
    def test_float_pipeline_within_a_few_ulps_at_a_nonzero(self, dist, n_tau, a, kappa_ell):
        assume(dist.prob(0) < 1.0)  # the no-move h never resets: the rational oracle's case
        assume(sum(dist.prob(k) for k in range(-n_tau, n_tau + 1)) > 0)  # proportional has mass
        params = UtilityParams(a, *kappa_ell)
        alloc = proportional_strategy(dist, params, n_tau, n_tau).allocation
        law = landing_law(dist, n_tau)
        ulp_states = (2 * n_tau + 1) * EPS
        with mp.workdps(DIGITS):
            cycle, q = mp_law(dist.probs, n_tau)
            assert relative(law.cycle_length, cycle, cycle) <= CYCLE_ULPS_PER_STATE * ulp_states
            q_err = max(relative(got, want, max(q)) for got, want in zip(law.q, q))
            assert q_err <= Q_ULPS_PER_STATE * ulp_states
            for mode, m in ((MODE_STRICT, n_tau), (MODE_FULL, law.reach)):
                want, scale = mp_expected_utility(q, n_tau, alloc.weights, params, m)
                got = expected_utility(dist, n_tau, alloc, params, mode)
                assert relative(got, want, scale) <= EU_REL, (mode, got, float(want))

    # the float law is the solver's input: read exactly, it isolates the solver's
    # error; the law's own, checked above, is near an ulp of max q, and water-filling
    # at a large a*kappa*ell turns it into weight (see the xfail below)
    @settings(max_examples=60, deadline=None)
    @given(dists(), st.integers(0, 16), st.sampled_from((0.1, 15.0)),
           st.sampled_from(KAPPA_ELL), st.integers(0, 23))
    @example(make_eth_like(), 40, 0.1, (2.0, 0.25), 30)
    def test_water_filling_weights_are_the_40_digit_projection(
        self, dist, n_tau, a, kappa_ell, narrow
    ):
        assume(dist.prob(0) < 1.0)  # the no-move h never resets
        params = UtilityParams(a, *kappa_ell)
        law = landing_law(dist, n_tau)
        for n_alpha in (law.reach, min(narrow, law.reach - 1)):  # the reach and a narrower B_alpha
            q = law.over(n_alpha)
            if not q.any():  # no mass over B_alpha: refused, as test_invariants checks
                continue
            weights = optimal_strategy(law, params, n_alpha)[0].allocation.weights
            inside = np.abs(np.arange(-n_alpha, n_alpha + 1)) <= n_tau
            with mp.workdps(DIGITS):
                want = mp_water_filling([mp.mpf(float(x)) for x in q], inside, params)
                err = max(float(abs(mp.mpf(float(w)) - x)) for w, x in zip(weights, want))
            assert err <= WEIGHT_ABS, (n_alpha, err)

    @settings(max_examples=40, deadline=None)
    @given(dists(), st.integers(0, 16), st.sampled_from((-1.0, 0.0)),
           st.sampled_from(KAPPA_ELL), st.integers(0, 23))
    @example(make_eth_like(), 40, -1.0, (1.0, 37.0), 30)
    def test_vertex_is_the_40_digit_argmax(self, dist, n_tau, a, kappa_ell, narrow):
        assume(dist.prob(0) < 1.0)
        params = UtilityParams(a, *kappa_ell)
        law = landing_law(dist, n_tau)
        with mp.workdps(DIGITS):
            q = mp_law(dist.probs, n_tau)[1]
            for n_alpha in (law.reach, min(narrow, law.reach - 1)):
                js = range(-n_alpha, n_alpha + 1)
                # vertex j adds q_j e^(-a s_j) u(kappa ell) to E_u: s_j is 1 less outside
                # B_tau, so up to a common factor the gain is q_j, times e^a outside
                gains = [q[j + law.reach] * (mp.exp(a) if abs(j) > n_tau else 1) for j in js]
                best, second = sorted([*gains, mp.zero], reverse=True)[:2]
                assume(best > 0 and best - second > GAIN_TIE_REL * best)
                weights = optimal_strategy(law, params, n_alpha)[0].allocation.weights
                assert weights.tolist() == [float(g == best) for g in gains], n_alpha

    @pytest.mark.xfail(strict=True, reason="the float law's q errs by up to an ulp of max q, "
                       "and water-filling at a*kappa*ell = 555 weights a q of 1.7e-17")
    def test_water_filling_gives_no_weight_where_the_exact_q_is_zero(self):
        # h(-1) = 0: from the centre the price never moves down, so it never lands at -1
        dist = NextPriceDistribution(
            k_max=1, probs=np.array([0.0, 0.29702319459946275, 0.7029768054005373]),
            bin_width_pct=1.0)
        law = landing_law(dist, 1)
        with mp.workdps(DIGITS):
            assert mp_law(dist.probs, 1)[1][1] == 0  # q(-1), exactly
        assert optimal_strategy(law, UtilityParams(15.0, 1.0, 37.0))[0].allocation.weight(-1) == 0
