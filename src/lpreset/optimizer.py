"""Exact simplex-constrained maximization of CARA expected utility.

The objective sum_j q_j * u(kappa*ell*A_j - fee_j + shift) splits by risk
attitude:

* a > 0 (strictly concave): the KKT equalization condition inverts in closed
  form. On an active bin A_j = v_j - theta, and A_j = 0 where v_j <= theta,
  with v_j = (log(q_j/q_m) - a*(s_j - s_m)) / (a*kappa*ell) (s_j is the reward
  shift less the reset fee, m the bin with the largest log(q_j) - a*s_j).
  Those weights are the Euclidean projection of v onto the simplex, found by
  one sort (Duchi et al. 2008).
* a <= 0 (linear or convex): the maximum lies at a vertex of the simplex.
  Vertex i adds q_i * (u(s_i + kappa*ell) - u(s_i)) = q_i * e^(-a*s_i) *
  u(kappa*ell) to the all-zero allocation's E_u, and s_i takes one value
  inside B_tau and that value less 1 outside, so the optimum is the argmax
  of q_i, times e^a outside B_tau (just q at a = 0).

A projected-gradient ascent is provided as an independent verifier for
a >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .utility import Allocation, UtilityParams, exp_utility, landing_rewards

__all__ = [
    "OptimizationProblem",
    "Solution",
    "solve",
    "kkt_residual",
    "projected_gradient_verify",
    "project_simplex",
]

ACTIVE_TOL = 1e-12


@dataclass(frozen=True)
class OptimizationProblem:
    """Landing probabilities q over B_alpha plus reward/utility parameters.

    ``tau_membership[j]`` marks bins inside B_tau (no reset fee).
    """

    q: np.ndarray
    tau_membership: np.ndarray
    params: UtilityParams

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        tau = np.asarray(self.tau_membership, dtype=bool)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "tau_membership", tau)
        if q.ndim != 1 or q.shape != tau.shape:
            raise InputError("q and tau_membership must be 1-d and share a length")
        if q.shape[0] % 2 != 1:
            raise InputError("bin count must be odd (2*n_alpha + 1)")
        if np.any(q < 0):
            raise InputError("landing probabilities must be non-negative")
        if not np.any(q > 0):
            raise InputError("q must not be identically zero")

    @property
    def n_alpha(self) -> int:
        return (self.q.shape[0] - 1) // 2

    def objective(self, weights: np.ndarray) -> float:
        """Expected utility of the weights under this problem's landing law."""
        p = self.params
        c = landing_rewards(weights, ~self.tau_membership, p) + p.shift
        return float(self.q @ exp_utility(c, p))

    def gradient(self, weights: np.ndarray) -> np.ndarray:
        """dE_u/dA_j = q_j * kappa * ell * u'(c_j), c_j the reward plus the shift."""
        p = self.params
        scale = p.kappa * p.ell
        if p.a == 0.0:
            return self.q * scale
        c = landing_rewards(weights, ~self.tau_membership, p) + p.shift
        return self.q * scale * np.exp(-p.a * c)


@dataclass(frozen=True)
class Solution:
    """A solver's allocation and certificate. ``iterations`` counts the active
    bins (water-filling), the vertices the a <= 0 rule chose among (method
    ``vertex-enumeration``) or the ascent steps."""

    allocation: Allocation
    objective: float
    kkt_residual: float
    iterations: int
    method: str
    converged: bool = True

    def to_json_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.allocation.weights],
            "n_alpha": int(self.allocation.n_alpha),
            "objective": float(self.objective),
            "kkt_residual": float(self.kkt_residual),
            "iterations": int(self.iterations),
            "method": self.method,
            "converged": bool(self.converged),
        }


def _argmax_center_first(values: np.ndarray, n_alpha: int) -> int:
    """Index of the maximum; ties go to the lowest |j|, negative before positive."""
    best = float(np.max(values))
    candidates = np.flatnonzero(values >= best)
    offsets = candidates - n_alpha
    order = np.lexsort((offsets > 0, np.abs(offsets)))
    return int(candidates[order[0]])


def _water_filling(problem: OptimizationProblem) -> tuple[np.ndarray, int]:
    """Weights that equalize q_j * u'(c_j) over the active bins, and their count."""
    p = problem.params
    a, scale = p.a, p.kappa * p.ell
    s = np.where(problem.tau_membership, p.shift, p.shift - 1.0)
    live = problem.q > 0.0  # bins the price never lands in get nothing
    q, s = problem.q[live], s[live]
    w = np.zeros_like(problem.q)
    # v relative to the top bin m (v_m = 0): the projection is
    # translation-invariant, and absolute logs near a*kappa*ell = 1e-3 put v
    # near -7,000, where v - theta rounds each weight by up to 1e-12
    m = int(np.argmax(np.log(q) - a * s))
    with np.errstate(all="ignore"):  # a tiny a sends v past the float range
        v = (np.log(q / q[m]) - a * (s - s[m])) / (a * scale)
        bound = (v.size + 2) * np.abs(v).sum()  # bounds every sum project_simplex forms
    if not np.isfinite(bound):
        raise NumericalError(f"risk aversion a={a!r} is too small: water-filling inputs overflow")
    w[live] = project_simplex(v)
    w /= w.sum()  # exact simplex normalization
    return w, int(np.count_nonzero(w))


def solve(problem: OptimizationProblem, tol: float = 1e-10) -> Solution:
    """Exact maximizer of the CARA objective on the probability simplex."""
    a = problem.params.a
    if a > 0:
        w, iters = _water_filling(problem)
        method = "water-filling"
    else:  # the vertex rule of the module docstring; np.exp(0.0) == 1.0
        gain = np.where(problem.tau_membership, problem.q, problem.q * np.exp(a))
        w = np.zeros_like(problem.q)
        w[_argmax_center_first(gain, problem.n_alpha)] = 1.0
        iters, method = w.shape[0], "vertex-enumeration"
    # before the residual: where |a|*kappa*ell overflows the exp, the objective
    # raises NumericalError and the gradient's exp would warn first
    objective = problem.objective(w)
    resid = kkt_residual(problem, w)
    if a > 0 and not resid <= tol:  # a NaN residual certifies nothing
        raise NumericalError(f"water-filling KKT residual {resid:.3e} exceeds {tol:.1e}")
    return Solution(
        allocation=Allocation(n_alpha=problem.n_alpha, weights=w),
        objective=objective,
        kkt_residual=resid,
        iterations=iters,
        method=method,
    )


def kkt_residual(problem: OptimizationProblem, weights: np.ndarray) -> float:
    """Violation of the Lagrange equalization / complementary-slackness system.

    Spread of marginal utilities q_j u'(c_j) over active bins, plus the worst
    excess of an inactive bin's marginal utility over the active level.
    """
    weights = np.asarray(weights, dtype=float)
    grads = problem.gradient(weights)
    active = weights > ACTIVE_TOL
    if not np.any(active):
        return float(np.max(grads))
    lam = float(np.max(grads[active]))
    spread = lam - float(np.min(grads[active]))
    inactive = ~active
    violation = 0.0
    if np.any(inactive):
        violation = max(0.0, float(np.max(grads[inactive])) - lam)
    return spread + violation


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based).

    For the largest entry the threshold test u - (u - 1) > 0 holds exactly,
    but it rounds to 0 once v passes 2**53. The projection is
    translation-invariant, so such a v is projected as v - max(v).
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, len(v) + 1)
    passing = np.nonzero(u - css / ind > 0)[0]
    if passing.size == 0:
        shifted = v - v.max()
        if not np.all(np.isfinite(shifted)):  # NaN never passes the test above
            raise NumericalError("simplex projection of a vector that is not finite")
        return project_simplex(shifted)
    rho = passing[-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def projected_gradient_verify(
    problem: OptimizationProblem,
    tol: float = 1e-12,
    max_iters: int = 200_000,
) -> Solution:
    """Independent check of solve() by projected gradient ascent (a >= 0 only).

    Backtracking step size; stops when the per-step objective gain drops
    below ``tol``.
    """
    if problem.params.a < 0:
        raise InputError("projected gradient verification requires a >= 0")
    n = problem.q.shape[0]
    w = np.full(n, 1.0 / n)
    obj = problem.objective(w)
    step = 1.0 / max(1.0, problem.params.kappa * problem.params.ell)
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        grad = problem.gradient(w)
        trial_step = step
        improved = False
        for _ in range(60):
            cand = project_simplex(w + trial_step * grad)
            cand /= cand.sum()  # a long step's projection drifts off the simplex
            cand_obj = problem.objective(cand)
            if cand_obj > obj:
                improved = True
                break
            trial_step *= 0.5
        if not improved:
            converged = True
            break
        gain = cand_obj - obj
        w, obj = cand, cand_obj
        step = min(trial_step * 2.0, 1e6)
        if gain < tol:
            converged = True
            break
    return Solution(
        allocation=Allocation(n_alpha=problem.n_alpha, weights=w),
        objective=obj,
        kkt_residual=kkt_residual(problem, w),
        iterations=it,
        method="projected-gradient",
        converged=converged,
    )
