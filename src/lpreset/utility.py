"""CARA (exponential) utility and exact expected utility of an allocation.

Reward of landing in relative bin j: kappa * ell * A(j), minus the fixed
reset fee of 1 whenever j is outside B_tau. Utilities are evaluated on
rewards shifted by +1 when a != 0 (the exponential form needs positive
inputs); at a = 0 the utility is the raw reward, which reproduces the
worked 5/18 example exactly. This module reads no documents: strategy
documents, with their parameters and weights, are read in ``strategies``.

Two evaluation modes:

* ``strict-paper`` sums over B_alpha only, silently dropping probability
  mass that lands beyond it.
* ``full-coverage`` sums over every bin reachable from B_tau, treating bins
  outside B_alpha as having zero allocation (and paying the reset fee when
  also outside B_tau), so all probability mass is accounted for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import NextPriceDistribution
from .errors import InputError, NumericalError
from .markov import LandingLaw, landing_law

__all__ = [
    "MODE_STRICT",
    "MODE_FULL",
    "UtilityParams",
    "Allocation",
    "exp_utility",
    "exp_utility_vec",
    "landing_rewards",
    "expected_utility",
    "expected_utilities",
]

MODE_STRICT = "strict-paper"
MODE_FULL = "full-coverage"
_MODES = (MODE_STRICT, MODE_FULL)

_EXP_ARG_LIMIT = 700.0  # exp overflow guard


@dataclass(frozen=True)
class UtilityParams:
    """Risk aversion a, fee yield kappa per unit liquidity per step, total liquidity ell.

    ell is measured in multiples of the fixed reallocation cost.
    """

    a: float = 0.0
    kappa: float = 1.0
    ell: float = 100.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.a, self.kappa, self.ell))):
            raise InputError(f"utility parameters must be finite, got {self}")
        if self.kappa <= 0:
            raise InputError(f"kappa must be > 0, got {self.kappa}")
        if self.ell <= 0:
            raise InputError(f"ell must be > 0, got {self.ell}")

    @property
    def shift(self) -> float:
        """Reward shift making the exponential well defined; 0 at risk neutrality."""
        return 0.0 if self.a == 0.0 else 1.0

    def to_json_dict(self) -> dict:
        return {"a": float(self.a), "kappa": float(self.kappa), "ell": float(self.ell)}


@dataclass(frozen=True)
class Allocation:
    """Liquidity fractions A(j) over j in [-n_alpha, n_alpha]; sum <= 1, A >= 0."""

    n_alpha: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if self.n_alpha < 0:
            raise InputError(f"n_alpha must be >= 0, got {self.n_alpha}")
        if w.shape != (2 * self.n_alpha + 1,):
            raise InputError(
                f"weights must have length {2 * self.n_alpha + 1}, got {w.shape}"
            )
        if not np.all(w >= 0.0):  # NaN fails too; inf fails the sum below
            raise InputError("allocation weights must be non-negative")
        if w.sum() > 1.0 + 1e-9:
            raise InputError(f"allocation weights sum to {w.sum()!r} > 1")

    def weight(self, j: int) -> float:
        """A(j); zero outside B_alpha."""
        if abs(j) > self.n_alpha:
            return 0.0
        return float(self.weights[j + self.n_alpha])

    def weight_array(self, js: np.ndarray) -> np.ndarray:
        js = np.asarray(js)
        out = np.zeros(js.shape, dtype=float)
        inside = np.abs(js) <= self.n_alpha
        out[inside] = self.weights[js[inside] + self.n_alpha]
        return out


def exp_utility(c: float, params: UtilityParams) -> float:
    """u(c) = (1 - exp(-a c)) / a for a != 0, and c at a = 0.

    It is computed as -expm1(-a c) / a, which keeps every digit when a*c is
    tiny; 1 - exp(-a c) cancels to 0 below a*c of about 1e-16.
    """
    a = params.a
    if a == 0.0:
        return float(c)
    arg = -a * c
    if arg > _EXP_ARG_LIMIT:
        raise NumericalError(f"exp_utility overflow: a={a}, c={c} (exp arg {arg:.1f})")
    return -math.expm1(arg) / a


def exp_utility_vec(c: np.ndarray, params: UtilityParams) -> np.ndarray:
    """``exp_utility`` of each element of ``c``."""
    a = params.a
    c = np.asarray(c, dtype=float)
    if a == 0.0:
        return c.copy()
    arg = -a * c
    if np.any(arg > _EXP_ARG_LIMIT):
        bad = float(c.flat[np.argmax(arg)])
        raise NumericalError(f"exp_utility overflow: a={a}, c={bad}")
    return -np.expm1(arg) / a


def landing_rewards(
    alloc: Allocation, js: np.ndarray, n_tau: int, params: UtilityParams
) -> np.ndarray:
    """Rewards of landing at each offset in ``js``: kappa*ell*A(j), with zero
    allocation beyond B_alpha, less the reset fee of 1 outside B_tau."""
    js = np.asarray(js)
    rewards = params.kappa * params.ell * alloc.weight_array(js)
    rewards[np.abs(js) > n_tau] -= 1.0
    return rewards


def expected_utility(
    dist: NextPriceDistribution,
    n_tau: int,
    alloc: Allocation,
    params: UtilityParams,
    mode: str = MODE_STRICT,
    law: LandingLaw | None = None,
) -> float:
    """Exact expected per-step utility E_u = sum_j q(j) u(R(j) + shift)."""
    return expected_utilities(dist, n_tau, [alloc], params, mode, law)[0]


def expected_utilities(
    dist: NextPriceDistribution,
    n_tau: int,
    allocs: list[Allocation],
    params: UtilityParams,
    mode: str = MODE_STRICT,
    law: LandingLaw | None = None,
) -> list[float]:
    """``expected_utility`` of each allocation: one utility matrix, one dot each.

    ``law`` is ``landing_law(dist, n_tau)`` when the caller holds it. E_u sums
    over |j| <= n_alpha (strict) or the reach (full coverage), zero-padding q.
    """
    if mode not in _MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {_MODES}")
    law = landing_law(dist, n_tau) if law is None else law
    if law.n_tau != n_tau:
        raise InputError(f"landing law is for n_tau={law.n_tau}, not {n_tau}")
    ms = [alloc.n_alpha if mode == MODE_STRICT else law.reach for alloc in allocs]
    n = max(ms, default=0)
    weights = np.zeros((len(allocs), 2 * n + 1))
    for row, alloc in zip(weights, allocs):  # A(j) for |j| <= n, as weight_array
        m = min(alloc.n_alpha, n)
        row[n - m : n + m + 1] = alloc.weights[alloc.n_alpha - m : alloc.n_alpha + m + 1]
    rewards = params.kappa * params.ell * weights  # then as in landing_rewards
    rewards[:, np.abs(np.arange(-n, n + 1)) > n_tau] -= 1.0
    utils = exp_utility_vec(rewards + params.shift, params)
    q = law.over(n)
    return [float(q[n - m : n + m + 1] @ u[n - m : n + m + 1]) for m, u in zip(ms, utils)]
