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

from .distribution import NextPriceDistribution, centred
from .errors import InputError, NumericalError
from .markov import LandingLaw, landing_law

__all__ = [
    "MODE_STRICT",
    "MODE_FULL",
    "UtilityParams",
    "Allocation",
    "exp_utility",
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
        return float(self.weights[j + self.n_alpha]) if abs(j) <= self.n_alpha else 0.0

    def over(self, n: int) -> np.ndarray:
        """A(j) for |j| <= n, zero beyond B_alpha."""
        return centred(self.weights, n)


def exp_utility(c: float | np.ndarray, params: UtilityParams) -> float | np.ndarray:
    """u(c) = (1 - exp(-a c)) / a for a != 0, and c at a = 0.

    ``c`` is a number, which gives a float, or an array, which gives the
    utility of each element. It is computed as -expm1(-a c) / a, which keeps
    every digit when a*c is tiny; 1 - exp(-a c) cancels to 0 below a*c of
    about 1e-16. np.expm1 gives an element the same bits alone as in an array.
    """
    a = params.a
    c = np.asarray(c, dtype=float)
    if a == 0.0:
        u = c.copy()
    else:
        arg = -a * c
        if np.any(arg > _EXP_ARG_LIMIT):
            bad = float(c.flat[np.argmax(arg)])
            raise NumericalError(f"exp_utility overflow: a={a}, c={bad}")
        u = -np.expm1(arg) / a
    return float(u) if u.ndim == 0 else u


def landing_rewards(
    weights: np.ndarray, resets: np.ndarray, params: UtilityParams
) -> np.ndarray:
    """Rewards of landings with allocations ``weights``: kappa*ell*A, less the
    reset fee of 1 where ``resets`` (the landing leaves B_tau) is true.

    ``weights`` may have any leading shape; ``resets`` broadcasts against it.
    This is the one place the reward rule is decided.
    """
    return params.kappa * params.ell * np.asarray(weights, dtype=float) - resets


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
    resets = np.abs(np.arange(-n, n + 1)) > n_tau
    rewards = landing_rewards([alloc.over(n) for alloc in allocs], resets, params)
    utils = exp_utility(rewards + params.shift, params)
    q = law.over(n)
    return [float(q[n - m : n + m + 1] @ u[n - m : n + m + 1]) for m, u in zip(ms, utils)]
