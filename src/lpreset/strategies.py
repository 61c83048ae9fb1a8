"""Construction of uniform, proportional, and optimal tau-reset strategies."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .distribution import NextPriceDistribution, read_json
from .errors import InputError
from .markov import LandingLaw, landing_law
from .markov import build_reset_chain  # noqa: F401  (perfbench patches it here)
from .optimizer import OptimizationProblem, Solution, solve
from .utility import Allocation, UtilityParams, json_count, json_number

__all__ = [
    "StrategySpec",
    "window_for_mass",
    "uniform_strategy",
    "proportional_strategy",
    "optimal_strategy",
]

KINDS = ("uniform", "proportional", "optimal", "custom")


@dataclass(frozen=True)
class StrategySpec:
    """A fully determined tau-reset strategy: windows, allocation, parameters."""

    kind: str
    n_tau: int
    n_alpha: int
    allocation: Allocation
    params: UtilityParams

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InputError(f"unknown strategy kind {self.kind!r}")
        if self.allocation.n_alpha != self.n_alpha:
            raise InputError(
                f"allocation n_alpha {self.allocation.n_alpha} != spec n_alpha {self.n_alpha}"
            )
        if self.n_tau < 0:
            raise InputError(f"n_tau must be >= 0, got {self.n_tau}")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_tau": int(self.n_tau),
            "n_alpha": int(self.n_alpha),
            "weights": [float(w) for w in self.allocation.weights],
            "params": self.params.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StrategySpec":
        if not isinstance(doc, dict):
            raise InputError(f"strategy document must be an object, got {doc!r}")
        n_alpha = doc_field(doc, "n_alpha", json_count)
        weights = doc_field(doc, "weights", lambda ws: [json_number(w) for w in ws])
        return cls(
            kind=doc.get("kind", "custom"),
            n_tau=doc_field(doc, "n_tau", json_count),
            n_alpha=n_alpha,
            allocation=Allocation(n_alpha=n_alpha, weights=np.array(weights)),
            params=UtilityParams.from_json_dict(doc.get("params", {})),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "StrategySpec":
        return cls.from_json_dict(read_json(path))


def doc_field(doc: dict, key: str, convert):
    """``convert(doc[key])``; a missing or unconvertible field is an InputError."""
    if key not in doc:
        raise InputError(f"strategy document missing field {key!r}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"strategy field {key!r}: bad value {doc[key]!r}") from exc


def window_for_mass(dist: NextPriceDistribution, mass: float) -> int:
    """Smallest half-width n with sum_{|k| <= n} h(k) >= mass.

    The whole support holds all of h's mass, so n never exceeds k_max, even
    when the rounded sum falls an ulp short of 1.
    """
    if not 0.0 < mass <= 1.0:
        raise InputError(f"mass must be in (0, 1], got {mass}")
    k = dist.k_max
    within = np.cumsum(dist.probs[k:] + np.r_[0.0, dist.probs[k - 1 :: -1]])
    return min(int(np.searchsorted(within, mass)), k)


def uniform_strategy(
    dist: NextPriceDistribution,
    n_tau: int,
    n_alpha: int,
    params: UtilityParams,
) -> StrategySpec:
    """A(j) = 1 / (2 n_alpha + 1) on every bin of B_alpha."""
    if n_alpha < 0:
        raise InputError(f"n_alpha must be >= 0, got {n_alpha}")
    n = 2 * n_alpha + 1
    return StrategySpec(
        kind="uniform",
        n_tau=n_tau,
        n_alpha=n_alpha,
        allocation=Allocation(n_alpha=n_alpha, weights=np.full(n, 1.0 / n)),
        params=params,
    )


def proportional_strategy(
    dist: NextPriceDistribution,
    params: UtilityParams,
    tau_mass: float | None = None,
    alpha_mass: float | None = None,
    n_tau: int | None = None,
    n_alpha: int | None = None,
) -> StrategySpec:
    """A(j) proportional to h(j), renormalized over B_alpha.

    Windows may be given either as probability masses (tau_mass, alpha_mass)
    or directly as half-widths (n_tau, n_alpha); alpha may be wider or
    narrower than tau.
    """
    if (tau_mass is None) == (n_tau is None):
        raise InputError("specify exactly one of tau_mass or n_tau")
    if (alpha_mass is None) == (n_alpha is None):
        raise InputError("specify exactly one of alpha_mass or n_alpha")
    if tau_mass is not None:
        n_tau = window_for_mass(dist, tau_mass)
    if alpha_mass is not None:
        n_alpha = window_for_mass(dist, alpha_mass)
    assert n_tau is not None and n_alpha is not None
    ks = np.arange(-n_alpha, n_alpha + 1)
    raw = dist.prob_array(ks)
    total = raw.sum()
    if total <= 0:
        raise InputError("next-price distribution has zero mass over B_alpha")
    return StrategySpec(
        kind="proportional",
        n_tau=n_tau,
        n_alpha=n_alpha,
        allocation=Allocation(n_alpha=n_alpha, weights=raw / total),
        params=params,
    )


def optimal_strategy(
    dist: NextPriceDistribution,
    n_tau: int,
    params: UtilityParams,
    law: LandingLaw | None = None,
) -> tuple[StrategySpec, Solution]:
    """Optimal allocation over B_alpha = every bin reachable from B_tau.

    With that choice of B_alpha, strict-paper and full-coverage objectives
    coincide. ``law`` is ``landing_law(dist, n_tau)`` when the caller
    already holds it.
    """
    law = landing_law(dist, n_tau) if law is None else law
    if law.n_tau != n_tau:
        raise InputError(f"landing law is for n_tau={law.n_tau}, not {n_tau}")
    js = np.arange(-law.reach, law.reach + 1)
    problem = OptimizationProblem(
        q=law.q, tau_membership=np.abs(js) <= n_tau, params=params
    )
    solution = solve(problem)
    spec = StrategySpec(
        kind="optimal",
        n_tau=n_tau,
        n_alpha=law.reach,
        allocation=solution.allocation,
        params=params,
    )
    return spec, solution
