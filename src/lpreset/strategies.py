"""Strategy documents and the uniform, proportional and optimal tau-reset strategies.

A strategy document is a JSON object in one of two forms:

* the weights form, ``{"kind", "n_tau", "n_alpha", "weights", "params"}``,
  which ``StrategySpec.save`` writes;
* the constructor form, ``{"kind": "uniform" | "proportional" | "optimal",
  ...}``, whose windows are each a count (``n_tau``, ``n_alpha``) or a
  probability mass (``tau_mass``, ``alpha_mass``) resolved against the
  next-price distribution by ``window_for_mass``.

``resolve_strategy`` is the one reader of both forms and ``load_strategy``
reads one from a file; a missing or malformed field is an InputError. The
constructors take window counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .distribution import NextPriceDistribution, centred, json_count, json_number, read_json
from .errors import InputError
from .markov import LandingLaw, landing_law
from .markov import build_reset_chain  # noqa: F401  (perfbench patches it here)
from .optimizer import OptimizationProblem, Solution, solve
from .utility import Allocation, UtilityParams

__all__ = [
    "StrategySpec",
    "resolve_strategy",
    "load_strategy",
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

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def resolve_strategy(doc: dict, dist: NextPriceDistribution) -> StrategySpec:
    """Turn a strategy document of either form into a concrete spec.

    A document with ``weights`` is taken as it stands; a constructor form is
    resolved against ``dist``.
    """
    if not isinstance(doc, dict):
        raise InputError(f"strategy document must be an object, got {doc!r}")
    params = _params(doc.get("params", {}))
    if "weights" in doc:
        n_alpha = doc_field(doc, "n_alpha", json_count)
        weights = doc_field(doc, "weights", lambda ws: [json_number(w) for w in ws])
        return StrategySpec(
            kind=doc.get("kind", "custom"),
            n_tau=doc_field(doc, "n_tau", json_count),
            n_alpha=n_alpha,
            allocation=Allocation(n_alpha=n_alpha, weights=np.array(weights)),
            params=params,
        )
    kind = doc.get("kind")
    if kind not in ("uniform", "proportional", "optimal"):
        raise InputError(f"cannot resolve strategy (kind={kind!r}, no weights)")
    n_tau = _window_field(doc, dist, "n_tau", "tau_mass")
    if kind == "optimal":
        return optimal_strategy(dist, n_tau, params)[0]
    n_alpha = _window_field(doc, dist, "n_alpha", "alpha_mass")
    if kind == "uniform":
        return uniform_strategy(dist, n_tau, n_alpha, params)
    return proportional_strategy(dist, params, n_tau, n_alpha)


def load_strategy(path: str, dist: NextPriceDistribution) -> StrategySpec:
    """``resolve_strategy`` of the document in the JSON file ``path``."""
    return resolve_strategy(read_json(path), dist)


def _params(doc: dict) -> UtilityParams:
    """A document's ``params`` as UtilityParams; absent fields keep their defaults."""
    if not isinstance(doc, dict):
        raise InputError(f"params must be an object, got {doc!r}")
    given = [k for k in ("a", "kappa", "ell") if k in doc]
    return UtilityParams(**{k: doc_field(doc, k, json_number) for k in given})


def _window_field(
    doc: dict, dist: NextPriceDistribution, count_key: str, mass_key: str
) -> int:
    """A window half-width, given in ``doc`` as a count or as a probability mass."""
    if count_key in doc and mass_key in doc:
        raise InputError(f"strategy document gives both {count_key} and {mass_key}")
    if count_key in doc:
        return doc_field(doc, count_key, json_count)
    if mass_key in doc:
        return window_for_mass(dist, doc_field(doc, mass_key, json_number))
    raise InputError(f"strategy document needs {count_key} or {mass_key}")


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
    n_tau: int,
    n_alpha: int,
) -> StrategySpec:
    """A(j) proportional to h(j), renormalized over B_alpha.

    alpha may be wider or narrower than tau; a window given as a probability
    mass is ``window_for_mass(dist, mass)``.
    """
    if n_alpha < 0:
        raise InputError(f"n_alpha must be >= 0, got {n_alpha}")
    raw = centred(dist.probs, n_alpha)
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
