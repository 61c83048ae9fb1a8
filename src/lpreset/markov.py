"""Reset Markov chain over the reset window B_tau, and its landing law.

The chain tracks the price offset from the last reset center. Any move that
exits B_tau triggers a reallocation centered on the new price, which the
chain models as a transition back to the center state: M(i, j) = f(i, j) for
j != 0 and M(i, 0) = f(i, 0) + g(i), where f(i, j) = h(j - i) and
g(i) = 1 - sum_{j in B_tau} f(i, j).

``landing_law`` gives what the rest of the package needs, in closed form:

* the stationary law p over B_tau, by renewal-reward. A cycle runs from one
  reset to the next, starting at the center and moving by F, the in-window
  block of f; its expected visits to each state are e_0 (I - F)^-1, which
  normalize to p and sum to the expected cycle length (1 / reset rate).
* the landing law q(j) = sum_i p(i) h(j - i) over |j| <= n_tau + k_max: the
  convolution of p with h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import NextPriceDistribution, at_offsets, centred
from .errors import InputError, NumericalError

__all__ = [
    "LandingLaw",
    "ResetChain",
    "OutcomeMatrix",
    "landing_law",
    "build_reset_chain",
    "stationary_distribution",
    "outcome_matrix",
    "landing_distribution",
    "landing_over",
]

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class LandingLaw:
    """Stationary law over B_tau and landing law q over the full reach.

    ``q`` runs over j in [-reach, reach], reach = n_tau + k_max, and sums to
    1. ``cycle_length`` is the expected number of steps from one reset to the
    next (inf for the no-move h).
    """

    n_tau: int
    stationary: np.ndarray
    q: np.ndarray
    cycle_length: float

    @property
    def reach(self) -> int:
        return (self.q.shape[0] - 1) // 2

    def over(self, n: int) -> np.ndarray:
        """q(j) for |j| <= n, zero beyond the reach."""
        return centred(self.q, n)


@dataclass(frozen=True)
class ResetChain:
    """Transition matrix over B_tau plus its stationary distribution p_tau."""

    n_tau: int
    M: np.ndarray
    stationary: np.ndarray


@dataclass(frozen=True)
class OutcomeMatrix:
    """O(i, j) = f(i, j) over i in B_tau, j in B_alpha. Row sums may be < 1."""

    n_tau: int
    n_alpha: int
    O: np.ndarray


def _f_block(dist: NextPriceDistribution, n_rows: int, n_cols: int) -> np.ndarray:
    """Matrix of f(i, j) for i in [-n_rows, n_rows], j in [-n_cols, n_cols].

    f(i, j) = h(j - i) is Toeplitz: a read-only view of one zero-padded h.
    """
    reach = n_rows + n_cols
    pad = max(dist.k_max, reach)
    h = centred(dist.probs, pad)
    return np.lib.stride_tricks.as_strided(  # row i + 1 starts one offset back
        h[pad - reach + 2 * n_rows :],
        shape=(2 * n_rows + 1, 2 * n_cols + 1),
        strides=(-h.itemsize, h.itemsize),
        writeable=False,
    )


def _cycle_visits(F: np.ndarray) -> np.ndarray | None:
    """Expected visits e_center (I - F)^-1 to each state in a cycle from the center.

    F holds the transitions that continue the cycle. The visits are sums of
    non-negative terms, so rounding below zero is cleared. None when I - F is
    singular: some states never end the cycle.
    """
    n = F.shape[0]
    start = np.zeros(n)
    start[n // 2] = 1.0
    try:
        return np.maximum(np.linalg.solve(np.eye(n) - F.T, start), 0.0)
    except np.linalg.LinAlgError:
        return None


def landing_law(dist: NextPriceDistribution, n_tau: int) -> LandingLaw:
    """The stationary and landing laws of the reset chain, in closed form."""
    if n_tau < 0:
        raise InputError(f"n_tau must be >= 0, got {n_tau}")
    try:
        visits = _cycle_visits(_f_block(dist, n_tau, n_tau))
    except MemoryError:
        raise InputError(
            f"n_tau {n_tau} is too large: its {2 * n_tau + 1}-state chain does not fit in memory"
        ) from None
    if visits is None:  # only the no-move h (h(0) = 1) never leaves the center
        p, cycle = np.zeros(2 * n_tau + 1), math.inf
        p[n_tau] = 1.0
    else:
        cycle = float(visits.sum())
        p = visits / cycle
    return LandingLaw(
        n_tau=n_tau, stationary=p, q=np.convolve(p, dist.probs), cycle_length=cycle
    )


def build_reset_chain(dist: NextPriceDistribution, n_tau: int) -> ResetChain:
    p = landing_law(dist, n_tau).stationary
    M = _f_block(dist, n_tau, n_tau).copy()
    M[:, n_tau] += np.maximum(1.0 - M.sum(axis=1), 0.0)
    return ResetChain(n_tau=n_tau, M=M, stationary=p)


def stationary_distribution(M: np.ndarray) -> np.ndarray:
    """Left fixed point p M = p of a stochastic matrix, normalized to sum 1.

    Renewal-reward with the center state n // 2 (where every reset chain
    resets to) as the renewal state: a cycle ends at each entry to it.
    Raises NumericalError when some states never reach the center, which
    covers every M without a unique fixed point.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise InputError(f"matrix must be square, got {M.shape}")
    if np.any(np.abs(M.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        raise InputError("matrix rows must sum to 1")
    F = M.copy()
    F[:, n // 2] = 0.0
    visits = _cycle_visits(F)
    if visits is not None:
        p = visits / visits.sum()
        if float(np.max(np.abs(p @ M - p))) < STATIONARY_TOL:
            return p
    raise NumericalError("no unique stationary law: a state never reaches the center")


def outcome_matrix(
    dist: NextPriceDistribution, n_tau: int, n_alpha: int
) -> OutcomeMatrix:
    if n_tau < 0 or n_alpha < 0:
        raise InputError("n_tau and n_alpha must be >= 0")
    return OutcomeMatrix(n_tau=n_tau, n_alpha=n_alpha, O=_f_block(dist, n_tau, n_alpha))


def landing_distribution(chain: ResetChain, O: OutcomeMatrix) -> np.ndarray:
    """q(j) = sum_i p_tau(i) f(i, j); sum q <= 1, deficit = mass beyond B_alpha."""
    if chain.n_tau != O.n_tau:
        raise InputError(
            f"chain n_tau {chain.n_tau} != outcome matrix n_tau {O.n_tau}"
        )
    return chain.stationary @ O.O


def landing_over(
    dist: NextPriceDistribution, chain: ResetChain, js: np.ndarray
) -> np.ndarray:
    """q(j) over arbitrary relative offsets js (zero beyond the reach)."""
    return at_offsets(np.convolve(chain.stationary, dist.probs), js)
