"""Monte Carlo simulation of the binned price process and strategy execution."""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .distribution import NextPriceDistribution
from .errors import InputError
from .strategies import StrategySpec
from .utility import exp_utility, landing_rewards

__all__ = ["SimReport", "sample_path", "execute", "payoffs", "run_strategy"]

RNG_ALGORITHM = "pcg64"
TRACE_BLOCK_ROWS = 4096  # trace rows formatted before each write
GUIDE_CELLS = 4096  # guide-table cells of sample_path; a power of two
LOCKSTEP_MIN = 32  # fewer live stretches than this finish one step at a time


@dataclass(frozen=True)
class SimReport:
    steps: int
    resets: int
    total_reward: float
    mean_utility_per_step: float
    std_error: float
    seed: int
    rng: str = RNG_ALGORITHM

    def to_json_dict(self) -> dict:
        return {
            "steps": int(self.steps),
            "resets": int(self.resets),
            "total_reward": float(self.total_reward),
            "mean_utility_per_step": float(self.mean_utility_per_step),
            "std_error": float(self.std_error),
            "seed": int(self.seed),
            "rng": self.rng,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def sample_path(dist: NextPriceDistribution, steps: int, seed: int) -> np.ndarray:
    """i.i.d. relative moves drawn from h via inverse-CDF over the bin table.

    A uniform u draws move k - k_max for k = searchsorted(cdf, u, "right"),
    the count of CDF entries <= u. A guide table over ``GUIDE_CELLS`` equal
    cells of [0, 1) holds that count for each cell without a CDF entry
    inside, where it is the same for every u of the cell; only draws in the
    few cells that hold an entry are searched. ``GUIDE_CELLS`` is a power of
    two, so u * GUIDE_CELLS is exact and its floor is the cell of u: every
    k is the one the search gives.
    """
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0  # guard against cumulative rounding
    u = rng.random(steps)
    edges = np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
    lo = np.searchsorted(cdf, edges[:-1], side="right")  # entries <= cell start
    hi = np.searchsorted(cdf, edges[1:], side="left")  # entries < cell end
    ks = np.where(lo == hi, lo, -1)[(u * GUIDE_CELLS).astype(np.intp)]
    split = np.flatnonzero(ks < 0)
    ks[split] = np.searchsorted(cdf, u[split], side="right")
    return ks - dist.k_max


def execute(moves: np.ndarray, n_tau: int) -> np.ndarray:
    """Landing offset j of each step of a tau-reset strategy driven by ``moves``.

    j is measured from the centre in force before the step: the offset left
    by the previous step plus this step's move. The offset left after a step
    is j when |j| <= n_tau, and 0 when the step resets (re-centres).

    A *sure reset* is a move with |m| > 2*n_tau: from any offset o in B_tau
    it lands at |o + m| >= |m| - n_tau > n_tau, so it resets whatever the
    offset. It is walked as +-(2*n_tau + 1), which resets the same way, and
    the rest of it is added back to its landing offset, so no table grows
    with the move. The walk splits into stretches, each ending with a sure
    reset (or the path's end), that all start at offset 0 and are
    independent of one another. The stretches advance side by side, one
    position per numpy step, longest first, until fewer than
    ``LOCKSTEP_MIN`` are left; those finish one step at a time, as does the
    whole walk of a path without sure resets. Every step is the same integer
    arithmetic as the one-step loop, so the offsets are the same.
    """
    moves = np.asarray(moves, dtype=np.int64)
    sure = 2 * n_tau + 1
    walk = np.clip(moves, -sure, sure)
    reach = n_tau + int(np.abs(walk).max(initial=0))
    # settle[j] is the offset left after landing at j; negative j index from the end
    settle = np.zeros(2 * reach + 1, dtype=np.int64)
    kept = np.arange(-n_tau, n_tau + 1)
    settle[kept] = kept
    bounds = np.flatnonzero(np.abs(walk) == sure) + 1
    starts = np.concatenate(([0], bounds))
    lengths = np.append(bounds, len(moves)) - starts
    order = np.argsort(-lengths)
    starts, lengths = starts[order], lengths[order]
    js = np.empty(len(moves), dtype=np.int64)
    # positions run side by side while LOCKSTEP_MIN stretches or more are live
    lock = int(lengths[LOCKSTEP_MIN - 1]) if len(lengths) >= LOCKSTEP_MIN else 0
    # live_at[pos]: the stretches longer than pos, which come first
    live_at = np.searchsorted(-lengths, -np.arange(lock + 1), side="left").tolist()
    state = np.zeros(live_at[0], dtype=np.int64)
    for pos, live in enumerate(live_at[:-1]):
        at = starts[:live] + pos
        j = state[:live] + walk[at]
        js[at] = j
        state[:live] = settle[j]
    live = live_at[-1]
    settle_at = settle.tolist()
    tails = zip(starts[:live].tolist(), lengths[:live].tolist(), state[:live].tolist())
    for start, length, offset in tails:
        tail = []
        for move in walk[start + lock : start + length].tolist():
            j = offset + move
            tail.append(j)  # a list appends faster than an array("q")
            offset = settle_at[j]
        js[start + lock : start + length] = np.frombuffer(array("q", tail), np.int64)
    js += moves  # in place: a path-sized temporary here slowed the walk measurably
    js -= walk
    return js


def payoffs(
    js: np.ndarray, spec: StrategySpec, shift: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reward, utility u(reward + shift) and reset flag of each step, given its
    landing offset in ``js``.

    Every offset past far - 1 = max(n_tau, n_alpha) earns exactly -1 and
    resets, so the offsets are clipped to +-far and each step reads its
    entries of one table per quantity. This is the one place a step's reset
    flag is decided.
    """
    far = max(spec.n_tau, spec.n_alpha) + 1
    resets = np.abs(np.arange(-far, far + 1)) > spec.n_tau
    table = landing_rewards(spec.allocation.over(far), resets, spec.params)
    at = np.clip(js, -far, far)
    at += far  # in place, as in execute
    return table[at], exp_utility(table + shift, spec.params)[at], resets[at]


def run_strategy(
    path: np.ndarray,
    spec: StrategySpec,
    seed: int = 0,
    trace_out: str | None = None,
) -> SimReport:
    """Execute a tau-reset strategy along a path of relative moves.

    Each step lands at offset j = state + move. Landing inside B_tau credits
    kappa*ell*A(j) (zero for bins beyond B_alpha); landing outside B_tau
    additionally pays the fixed reset fee of 1 and re-centers the strategy.
    Per-step utilities use the same shift convention as expected_utility, so
    the sample mean estimates the analytic full-coverage E_u.
    """
    n = len(path)
    if n < 1:
        raise InputError("path must have at least one move")
    js = execute(path, spec.n_tau)
    rewards, utilities, resets = payoffs(js, spec, spec.params.shift)

    if trace_out is not None:
        _write_trace(trace_out, js, rewards, resets)

    mean = float(utilities.mean())
    std_error = float(utilities.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SimReport(
        steps=n,
        resets=int(np.count_nonzero(resets)),
        # a running sum in step order, from 0.0 (which turns a -0.0 total into 0.0)
        total_reward=float(np.cumsum(rewards)[-1]) + 0.0,
        mean_utility_per_step=mean,
        std_error=std_error,
        seed=seed,
    )


def _write_trace(path: str, js: np.ndarray, rewards: np.ndarray, resets: np.ndarray) -> None:
    """Write the per-step trace CSV, with the bytes ``csv.writer`` gives.

    A step's reward and reset flag depend only on its landing offset, so
    the rest of a row is formatted once per distinct offset. Rows are
    formatted and written a block at a time.
    """
    offsets = js.tolist()
    steps = zip(rewards.tolist(), resets.tolist())
    tails = {j: f",{j},{r!r},{int(f)}\r\n" for j, (r, f) in dict(zip(offsets, steps)).items()}
    with open(path, "w", newline="") as fh:
        fh.write("step,offset,reward,reset_flag\r\n")
        for start in range(0, len(offsets), TRACE_BLOCK_ROWS):
            block = offsets[start : start + TRACE_BLOCK_ROWS]
            fh.write("".join([f"{t}{tails[j]}" for t, j in enumerate(block, start)]))
