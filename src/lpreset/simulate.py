"""Monte Carlo simulation of the binned price process and strategy execution."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .distribution import NextPriceDistribution
from .errors import InputError, NumericalError
from .strategies import StrategySpec
from .utility import exp_utility, landing_rewards, resets_over

__all__ = ["SimReport", "sample_path", "execute", "payoffs", "run_strategy"]

RNG_ALGORITHM = "pcg64"
BLOCK_ROWS = 512  # rows of a per-step CSV (trace or band) formatted and written at once
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
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
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
    # the walk; each step's landing offset overwrites its move, once read
    js = np.clip(moves, -sure, sure)
    size = np.abs(js)
    reach = n_tau + int(size.max(initial=0))
    ends = np.flatnonzero(size == sure)  # the sure resets
    del size
    rest = moves[ends] - js[ends]  # the only steps where walk and move differ
    del moves  # a caller that passes a temporary, as replay does, frees it here
    # settle[j] is the offset left after landing at j; negative j index from the end
    settle = np.roll(np.where(resets_over(reach, n_tau), 0, np.arange(-reach, reach + 1)), -reach)
    starts = np.concatenate(([0], ends + 1))
    lengths = np.append(starts[1:], len(js)) - starts
    order = np.argsort(-lengths)
    starts, lengths = starts[order], lengths[order]
    # positions run side by side while LOCKSTEP_MIN stretches or more are live
    lock = int(lengths[LOCKSTEP_MIN - 1]) if len(lengths) >= LOCKSTEP_MIN else 0
    # live_at[pos]: the stretches longer than pos, which come first
    live_at = np.searchsorted(-lengths, -np.arange(lock + 1), side="left").tolist()
    state = np.zeros(live_at[0], dtype=np.int64)
    for pos, live in enumerate(live_at[:-1]):
        at = starts[:live] + pos
        j = state[:live] + js[at]
        js[at] = j
        state[:live] = settle[j]
    live = live_at[-1]
    settle_at = settle.tolist()
    tails = zip(starts[:live].tolist(), lengths[:live].tolist(), state[:live].tolist())
    for start, length, offset in tails:
        tail = []
        for move in js[start + lock : start + length].tolist():
            j = offset + move
            tail.append(j)  # a list appends faster than an array("q")
            offset = settle_at[j]
        js[start + lock : start + length] = np.frombuffer(array("q", tail), np.int64)
    js[ends] += rest
    return js


def payoffs(
    js: np.ndarray, spec: StrategySpec, shift: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The row of each step in the payoff tables, given its landing offset in
    ``js``, and the tables: reward, utility u(reward + shift) and reset flag.

    Every offset past far - 1 = max(n_tau, n_alpha) earns exactly -1 and
    resets, so the tables cover the offsets -far..far and a step's row is
    its offset clipped to +-far, plus far. Step t earns ``rewards[rows[t]]``:
    a caller gathers the per-step columns it uses and no other. Every step's
    reset flag is read here, from ``resets_over``.
    """
    far = max(spec.n_tau, spec.n_alpha) + 1
    resets = resets_over(far, spec.n_tau)
    table = landing_rewards(spec.allocation.over(far), resets, spec.params)
    rows = np.clip(js, -far, far)
    rows += far  # in place: no second path-sized array
    return rows, table, exp_utility(table + shift, spec.params), resets


def scale_down(utilities: np.ndarray) -> float:
    """Divide ``utilities`` in place by 2**k, k >= 0 the least with max |u| / 2**k < 2,
    and return 2**k. The mean and std of the scaled values times 2**k are the same
    bits as the unscaled ones, but their sums cannot overflow."""
    scale = max(1.0, math.ldexp(0.5, math.frexp(max(utilities.max(), -utilities.min()))[1]))
    utilities /= scale  # in place: one more path-sized array here raised the peak RSS
    return scale


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
    rows, *tables = payoffs(js, spec, spec.params.shift)
    rewards, utilities, resets = (table[rows] for table in tables)
    del rows
    # a running sum in step order, from 0.0 (which turns a -0.0 total into 0.0)
    with np.errstate(over="ignore"):
        total = float(np.cumsum(rewards)[-1]) + 0.0
    if not math.isfinite(total):
        raise NumericalError(f"total reward of {n} steps overflows at kappa * ell = "
                             f"{spec.params.kappa * spec.params.ell!r}")

    if trace_out is not None:
        _write_trace(trace_out, js, rewards, resets)

    scale = scale_down(utilities)
    mean = float(utilities.mean()) * scale
    std_error = float(utilities.std(ddof=1) * scale / math.sqrt(n)) if n > 1 else 0.0
    return SimReport(
        steps=n,
        resets=int(np.count_nonzero(resets)),
        total_reward=total,
        mean_utility_per_step=mean,
        std_error=std_error,
        seed=seed,
    )


def _write_trace(path: str, js: np.ndarray, rewards: np.ndarray, resets: np.ndarray) -> None:
    """Write the per-step trace CSV, with the bytes ``csv.writer`` gives.

    A step's reward and reset flag depend only on its landing offset, so
    the rest of a row is formatted once per distinct offset, when a block
    first holds it. Rows are read, formatted and written a block at a time,
    so the writer holds one block, never the path.
    """
    tails = {}
    with open(path, "w", newline="") as fh:
        fh.write("step,offset,reward,reset_flag\r\n")
        for lo in range(0, len(js), BLOCK_ROWS):
            block = js[lo : lo + BLOCK_ROWS]
            offsets, first = np.unique(block, return_index=True)
            for j, i in zip(offsets.tolist(), (first + lo).tolist()):
                if j not in tails:
                    tails[j] = f",{j},{float(rewards[i])!r},{int(resets[i])}\r\n"
            fh.write("".join([f"{t}{tails[j]}" for t, j in enumerate(block.tolist(), lo)]))
