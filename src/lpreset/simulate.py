"""Monte Carlo simulation of the binned price process and strategy execution."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .distribution import NextPriceDistribution, json_fields
from .errors import InputError, NumericalError
from .strategies import StrategySpec
from .utility import exp_utility, landing_rewards, resets_over

__all__ = ["SimReport", "sample_path", "execute", "payoffs", "run_strategy"]

RNG_ALGORITHM = "pcg64"
BLOCK_ROWS = 512  # rows of a per-step CSV (trace or band) formatted and written at once
GUIDE_CELLS = 4096  # guide-table cells of sample_path; a power of two
LOCKSTEP_MIN = 32  # fewer live runs than this finish one step at a time


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
        return json_fields(self)


def sample_path(dist: NextPriceDistribution, steps: int, seed: int) -> np.ndarray:
    """i.i.d. relative moves drawn from h via inverse-CDF over the bin table.

    A uniform u draws move k - k_max for k = searchsorted(cdf, u, "right"),
    the count of CDF entries <= u. A guide table over ``GUIDE_CELLS`` equal
    cells of [0, 1) holds that move for each cell without a CDF entry
    inside, where it is the same for every u of the cell; only draws in the
    few cells that hold an entry are searched. ``GUIDE_CELLS`` is a power of
    two, so u and the CDF scale by it exactly, in place, and the floor of a
    scaled u is its cell: every k is the one the search gives. The searched
    draws' u are taken before the moves are gathered, so u is freed first
    and at most two arrays as long as the path are alive at once.
    """
    if steps < 1:
        raise InputError(f"steps must be >= 1, got {steps}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0  # guard against cumulative rounding
    cdf *= GUIDE_CELLS
    u = rng.random(steps)
    u *= GUIDE_CELLS
    bounds = np.arange(GUIDE_CELLS + 1)
    lo = np.searchsorted(cdf, bounds[:-1], side="right")  # entries <= cell start
    hi = np.searchsorted(cdf, bounds[1:], side="left")  # entries < cell end
    cells = u.astype(np.intp)
    split = np.flatnonzero((lo < hi)[cells])  # draws in a cell that holds an entry
    u = u[split]
    moves = (lo - dist.k_max)[cells]  # a split draw's move is set below
    del cells
    moves[split] = np.searchsorted(cdf, u, side="right") - dist.k_max
    return moves


def execute(moves: np.ndarray, n_tau: int) -> np.ndarray:
    """Landing offset j of each step of a tau-reset strategy driven by ``moves``.

    j is measured from the centre in force before the step: the offset left
    by the previous step plus this step's move. The offset left after a step
    is j when |j| <= n_tau, and 0 when the step resets (re-centres).

    A *sure reset* is a move with |m| > 2*n_tau: from any offset o in B_tau
    it lands at |o + m| >= |m| - n_tau > n_tau, so it resets whatever the
    offset. The sure resets cut the path into runs of other moves, each of
    which starts at offset 0 and is independent of the others; a sure reset
    lands at its move plus the offset the run before it left (0 after
    another sure reset), and no table grows with the move. The runs advance
    side by side, one position per numpy step, longest first, until fewer
    than ``LOCKSTEP_MIN`` are left; those finish one step at a time, as does
    the whole walk of a path without sure resets. Every step is the same
    integer arithmetic as the one-step loop, so the offsets are the same.

    The runs are found and ordered before the offsets are copied from the
    moves, so besides ``moves`` one array as long as the path, and the runs'
    starts, lengths and offsets, are alive at once.
    """
    moves = np.asarray(moves, dtype=np.int64)
    size = np.abs(moves)
    reach = n_tau + min(int(size.max(initial=0)), 2 * n_tau)  # bounds a walked |j|
    cut = np.concatenate(([True], size > 2 * n_tau, [True]))  # sure resets, and both ends
    del size
    # a run starts after a cut and stops at the next: at a sure reset or the path's end
    starts = np.flatnonzero(cut[1:] < cut[:-1])
    lengths = np.flatnonzero(cut[:-1] < cut[1:]) - starts
    del cut
    order = np.argsort(-lengths)
    starts, lengths = starts[order], lengths[order]
    del order
    js = moves.copy()  # each landing offset overwrites its move, once read
    del moves  # a caller that passes a temporary, as replay does, frees it here
    # settle[j] is the offset left after landing at j; negative j index from the end
    settle = np.roll(np.where(resets_over(reach, n_tau), 0, np.arange(-reach, reach + 1)), -reach)
    # positions run side by side while LOCKSTEP_MIN runs or more are live
    lock = int(lengths[LOCKSTEP_MIN - 1]) if len(lengths) >= LOCKSTEP_MIN else 0
    # live_at[pos]: the runs longer than pos, which come first
    live_at = np.searchsorted(-lengths, -np.arange(lock + 1), side="left").tolist()
    # state[r]: the offset run r has left so far
    state = np.zeros(len(starts), dtype=np.int64)
    for pos, live in enumerate(live_at[:-1]):
        at = starts[:live] + pos
        j = js[at]
        j += state[:live]
        js[at] = j
        state[:live] = settle[j]
    live = live_at[-1]
    settle_at = settle.tolist()
    tails = zip(starts[:live].tolist(), lengths[:live].tolist(), state[:live].tolist())
    for run, (start, length, offset) in enumerate(tails):
        tail = []
        for move in js[start + lock : start + length].tolist():
            j = offset + move
            tail.append(j)  # a list appends faster than an array("q")
            offset = settle_at[j]
        js[start + lock : start + length] = np.frombuffer(array("q", tail), np.int64)
        state[run] = offset
    # a sure reset lands at its move plus the offset the run before it left
    stops = starts + lengths
    del starts, lengths
    before = stops < len(js)  # the runs a sure reset follows
    js[stops[before]] += state[before]
    return js


def payoffs(
    js: np.ndarray, spec: StrategySpec, shift: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The row of each step in the payoff tables, given its landing offset in
    ``js``, and the tables: reward, utility u(reward + shift) and reset flag.

    Every offset past far - 1 = max(n_tau, n_alpha) earns exactly -1 and
    resets, so the tables cover the offsets -far..far and a step's row is
    its offset clipped to +-far, plus far. Step t earns ``rewards[rows[t]]``,
    so a path's sums are its landings per row times the tables. Every step's
    reset flag is read here, from ``resets_over``.
    """
    far = max(spec.n_tau, spec.n_alpha) + 1
    resets = resets_over(far, spec.n_tau)
    table = landing_rewards(spec.allocation.over(far), resets, spec.params)
    rows = np.clip(js, -far, far)
    rows += far  # in place: no second path-sized array
    return rows, table, exp_utility(table + shift, spec.params), resets


def count_stats(counts: np.ndarray, table: np.ndarray) -> tuple[float, float]:
    """Mean and i.i.d. standard error std(ddof=1) / sqrt(n) (0.0 at n = 1) of the
    n = sum(counts) values of which ``counts[r]`` are ``table[r]``.

    The landed rows' values are divided by 2**k, k >= 0 the least with max |u|
    / 2**k < 2, so no sum overflows; a power of two changes no other bit. Each
    sum is ``(counts * values).sum()``: no BLAS call, whose bits vary by CPU.
    """
    landed = counts > 0
    counts, values = counts[landed], table[landed]
    n = int(counts.sum())
    scale = max(1.0, math.ldexp(0.5, math.frexp(float(np.abs(values).max()))[1]))
    values = values / scale
    mean = (counts * values).sum() / n
    deviations = values - mean  # exactly 0.0 at n = 1, where the error is 0.0
    variance = (counts * deviations * deviations).sum() / max(n - 1, 1)
    return float(mean) * scale, math.sqrt(variance) * scale / math.sqrt(n)


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

    The total reward, reset count, mean and i.i.d. standard error (which
    treats the steps as independent) come from the landings per payoff row.
    """
    n = len(path)
    if n < 1:
        raise InputError("path must have at least one move")
    js = execute(path, spec.n_tau)
    del path  # a caller that passes a temporary, as cmd_simulate does, frees it here
    rows, rewards, utilities, resets = payoffs(js, spec, spec.params.shift)
    counts = np.bincount(rows, minlength=len(rewards))
    del rows
    with np.errstate(over="ignore"):
        total = 0.0 + float((counts * rewards).sum())  # 0.0 +: a -0.0 total reads 0.0
    if not math.isfinite(total):
        raise NumericalError(f"total reward of {n} steps overflows at kappa * ell = "
                             f"{spec.params.kappa * spec.params.ell!r}")

    if trace_out is not None:
        _write_trace(trace_out, js, rewards, resets)
    del js
    mean, std_error = count_stats(counts, utilities)
    return SimReport(
        steps=n,
        resets=int(counts[resets].sum()),
        total_reward=total,
        mean_utility_per_step=mean,
        std_error=std_error,
        seed=seed,
    )


def _write_trace(path: str, js: np.ndarray, rewards: np.ndarray, resets: np.ndarray) -> None:
    """Write the per-step trace CSV, with the bytes ``csv.writer`` gives.

    ``rewards`` and ``resets`` are the payoff tables of ``payoffs``, over
    the offsets -far..far. A step's reward and reset flag depend only on
    its landing offset, so the rest of a row is formatted once per distinct
    offset, when a block first holds it, from the table row of the offset.
    Rows are read, formatted and written a block at a time, so the writer
    holds one block, never the path.
    """
    far = len(rewards) // 2
    tails = {}
    with open(path, "w", newline="") as fh:
        fh.write("step,offset,reward,reset_flag\r\n")
        for lo in range(0, len(js), BLOCK_ROWS):
            block = js[lo : lo + BLOCK_ROWS].tolist()
            for j in set(block).difference(tails):
                row = min(max(j, -far), far) + far
                tails[j] = f",{j},{float(rewards[row])!r},{int(resets[row])}\r\n"
            fh.write("".join([f"{t}{tails[j]}" for t, j in enumerate(block, lo)]))
