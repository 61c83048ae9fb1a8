"""Historical replay of a tau-reset strategy and the Uniswap-v2 baseline.

The v2 baseline spreads liquidity uniformly over every bin of the grid, so it
earns kappa*ell/N every step and never resets. Note the comparison, exactly
like the baseline it mirrors, ignores impermanent loss and pool-share
dilution.

Ratio accounting: the strategy-vs-v2 ratio is computed on unshifted
utilities u(R). The +1 reward shift is a strategy-independent constant that
would dominate both sides of the quotient and wash the comparison out; on
reward-scale utilities the ratio is meaningful for every risk level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bins import BinGrid, distinct_ranks
from .distribution import PriceSeries
from .errors import InputError, NumericalError
from .simulate import BLOCK_ROWS, count_stats, execute, payoffs
from .strategies import StrategySpec
from .utility import UtilityParams, exp_utility

__all__ = ["Band", "BacktestReport", "replay", "v2_baseline"]


@dataclass(frozen=True, eq=False)
class Band:
    """The liquidity band of a replay, as columns.

    Row i is step i + 1, at ``prices[i]``. The rows form runs under one
    centre: the first run starts at row 0 and every other at a reset, so
    run r covers rows ``starts[r]`` up to the next start. ``edges`` has one
    row (alpha_low, alpha_high, tau_low, tau_high) per distinct centre, and
    run r has the edges ``edges[edge_of_run[r]]``.
    """

    prices: np.ndarray
    starts: np.ndarray
    edge_of_run: np.ndarray
    edges: np.ndarray


@dataclass(frozen=True)
class BacktestReport:
    steps: int
    resets: int
    mean_utility_per_step: float
    v2_mean_utility_per_step: float
    ratio: float
    grid_bins: int
    band: Band | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "steps": int(self.steps),
            "resets": int(self.resets),
            "mean_utility_per_step": float(self.mean_utility_per_step),
            "v2_mean_utility_per_step": float(self.v2_mean_utility_per_step),
            "ratio": float(self.ratio),
            "grid_bins": int(self.grid_bins),
        }

    def write_band_csv(self, path: str) -> None:
        """Write the band as CSV, with the bytes ``csv.writer`` gives.

        Each distinct edge value is formatted once and each centre's edge
        columns are joined once; each row adds its step and price. Rows are
        written ``BLOCK_ROWS`` at a time, and each block finds its rows'
        runs in ``starts``, so the writer holds one block, never the path.
        """
        band = self.band
        if band is None:
            raise InputError("replay was run without band collection")
        values, at = np.unique(band.edges, return_inverse=True)
        text = np.array(["," + repr(v) for v in values.tolist()], dtype=object)[at]
        tails = [a + b + c + d + "\r\n" for a, b, c, d in text.reshape(-1, 4).tolist()]
        n = len(band.prices)
        with open(path, "w", newline="") as fh:
            fh.write("step,price,alpha_low,alpha_high,tau_low,tau_high\r\n")
            for lo in range(0, n, BLOCK_ROWS):
                hi = min(lo + BLOCK_ROWS, n)
                run = np.searchsorted(band.starts, np.arange(lo, hi), side="right") - 1
                rows = zip(
                    range(lo + 1, hi + 1),
                    band.prices[lo:hi].tolist(),
                    band.edge_of_run[run].tolist(),
                )
                fh.write("".join([f"{step},{price!r}{tails[e]}" for step, price, e in rows]))


def v2_baseline(series: PriceSeries, grid: BinGrid, params: UtilityParams) -> float:
    """Guaranteed per-step utility of uniform liquidity over all N grid bins.

    The utility is unshifted, u(kappa*ell/N), as on the strategy side of
    replay()'s ratio (see module docstring).
    """
    span_lo, span_hi = grid.covered_span()
    lo, hi = float(series.prices.min()), float(series.prices.max())
    if lo < span_lo or hi >= span_hi:
        raise InputError("grid does not span the series' full price range")
    return exp_utility(params.kappa * params.ell / grid.n_bins, params)


def replay(
    series: PriceSeries,
    spec: StrategySpec,
    grid: BinGrid,
    collect_band: bool = False,
) -> BacktestReport:
    """Drive the tau-reset semantics with realized price moves.

    Multi-bin jumps are allowed; a jump beyond B_tau is a single reset at the
    fixed cost of 1, re-centering on the landing bin. The step moves are the
    bin differences: bins[t] - center = (bins[t] - bins[t-1]) + offset left
    by step t-1. The mean and reset count come from the landings per payoff
    row, as in ``run_strategy``; only the band gathers the reset flags, which
    start its runs. Each path-sized array is freed once used: the bins once
    differenced, the moves once walked, the rows once counted or gathered and
    the offsets once they have given the band's centres. A ratio that is not
    finite is refused.
    """
    params = spec.params
    n_tau, n_alpha = spec.n_tau, spec.n_alpha

    js = execute(np.diff(grid.prices_to_bins(series.prices)), n_tau)
    rows, _, utilities, resets = payoffs(js, spec, 0.0)
    counts = np.bincount(rows, minlength=len(resets))
    mean, _ = count_stats(counts, utilities)

    band = None
    if collect_band:
        first = resets[rows]
        del rows
        if not first[0]:
            js[0] = 0  # the first run is centred on the series' first bin
        first[0] = True  # row 0 starts the first run
        starts = np.flatnonzero(first)
        del first
        # a run that starts at a reset is centred on the bin it reset to: the
        # previous centre plus the landing offset of the step that reset;
        # every run but the first starts at a reset
        centres = js[starts]
        del js
        centres[0] += grid.price_to_bin(float(series.prices[0]))
        np.cumsum(centres, out=centres)
        distinct, edge_of_run = distinct_ranks(centres)
        del centres
        # band edges may poke past the grid's covered span near the series
        # extremes, so they are computed for any index, not read off the grid
        edges = grid.edges_at(distinct[:, None] + [-n_alpha, n_alpha + 1, -n_tau, n_tau + 1])
        band = Band(series.prices[1:], starts, edge_of_run, edges)
    v2_mean = v2_baseline(series, grid, params)
    # the v2 utility may underflow to 0, or the quotient overflow
    ratio = mean / v2_mean if v2_mean != 0.0 else math.nan
    if not math.isfinite(ratio):
        raise NumericalError(
            f"ratio of mean utility {mean!r} to the v2 baseline's {v2_mean!r} is not finite"
        )
    return BacktestReport(
        steps=int(counts.sum()),
        resets=int(counts[resets].sum()),
        mean_utility_per_step=mean,
        v2_mean_utility_per_step=v2_mean,
        ratio=ratio,
        grid_bins=grid.n_bins,
        band=band,
    )
