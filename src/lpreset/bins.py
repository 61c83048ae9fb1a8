"""Geometric price-bin grid.

Bin i covers the half-open price interval
``[reference_price * (1+step)^i, reference_price * (1+step)^(i+1))``,
so equal-width bins in log-price correspond to equal percent moves and the
relative-offset price model is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError

__all__ = ["BinGrid"]


@dataclass(frozen=True)
class BinGrid:
    """Immutable geometric grid mapping prices to integer bin indices.

    reference_price anchors bin 0; step is the fractional width per bin
    (e.g. 0.00046 for 0.046%); index_range is the inclusive (lowest, highest)
    absolute index covered.
    """

    reference_price: float
    step: float
    index_range: tuple[int, int]

    def __post_init__(self) -> None:
        if self.reference_price <= 0:
            raise RangeError(f"reference_price must be > 0, got {self.reference_price}")
        if self.step <= 0:
            raise RangeError(f"step must be > 0, got {self.step}")
        lo, hi = self.index_range
        if lo > hi:
            raise RangeError(f"index_range is empty: {self.index_range}")

    @classmethod
    def from_price_range(
        cls, low: float, high: float, step: float, anchor: float | None = None
    ) -> "BinGrid":
        """Build a grid covering [low, high].

        ``anchor`` fixes the left edge of bin 0 (defaults to ``low``). The
        floor of the log ratio can put an end one bin off near an edge, so
        both ends are checked against ``_edge`` and widened where they miss.
        Only a ``high`` just under an edge gets one bin more than it needs.
        """
        if low <= 0 or high < low:
            raise RangeError(f"invalid price range [{low}, {high}]")
        if anchor is None:
            anchor = low
        base = math.log1p(step)
        lo = math.floor(math.log(low / anchor) / base)
        hi = math.floor(math.log(high / anchor) / base)
        edge = cls(reference_price=anchor, step=step, index_range=(lo, hi))._edge
        lo -= low < edge(lo)
        hi += high >= edge(hi + 1)
        return cls(reference_price=anchor, step=step, index_range=(lo, hi))

    @property
    def n_bins(self) -> int:
        lo, hi = self.index_range
        return hi - lo + 1

    def covered_span(self) -> tuple[float, float]:
        """Price span [lower edge of first bin, upper edge of last bin)."""
        lo, hi = self.index_range
        return self.bin_bounds(lo)[0], self.bin_bounds(hi)[1]

    def bin_bounds(self, index: int) -> tuple[float, float]:
        """Half-open interval [l_i, r_i) of bin ``index``.

        Adjacent bins share an edge exactly: bin_bounds(i)[1] == bin_bounds(i+1)[0]
        under the same arithmetic.
        """
        lo, hi = self.index_range
        if index < lo or index > hi:
            raise RangeError(f"bin index {index} outside covered range [{lo}, {hi}]")
        return self._edge(index), self._edge(index + 1)

    def _edge(self, index: int) -> float:
        return self.reference_price * (1.0 + self.step) ** index

    def price_to_bin(self, price: float) -> int:
        """Index of the bin whose interval contains ``price`` (see prices_to_bins)."""
        return int(self.prices_to_bins([price])[0])

    def prices_to_bins(self, prices) -> np.ndarray:
        """Index of the bin whose interval contains each of ``prices``.

        A price exactly on an edge belongs to the higher bin. The floor of the
        log ratio can land one index off near an edge, so each result is
        moved to the neighbour whose ``_edge`` interval holds the price.
        """
        prices = np.asarray(prices, dtype=float)
        lo, hi = self.index_range
        span_lo, span_hi = self._edge(lo), self._edge(hi + 1)
        outside = ~((prices >= span_lo) & (prices < span_hi))
        if outside.any():
            price = float(prices[np.argmax(outside)])
            raise RangeError(
                f"price {price} outside covered span [{span_lo}, {span_hi})"
            )
        idx = np.floor(
            np.log(prices / self.reference_price) / math.log1p(self.step)
        ).astype(np.int64)
        # scalar edges of every candidate bin i - 1 .. i + 1 and of its upper end
        known = np.unique(np.unique(idx)[:, None] + np.arange(-1, 3))
        edges = np.array([self._edge(i) for i in known.tolist()])

        def edge(indices: np.ndarray) -> np.ndarray:
            return edges[np.searchsorted(known, indices)]

        idx -= prices < edge(idx)
        idx += prices >= edge(idx + 1)
        located = (idx >= lo) & (idx <= hi)
        located &= (edge(idx) <= prices) & (prices < edge(idx + 1))
        if not located.all():
            price = float(prices[np.argmin(located)])
            raise RangeError(f"price {price} could not be located on the grid")
        return idx
