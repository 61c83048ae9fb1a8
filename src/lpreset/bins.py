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
        if not 0 < self.reference_price < math.inf:
            raise RangeError(
                f"reference_price must be finite and > 0, got {self.reference_price}"
            )
        if not 0 < self.step < math.inf:
            raise RangeError(f"step must be finite and > 0, got {self.step}")
        if 1.0 + self.step == 1.0:
            raise RangeError(f"step {self.step} is too small: 1 + step == 1, every edge equal")
        lo, hi = self.index_range
        if lo > hi:
            raise RangeError(f"index_range is empty: {self.index_range}")

    @classmethod
    def from_price_range(cls, low: float, high: float, step: float, anchor: float) -> "BinGrid":
        """The least grid covering [low, high] with bin 0 starting at ``anchor``:
        from the bin of ``low`` to the bin of ``high``, as ``_locate`` reads them."""
        if not 0 < low <= high < math.inf:
            raise RangeError(f"invalid price range [{low}, {high}]")
        anchored = cls(reference_price=anchor, step=step, index_range=(0, 0))
        lo, hi = anchored._locate([low, high])[0].tolist()
        return cls(reference_price=anchor, step=step, index_range=(lo, hi))

    @property
    def n_bins(self) -> int:
        lo, hi = self.index_range
        return hi - lo + 1

    def covered_span(self) -> tuple[float, float]:
        """Price span [lower edge of first bin, upper edge of last bin)."""
        lo, hi = self.index_range
        return self._edge(lo), self._edge(hi + 1)

    def _edge(self, index: int) -> float:
        try:
            edge = self.reference_price * (1.0 + self.step) ** index
        except OverflowError:
            edge = math.inf
        if edge == math.inf:  # the power, or its product with the reference price
            raise RangeError(f"edge of bin {index} overflows at step {self.step}")
        return edge

    def edges_at(self, indices) -> np.ndarray:
        """``_edge(i)`` for each i of the int array ``indices``, of any shape: one
        scalar call per distinct i, as a vectorized power can differ in the last bit."""
        distinct, inverse = distinct_ranks(np.ravel(indices))
        edges = np.array([self._edge(i) for i in distinct.tolist()], dtype=float)
        return edges[inverse].reshape(np.shape(indices))

    def price_to_bin(self, price: float) -> int:
        """Index of the bin whose interval contains ``price`` (see prices_to_bins)."""
        return int(self.prices_to_bins([price])[0])

    def prices_to_bins(self, prices) -> np.ndarray:
        """Index of the bin whose interval contains each of ``prices``, by
        ``_locate``; a price outside the covered span or the grid's bins is refused."""
        prices = np.asarray(prices, dtype=float)
        span_lo, span_hi = self.covered_span()
        # NaN fails both comparisons, as it fails the mask below
        if not span_lo <= prices.min(initial=span_lo) <= prices.max(initial=span_lo) < span_hi:
            outside = ~((prices >= span_lo) & (prices < span_hi))
            price = float(prices[np.argmax(outside)])
            raise RangeError(
                f"price {price} outside covered span [{span_lo}, {span_hi})"
            )
        idx, located = self._locate(prices)
        lo, hi = self.index_range
        located &= (idx >= lo) & (idx <= hi)
        if not located.all():
            price = float(prices[np.argmin(located)])
            raise RangeError(f"price {price} could not be located on the grid")
        return idx

    def _locate(self, prices) -> tuple[np.ndarray, np.ndarray]:
        """The bin of each of ``prices``, in or out of the index range, and
        whether ``_edge`` holds the price in it. A price on an edge belongs to
        the higher bin.

        The floor of the log ratio over log(1 + step), the rounded base that
        ``_edge`` raises, can land one index off near an edge, so each floor is
        moved to the neighbour whose ``_edge`` interval holds the price. The
        floors are corrected in place, in the memory of the result; besides it,
        at most two int64 or float arrays as long as ``prices`` are alive at
        once, and a few bool ones.
        """
        prices = np.asarray(prices, dtype=float)
        ratio = np.divide(prices, self.reference_price)
        np.log(ratio, out=ratio)
        ratio /= math.log(1.0 + self.step)
        np.floor(ratio, out=ratio)
        idx = ratio.view(np.int64)
        idx[...] = ratio  # cast in place: the int64 view of the same memory
        # edges of bins i - 1 .. i + 2 for each distinct i, flat: for a price
        # with i = distinct[r], the edge of bin i + d sits at 4 r + 1 + d
        distinct, at = distinct_ranks(idx)
        edges = self.edges_at(distinct[:, None] + np.arange(-1, 3)).ravel()
        at *= 4
        at += 1  # the edge of the floor's own bin: below it, one bin down
        moved = prices < edges[at]
        at -= moved
        idx -= moved
        at += 1  # the next edge up: on or above it, one bin up
        moved = prices >= edges[at]
        at += moved
        idx += moved
        located = prices < edges[at]
        at -= 1
        located &= edges[at] <= prices
        return idx, located


def distinct_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the 1-d array ``values``, ascending, and the index of
    each value among them: ``np.unique(values, return_inverse=True)``, with two
    arrays as long as ``values`` alive at once where that holds five."""
    ordered = values[np.argsort(values)]
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    del ordered
    return distinct, np.searchsorted(distinct, values)
