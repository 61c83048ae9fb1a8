import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lpreset import BinGrid, RangeError


def grid(ref=100.0, step=0.01, lo=-500, hi=500):
    return BinGrid(reference_price=ref, step=step, index_range=(lo, hi))


def loop_price_to_bin(ref, step, price):
    """Independent oracle: walk edges by repeated multiplication."""
    edge = ref
    if price >= ref:
        i = 0
        while edge * (1.0 + step) <= price:
            edge *= 1.0 + step
            i += 1
        return i
    i = 0
    while edge > price:
        edge /= 1.0 + step
        i -= 1
    return i


class TestPriceToBin:
    def test_left_edge_of_center_bin(self):
        assert grid().price_to_bin(100.0) == 0

    def test_edge_belongs_to_higher_bin(self):
        assert grid().price_to_bin(101.0) == 1

    def test_wide_range_matches_loop_oracle(self):
        g = BinGrid(reference_price=81.0, step=0.00046, index_range=(0, 6000))
        expected = loop_price_to_bin(81.0, 0.00046, 830.0)
        assert g.price_to_bin(830.0) == expected
        # consistent with discretizing [81, 830] into about 5500 bins
        assert 5000 < expected < 5500

    def test_out_of_range_price_raises_with_span(self):
        with pytest.raises(RangeError, match="outside covered span"):
            grid(lo=-5, hi=5).price_to_bin(200.0)


class TestBinBounds:
    def test_bin_zero(self):
        lo, hi = grid().edges_at([0, 1])
        assert lo == 100.0
        assert hi == pytest.approx(101.0)

    def test_negative_index_adjacency(self):
        lo, hi = grid().edges_at([-1, 0])
        assert lo == pytest.approx(100.0 / 1.01)
        assert hi == 100.0

    def test_repeated_multiplication_oracle(self):
        # oracle: 100 * 1.01 * 1.01 = 102.01, * 1.01 again = 103.0301
        lo, hi = grid().edges_at([2, 3])
        assert lo == pytest.approx(102.01, abs=1e-9)
        assert hi == pytest.approx(103.0301, abs=1e-9)

    def test_partition_edges_shared_exactly(self):
        # each bin's upper edge is the next bin's lower edge, and the span runs
        # from the first bin's lower edge to the last bin's upper edge
        g = grid(ref=81.0, step=0.00046, lo=-100, hi=100)
        bounds = [g.edges_at([i, i + 1]) for i in range(-100, 101)]
        for (_, upper), (lower, _) in zip(bounds, bounds[1:]):
            assert upper == lower
        assert g.covered_span() == (bounds[0][0], bounds[-1][1])


@given(
    i=st.integers(min_value=-400, max_value=399),
    frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_round_trip_inside_bin(i, frac):
    g = grid()
    lo, hi = g.edges_at([i, i + 1])
    price = lo + frac * (hi - lo)
    if lo < price < hi:  # frac rounding can land exactly on an edge
        assert g.price_to_bin(price) == i


@given(st.lists(st.floats(min_value=1.0, max_value=10_000.0), min_size=2, max_size=20))
def test_monotone_in_price(prices):
    g = grid(lo=-2000, hi=2000)
    prices = sorted(prices)
    bins = [g.price_to_bin(p) for p in prices]
    assert bins == sorted(bins)


def test_from_price_range_covers_span():
    g = BinGrid.from_price_range(81.0, 830.0, 0.00046, anchor=81.0)
    span_lo, span_hi = g.covered_span()
    assert span_lo <= 81.0 and span_hi > 830.0
    assert g.price_to_bin(81.0) == 0
    assert 5000 < g.n_bins < 5600


def test_invalid_construction():
    with pytest.raises(RangeError):
        BinGrid(reference_price=-1.0, step=0.01, index_range=(0, 1))
    with pytest.raises(RangeError):
        BinGrid(reference_price=1.0, step=0.0, index_range=(0, 1))
    with pytest.raises(RangeError):
        BinGrid(reference_price=1.0, step=0.01, index_range=(3, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_reference_price_or_step_is_an_error(bad):
    with pytest.raises(RangeError, match="reference_price must be finite and > 0"):
        BinGrid(reference_price=bad, step=0.01, index_range=(0, 1))
    with pytest.raises(RangeError, match="step must be finite and > 0"):
        BinGrid(reference_price=1.0, step=bad, index_range=(0, 1))
    with pytest.raises(RangeError, match="step must be finite and > 0"):
        BinGrid.from_price_range(90.0, 110.0, bad, anchor=100.0)
    with pytest.raises(RangeError, match="reference_price must be finite and > 0"):
        BinGrid.from_price_range(90.0, 110.0, 0.01, anchor=bad)
    with pytest.raises(RangeError, match="invalid price range"):
        BinGrid.from_price_range(90.0, abs(bad), 0.01, anchor=90.0)


@pytest.mark.parametrize("step", [1e-302, 1e-19, 1e-16])
def test_step_lost_against_one_is_an_error(step):
    # 1 + step == 1 would make every edge the reference price
    with pytest.raises(RangeError, match="1 \\+ step == 1"):
        BinGrid(reference_price=100.0, step=step, index_range=(0, 1))
    with pytest.raises(RangeError, match="1 \\+ step == 1"):
        BinGrid.from_price_range(100.0, 100.0, step, anchor=100.0)


def test_edge_past_the_float_range_is_an_error():
    # (1 + step) ** index raises OverflowError past the float range
    g = grid(step=1e298, lo=0, hi=1)
    assert g.edges_at([0, 1]).tolist() == [100.0, 100.0 * (1.0 + 1e298)]
    with pytest.raises(RangeError, match="edge of bin 2 overflows"):
        g.covered_span()
    with pytest.raises(RangeError, match="overflows"):
        BinGrid.from_price_range(100.0, 1e300, 1e298, anchor=100.0)


def test_edge_whose_product_overflows_is_an_error():
    # 1.5 ** 8 is finite, but the reference price times it is not; the edge
    # was returned as inf, and a band or a covered span held it
    g = BinGrid(reference_price=1e307, step=0.5, index_range=(0, 7))
    assert g.edges_at([3, 7]).tolist() == [1e307 * 1.5**3, 1e307 * 1.5**7]
    for at in ([8], [9, 8], [[7], [8]]):
        with pytest.raises(RangeError, match="edge of bin 8 overflows at step 0.5"):
            g.edges_at(at)
    with pytest.raises(RangeError, match="edge of bin 8 overflows at step 0.5"):
        g.covered_span()
    with pytest.raises(RangeError, match="edge of bin 8 overflows at step 0.5"):
        BinGrid.from_price_range(1e307, 1.75e308, 0.5, anchor=1e307)


def test_grid_anchor_alignment():
    anchored = BinGrid.from_price_range(90.0, 200.0, 0.01, anchor=100.0)
    assert anchored.price_to_bin(100.0) == 0
    assert anchored.price_to_bin(99.9) == -1


def test_jitter_correction_near_edges():
    g = grid(ref=math.pi, step=0.001, lo=-3000, hi=3000)
    for i in (-2500, -7, 0, 13, 2500):
        lo, hi = g.edges_at([i, i + 1])
        assert g.price_to_bin(lo) == i
        assert g.price_to_bin(math.nextafter(hi, 0.0)) == i


def near_edge(g, k, at):
    """A price on the lower edge of bin k, one ulp below or above it, or inside bin k."""
    edge = g._edge(k)
    return {"on": edge, "below": math.nextafter(edge, 0.0), "above": math.nextafter(edge, math.inf),
            "inside": math.sqrt(edge * g._edge(k + 1))}[at]


# at anchor 100 and step 1%: a low one ulp below an edge, which the floor of
# the log ratio alone starts a bin too high, a high on or one ulp above an
# edge, which it ends a bin too low, and ends inside a bin
@example(anchor=100.0, step=0.01, ends=((-7, "below"), (-4, "inside")))
@example(anchor=100.0, step=0.01, ends=((5, "inside"), (9, "on")))
@example(anchor=100.0, step=0.01, ends=((-3, "inside"), (0, "above")))
@example(anchor=100.0, step=0.01, ends=((150, "below"), (150, "inside")))
@given(
    anchor=st.floats(-2.0, 4.0).map(lambda e: 10.0**e),
    step=st.floats(-6.0, -1.0).map(lambda e: 10.0**e),
    ends=st.lists(
        st.tuples(st.integers(-3000, 2999), st.sampled_from(["on", "below", "above", "inside"])),
        min_size=2, max_size=2,
    ),
)
def test_from_price_range_is_the_least_grid(anchor, step, ends):
    # each end on an edge, one ulp beside it or inside a bin: the grid holds the
    # bins of the two ends, as prices_to_bins reads them on a wider grid, and no more
    low, high = sorted(near_edge(grid(ref=anchor, step=step), k, at) for k, at in ends)
    g = BinGrid.from_price_range(low, high, step, anchor=anchor)
    lo, hi = g.index_range
    wider = grid(ref=anchor, step=step, lo=lo - 3, hi=hi + 3)
    assert g.index_range == tuple(wider.prices_to_bins([low, high]).tolist())
    span_lo, span_hi = g.covered_span()
    assert span_lo <= low <= high < span_hi


@given(
    ref=st.floats(0.01, 1e4),
    step=st.floats(1e-6, 0.05),
    rows=st.integers(0, 30),
    width=st.sampled_from([None, 4]),
    data=st.data(),
)
def test_edges_at_equals_scalar_edges(ref, step, rows, width, data):
    # few distinct values so that indices repeat; shapes (n,), (n, 4) and (0, 4)
    g = grid(ref=ref, step=step)
    pool = data.draw(st.lists(st.integers(-2000, 2000), min_size=1, max_size=6))
    shape = (rows,) if width is None else (rows, width)
    size = rows * (width or 1)
    flat = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    indices = np.array(flat, dtype=np.int64).reshape(shape)
    got = g.edges_at(indices)
    assert got.dtype == np.float64
    assert got.shape == shape
    assert got.ravel().tolist() == [g._edge(i) for i in flat]


def test_prices_to_bins_of_no_prices():
    got = grid().prices_to_bins([])
    assert got.dtype == np.int64
    assert got.shape == (0,)


def test_prices_to_bins_computes_edges_per_distinct_bin(monkeypatch):
    # about 55,000 bins between two prices: a table over the whole span of the
    # prices would compute each of their edges
    g = BinGrid.from_price_range(1e-6, 1e6, 5e-4, anchor=1e-6)
    prices = [1e-6, 1e6]
    floors = np.floor(np.log(np.divide(prices, g.reference_price)) / math.log1p(g.step))
    calls = []
    edge = BinGrid._edge
    monkeypatch.setattr(BinGrid, "_edge", lambda self, i: calls.append(i) or edge(self, i))
    assert g.prices_to_bins(prices).tolist() == [g.index_range[0], g.index_range[1]]
    assert g.n_bins > 50_000
    assert len(calls) <= 4 * len(set(floors.tolist())) + 2
