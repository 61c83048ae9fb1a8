"""Bulk CSV ingest and output writers against the per-row code they replaced.

``reference_load_price_csv`` is the ``csv.DictReader`` loader that
``load_price_csv`` used to be; ``reference_write_band_csv`` and
``reference_write_trace`` are the ``csv.writer`` writers that
``BacktestReport.write_band_csv`` and ``run_strategy(trace_out=...)`` used
to be. The new code must give the same values and bytes, so every
comparison here is ``==``, never approximate.
"""

import csv
import math
import os
import tempfile
from unittest import mock
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpreset import (
    Allocation,
    BinGrid,
    InputError,
    PriceSeries,
    StrategySpec,
    UtilityParams,
    exp_utility,
    load_price_csv,
    replay,
    run_strategy,
    sample_path,
)
from lpreset.distribution import CSV_BLOCK_ROWS
from lpreset.simulate import TRACE_BLOCK_ROWS, execute, payoffs
from tests.conftest import make_eth_like


def reference_parse_timestamp(raw):
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(raw).timestamp()
    except ValueError as exc:
        raise InputError(f"unparseable timestamp {raw!r}") from exc


def reference_load_price_csv(path):
    timestamps = []
    prices = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"timestamp", "price"} <= set(
            reader.fieldnames
        ):
            raise InputError(f"{path}: expected header with 'timestamp,price'")
        for row in reader:
            timestamps.append(reference_parse_timestamp(row["timestamp"]))
            try:
                prices.append(float(row["price"]))
            except ValueError as exc:
                raise InputError(f"{path}: bad price {row['price']!r}") from exc
    if len(prices) < 2:
        raise InputError(f"{path}: need at least 2 rows")
    return PriceSeries(np.asarray(timestamps), np.asarray(prices))


def reference_write_band_csv(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "price", "alpha_low", "alpha_high", "tau_low", "tau_high"]
        )
        writer.writerows(report.band_trace)


def reference_write_trace(path, js, rewards, n_tau):
    resets = (js < -n_tau) | (js > n_tau)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "offset", "reward", "reset_flag"])
        writer.writerows(
            zip(
                range(len(js)),
                js.tolist(),
                rewards.tolist(),
                resets.astype(np.int64).tolist(),
            )
        )


def loaded(loader, path):
    """The loaded arrays as lists, or the type and message of the InputError."""
    try:
        series = loader(path)
    except InputError as exc:
        return type(exc).__name__, str(exc)
    assert series.timestamps.dtype == series.prices.dtype == np.float64
    return series.timestamps.tolist(), series.prices.tolist()


def written(writer, *args):
    """The bytes ``writer(path, *args)`` puts in a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        writer(path, *args)
        with open(path, "rb") as fh:
            return fh.read()


START = datetime(2021, 3, 1, tzinfo=timezone.utc)
BAD_PRICES = ["", "abc", "1..2", "-5", "0", "nan", "inf", "1e999"]


def timestamp_text(seconds, kind):
    if kind == "int":
        return str(int(START.timestamp()) + seconds)
    if kind == "float":
        return repr(START.timestamp() + seconds + 0.25)
    moment = START + timedelta(seconds=seconds)
    if kind == "iso":
        return moment.replace(tzinfo=None).isoformat()
    return moment.isoformat()  # ISO with a +00:00 offset


def decorated(draw, text):
    """``text`` as a CSV field: bare, padded with whitespace or quoted."""
    style = draw(st.sampled_from(["bare", "bare", "pad", "quote", "quote-pad"]))
    if style == "pad":
        return draw(st.sampled_from([" ", "\t", "  "])) + text + " "
    if style == "quote":
        return '"' + text.replace('"', '""') + '"'
    if style == "quote-pad":
        return '"  ' + text + ' "'
    return text


@st.composite
def price_csvs(draw):
    """CSV text with timestamp and price columns among others, in any order.

    A repeated column name means its last column (as in a dict of the row), so
    earlier columns of that name carry junk. Rows may have extra trailing
    fields, or lack trailing columns after the two that are read; blank lines
    fall anywhere. Timestamps are epoch seconds, ISO-8601 or a mix. Half of
    the files are clean; the others have some repeated or decreasing
    timestamps and bad prices.
    """
    extras = draw(
        st.lists(
            st.sampled_from(["volume", "note", "", "price", "timestamp"]), max_size=3
        )
    )
    header = draw(st.permutations(["timestamp", "price"] + extras))
    used = {name: max(i for i, n in enumerate(header) if n == name) for name in header}
    need = max(used["timestamp"], used["price"]) + 1
    kinds = draw(
        st.sampled_from(
            [["int"], ["float"], ["iso"], ["iso", "iso+tz"], ["int", "iso+tz", "float"]]
        )
    )
    clean = draw(st.booleans())
    lines = [",".join(header)]
    seconds = 0
    for _ in range(draw(st.integers(0, 10))):
        seconds += 600 * (1 if clean else draw(st.sampled_from([1, 2, 0, -1])))
        fields = []
        for i, name in enumerate(header):
            if i == used.get("timestamp"):
                text = timestamp_text(seconds, draw(st.sampled_from(kinds)))
            elif i == used.get("price"):
                if not clean and draw(st.integers(0, 4)) == 0:
                    text = draw(st.sampled_from(BAD_PRICES))
                else:
                    text = repr(draw(st.floats(1e-3, 1e6)))
            else:
                text = draw(st.sampled_from(["7", "x", "a,b", ""]))
            fields.append(decorated(draw, text))
        fields += draw(st.lists(st.sampled_from(["1", "z"]), max_size=2))
        if draw(st.booleans()):
            fields = fields[: draw(st.integers(need, len(fields)))]
        lines.append(",".join(fields))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


class TestLoadPriceCsv:
    @settings(max_examples=300, deadline=None)
    @given(price_csvs(), st.sampled_from([1, 3, CSV_BLOCK_ROWS]))
    def test_equals_reference(self, text, block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "px.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            with mock.patch("lpreset.distribution.CSV_BLOCK_ROWS", block_rows):
                got = loaded(load_price_csv, path)
            assert got == loaded(reference_load_price_csv, path)

    def test_errors_past_the_first_block(self, tmp_path):
        rows = [f"{timestamp_text(600 * i, 'iso+tz')},{100.0 + i}" for i in range(3000)]
        path = tmp_path / "px.csv"
        path.write_text("timestamp,price\n" + "\n".join(rows) + "\n")
        got = loaded(load_price_csv, str(path))
        assert got == loaded(reference_load_price_csv, str(path))
        assert len(got[1]) == 3000
        rows[2500] = rows[2500].replace(",", ",x")
        path.write_text("timestamp,price\n" + "\n".join(rows) + "\n")
        got = loaded(load_price_csv, str(path))
        assert got == loaded(reference_load_price_csv, str(path))
        assert got[1].endswith("bad price 'x2600.0'")
        rows[2100] = rows[2100].split(",")[0]
        path.write_text("timestamp,price\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match="data row 2101 has 1 fields, need 2"):
            load_price_csv(str(path))

    def test_generated_series_equal_reference(self, tmp_path):
        rng = np.random.default_rng(5)
        walk = np.cumsum(0.001 * rng.standard_t(3.0, 5000))
        prices = (2000.0 * np.exp(walk)).tolist()
        path = tmp_path / "px.csv"
        rows = [f"{1_600_000_000 + 600 * i},{p!r}" for i, p in enumerate(prices)]
        path.write_text("timestamp,price\n" + "\n".join(rows) + "\n")
        got = loaded(load_price_csv, str(path))
        assert got == loaded(reference_load_price_csv, str(path))
        assert got[1] == prices


def write_band_csv(path, report):
    report.write_band_csv(path)


def band_report(prices, step, anchor, n_tau, n_alpha):
    """``replay`` with band collection on a grid built as ``lpreset backtest`` does."""
    ts = 1_600_000_000.0 + 600.0 * np.arange(len(prices))
    series = PriceSeries(ts, np.asarray(prices))
    lo, hi = min(prices), max(prices)
    anchor_price = prices[0] if anchor == "first" else lo
    grid = BinGrid.from_price_range(lo, hi * (1.0 + step), step, anchor=anchor_price)
    alloc = Allocation(n_alpha, np.full(2 * n_alpha + 1, 1.0 / (2 * n_alpha + 1)))
    spec = StrategySpec("custom", n_tau, n_alpha, alloc, UtilityParams(a=0.1))
    return replay(series, spec, grid, collect_band=True)


class TestWriteBandCsv:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([0.001, 0.005, 0.05]),
        st.floats(0.5, 5000.0),
        st.lists(st.integers(-8, 8), min_size=1, max_size=300),
        st.sampled_from(["mid", "edge", "<", ">"]),
        st.sampled_from(["first", "low"]),
        st.integers(0, 6),
        st.integers(0, 8),
    )
    def test_equals_reference(self, step, start, moves, kind, anchor, n_tau, n_alpha):
        # prices in the middle of bins, on their edges, or on edges with the
        # lowest price moved one ulp below or above its edge
        levels = np.concatenate([[0], np.cumsum(moves)]).tolist()
        shift = 0.5 if kind == "mid" else 0
        prices = [start * (1.0 + step) ** (level + shift) for level in levels]
        if kind in ("<", ">"):
            i = prices.index(min(prices))
            prices[i] = math.nextafter(prices[i], 0.0 if kind == "<" else math.inf)
        report = band_report(prices, step, anchor, n_tau, n_alpha)
        assert len(report.band_trace) == len(moves)
        got = written(write_band_csv, report)
        assert got == written(reference_write_band_csv, report)

    def test_single_row_trace(self):
        for anchor in ("first", "low"):
            report = band_report([100.0, 103.0], 0.01, anchor, 1, 2)
            assert report.steps == 1 and report.resets == 1
            got = written(write_band_csv, report)
            assert got == written(reference_write_band_csv, report)
            assert got.count(b"\r\n") == 2

    def test_random_walk_with_many_centres(self):
        rng = np.random.default_rng(9)
        moves = np.rint(6.0 * rng.standard_t(3.0, 5000)).astype(int).tolist()
        levels = np.concatenate([[0], np.cumsum(moves)])
        prices = [2000.0 * 1.0005 ** (int(level) + 0.3) for level in levels]
        for anchor in ("first", "low"):
            report = band_report(prices, 0.0005, anchor, 3, 5)
            assert report.resets > 100
            got = written(write_band_csv, report)
            assert got == written(reference_write_band_csv, report)


class TestWriteTrace:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.integers(0, 12),
        st.integers(0, 12),
        st.sampled_from([0.0, 0.1, 15.0]),
        st.sampled_from([1.0, 100.0]),
        st.sampled_from([1, 7, TRACE_BLOCK_ROWS]),
    )
    def test_equals_reference(self, steps, seed, n_tau, n_alpha, a, ell, block_rows):
        dist = make_eth_like(k_max=16, rate=0.3)
        weights = np.arange(1.0, 2 * n_alpha + 2)
        params = UtilityParams(a=a, ell=ell)
        alloc = Allocation(n_alpha, weights / weights.sum())
        spec = StrategySpec("custom", n_tau, n_alpha, alloc, params)
        path = sample_path(dist, steps, seed)
        js = execute(path, n_tau)
        rewards, _ = payoffs(js, spec, lambda r: exp_utility(r + params.shift, params))
        with mock.patch("lpreset.simulate.TRACE_BLOCK_ROWS", block_rows):
            got = written(lambda out: run_strategy(path, spec, seed=seed, trace_out=out))
        assert got == written(reference_write_trace, js, rewards, n_tau)
