"""Bulk CSV ingest and output writers against the per-row code they replaced.

``reference_load_price_csv`` is the ``csv.DictReader`` loader that
``load_price_csv`` used to be, with the short-row rule it gained since;
``reference_write_band_csv`` and ``reference_write_trace`` are the
``csv.writer`` writers that ``BacktestReport.write_band_csv`` and
``run_strategy(trace_out=...)`` used to be. The new code must give the same
values and bytes, so every comparison here is ``==``, never approximate.
"""

import csv
import math
import os
import tempfile
import warnings
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
    load_price_csv,
    replay,
    run_strategy,
    sample_path,
)
from lpreset.backtest import BAND_BLOCK_ROWS
from lpreset.simulate import TRACE_BLOCK_ROWS, execute, payoffs
from tests.conftest import make_eth_like


def reference_parse_timestamp(raw):
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        stamp = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise InputError(f"unparseable timestamp {raw!r}") from exc
    return stamp.replace(tzinfo=stamp.tzinfo or timezone.utc).timestamp()


def reference_load_price_csv(path):
    timestamps = []
    prices = []
    with open(path, newline="") as fh, open(path, newline="") as raw:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"timestamp", "price"} <= set(
            reader.fieldnames
        ):
            raise InputError(f"{path}: expected header with 'timestamp,price'")
        names = reader.fieldnames
        need = max(max(i for i, n in enumerate(names) if n == name) + 1
                   for name in ("timestamp", "price"))
        fields = filter(None, csv.reader(raw))  # each row as DictReader sees it
        next(fields)
        for n, (row, split) in enumerate(zip(reader, fields), start=1):
            if len(split) < need:
                raise InputError(f"{path}: data row {n} has {len(split)} fields, need {need}")
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
# prices float() refuses, or that PriceSeries refuses once read
BAD_PRICES = ["", "abc", "1..2", "-5", "0", "nan", "inf", "-inf", "Infinity", "1e999",
              "1e-400", "0x1p3", "1d3", "1#", "#1", "1__0", "_1", "\u0661 \u0662"]
# prices float() reads, some in ways numpy's reader does not
ODD_PRICES = ["1_000", "2_500.5", "\u0661\u0662\u0663", "\uff11\uff12", "1e3", "+7.25",
              ".5", "5.", "1" * 40 + ".25", "0." + "0" * 30 + "17", "0000123.5"]
# whitespace for float(), numpy's reader or both; U+001C..U+001F is the one
# numpy strips from a number and float does not
SPACES = [" ", "\t", "  ", "\x0b", "\x0c", "\xa0", "\u2003", "\u3000", "\x1c", "\x1f"]


def timestamp_text(seconds, kind):
    if kind == "int":
        return str(int(START.timestamp()) + seconds)
    if kind == "float":
        return repr(START.timestamp() + seconds + 0.25)
    if kind == "sci":
        return f"{START.timestamp() + seconds:.6e}"
    moment = START + timedelta(seconds=seconds)
    if kind == "iso":
        return moment.replace(tzinfo=None).isoformat()
    return moment.isoformat()  # ISO with a +00:00 offset


def decorated(draw, text):
    """``text`` as a CSV field: bare, padded with whitespace or quoted."""
    style = draw(st.sampled_from(["bare", "bare", "bare", "pad", "quote", "quote-pad"]))
    if style == "pad":
        return draw(st.sampled_from(SPACES)) + text + draw(st.sampled_from(["", *SPACES]))
    if style == "quote":
        return '"' + text.replace('"', '""') + '"'
    if style == "quote-pad":
        return '"  ' + text + ' "'
    return text


@st.composite
def price_csvs(draw):
    """CSV text with timestamp and price columns among others, in any order.

    A repeated column name means its last column (as in a dict of the row), so
    earlier columns of that name carry junk. Rows may have extra or trailing
    empty fields, or miss fields; blank and whitespace-only lines fall
    anywhere, and lines end in LF, CRLF or CR alone. Timestamps are epoch
    seconds, ISO-8601 or a mix. Half of the files are clean, and most of
    those are plain enough for numpy's reader; the others have repeated or
    decreasing timestamps and prices that are bad or that only ``float``
    reads.
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
            [["int"], ["float"], ["sci"], ["iso"], ["iso", "iso+tz"],
             ["int", "iso+tz", "float"]]
        )
    )
    clean = draw(st.booleans())
    plain = clean and draw(st.integers(0, 3)) > 0
    field = (lambda text: text) if plain else (lambda text: decorated(draw, text))
    lines = [",".join(header)]
    seconds = 0
    for _ in range(draw(st.integers(0, 10))):
        seconds += 600 * (1 if clean else draw(st.sampled_from([1, 2, 0, -1])))
        fields = []
        for i, name in enumerate(header):
            if i == used.get("timestamp"):
                text = timestamp_text(seconds, draw(st.sampled_from(kinds)))
            elif i == used.get("price"):
                if not clean and draw(st.integers(0, 3)) == 0:
                    text = draw(st.sampled_from(BAD_PRICES + ODD_PRICES))
                else:
                    text = repr(draw(st.floats(1e-3, 1e6)))
            else:
                text = draw(st.sampled_from(["7", "x", "a,b", "3,4", "#", "\xa0", ""]))
            fields.append(field(text))
        fields += draw(st.lists(st.sampled_from(["1", "z", ""]), max_size=2))
        if draw(st.booleans()):
            fields = fields[: draw(st.integers(need, len(fields)))]
        elif not clean and draw(st.integers(0, 5)) == 0:
            fields = fields[: draw(st.integers(0, need - 1))]  # a short row
        lines.append(",".join(fields))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "", " ", "\t", "  \t"])))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def load_text(tmp, text):
    path = os.path.join(tmp, "px.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


class TestLoadPriceCsv:
    @settings(max_examples=400, deadline=None)
    @given(price_csvs())
    def test_equals_reference(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = load_text(tmp, text)
            assert loaded(load_price_csv, path) == loaded(reference_load_price_csv, path)

    @pytest.mark.parametrize(
        "rows",
        [
            # a quoted comma before the columns: numpy would read 3 and 4
            ['"a,b",3,1600000000,5', '"c,d",4,1600000600,6'],
            # a quoted line break inside a row
            ['"a\nb",3,1600000000,5', "x,4,1600000600,6"],
            # U+001C..U+001F: whitespace to numpy, not to float
            ["x,3,1600000000,\x1c5", "x,4,1600000600,6"],
            ["x,3,\x1f1600000000,5", "x,4,1600000600,6\x1e"],
            ['x,3,1600000000,"5"', "x,4,1600000600,6"],
            ["x,3,1600000000,1_000", "x,4,1600000600,6"],
            ["x,3,1600000000,\u0665", "x,4,1600000600,6"],
            ["x,3,1600000000, 5\xa0", "x,4,1600000600,\u20036"],
            ["x,3,1600000000,5", "   ", "x,4,1600000600,6"],
            ["x,3,1600000000,5", "x,4,1600000600", "x,5,1600001200,7"],
        ],
    )
    def test_files_numpy_could_misread(self, tmp_path, rows):
        path = tmp_path / "px.csv"
        path.write_text("note,other,timestamp,price\n" + "\n".join(rows) + "\n")
        got = loaded(load_price_csv, str(path))
        assert got == loaded(reference_load_price_csv, str(path))

    def test_plain_file_is_read_by_numpy(self, tmp_path):
        path = tmp_path / "px.csv"
        path.write_text("price,timestamp\r\n\r\n5,1600000000\r\n 6 ,1600000600,x\r\n")
        with mock.patch("lpreset.distribution._parse_rows", side_effect=AssertionError):
            got = loaded(load_price_csv, str(path))
        assert got == ([1600000000.0, 1600000600.0], [5.0, 6.0])

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "px.csv"
        path.write_text("timestamp,price\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="need at least 2 rows"):
                load_price_csv(str(path))

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
        st.sampled_from([1, 3, 16, BAND_BLOCK_ROWS]),
    )
    def test_equals_reference(
        self, step, start, moves, kind, anchor, n_tau, n_alpha, block_rows
    ):
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
        with mock.patch("lpreset.backtest.BAND_BLOCK_ROWS", block_rows):
            got = written(write_band_csv, report)
        assert got == written(reference_write_band_csv, report)

    @pytest.mark.parametrize(
        "levels, resets",
        [
            ([0, 1, 0, -1, 0, 1, 0, 1], 0),  # one run
            ([0, 5, 5, 4, 5, 6], 1),  # a reset on the first step
            ([0, 1, 0, -1, 0, 6], 1),  # a reset on the last step
            ([0, 4, 8, 12, 16, 12, 8, 4], 7),  # every run one row long
            ([0, 1, 5, 9, 9, 10, 14, 14, 14, 0], 4),
        ],
    )
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 5, BAND_BLOCK_ROWS])
    def test_edge_cases_and_blocks_inside_a_run(self, levels, resets, block_rows):
        prices = [100.0 * 1.01 ** (level + 0.5) for level in levels]
        report = band_report(prices, 0.01, "first", 2, 3)
        assert report.resets == resets
        with mock.patch("lpreset.backtest.BAND_BLOCK_ROWS", block_rows):
            got = written(write_band_csv, report)
        assert got == written(reference_write_band_csv, report)
        assert got.count(b"\r\n") == len(levels)

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
        rewards, _, _ = payoffs(js, spec, params.shift)
        with mock.patch("lpreset.simulate.TRACE_BLOCK_ROWS", block_rows):
            got = written(lambda out: run_strategy(path, spec, seed=seed, trace_out=out))
        assert got == written(reference_write_trace, js, rewards, n_tau)
