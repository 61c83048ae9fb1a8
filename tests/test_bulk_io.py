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
import tracemalloc
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
    fit_distribution,
    load_price_csv,
    percent_changes,
    replay,
    run_strategy,
    sample_path,
)
from lpreset.simulate import BLOCK_ROWS, _write_trace, execute, payoffs
from lpreset.strategies import resolve_strategy
from tests.conftest import band_rows, make_eth_like


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
        writer.writerows(band_rows(report.band))


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


def traced_peak(write, tmp_path):
    """The most memory ``write(path)`` holds at once, in bytes, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        write(str(tmp_path / "out.csv"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a writer that holds one block, not the path, peaks within this of its
# 10k-row peak at 200k rows; a path-sized int64 array alone is 1.6 MB there
PEAK_MARGIN = 256 * 1024


def band_report(prices, step, anchor, n_tau, n_alpha):
    """``replay`` with band collection on a grid built as ``lpreset backtest`` does."""
    ts = 1_600_000_000.0 + 600.0 * np.arange(len(prices))
    series = PriceSeries(ts, np.asarray(prices))
    lo, hi = min(prices), max(prices)
    anchor_price = prices[0] if anchor == "first" else lo
    grid = BinGrid.from_price_range(lo, hi * (1.0 + step), step, anchor=anchor_price)
    alloc = Allocation(n_alpha, np.full(2 * n_alpha + 1, 1.0 / (2 * n_alpha + 1)))
    spec = StrategySpec("custom", n_tau, alloc, UtilityParams(a=0.1))
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
        st.sampled_from([1, 3, 16, 37, BLOCK_ROWS, 4096]),
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
        assert len(report.band.prices) == len(moves)
        with mock.patch("lpreset.backtest.BLOCK_ROWS", block_rows):
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
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 5, BLOCK_ROWS, 4096])
    def test_edge_cases_and_blocks_inside_a_run(self, levels, resets, block_rows):
        prices = [100.0 * 1.01 ** (level + 0.5) for level in levels]
        report = band_report(prices, 0.01, "first", 2, 3)
        assert report.resets == resets
        with mock.patch("lpreset.backtest.BLOCK_ROWS", block_rows):
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

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        # a walk over 60 bins, so the centres, and the edge values, stay few
        rng = np.random.default_rng(4)

        def peak(rows):
            levels = np.cumsum(rng.integers(-3, 4, rows + 1)) % 60
            prices = 100.0 * 1.001 ** (levels + rng.uniform(0.1, 0.9, rows + 1))
            report = band_report(prices.tolist(), 0.001, "low", 3, 5)
            return traced_peak(report.write_band_csv, tmp_path)

        assert peak(200_000) <= peak(10_000) + PEAK_MARGIN


# a path array is one float64 or int64 per row; loading the two columns
# and replaying them with the band holds at most this many at once (the
# column copy, the binning's np.unique and replay's dropped columns held 8.45)
PATH_ARRAYS = 5.5
# at n_tau 0, where 85% of the moves are sure resets and as many rows start
# a band run, at most this many (execute's stretch bookkeeping, six arrays
# as long as the sure resets, and the band's centres held 10.58)
PATH_ARRAYS_AT_N_TAU_0 = 7.0


class TestReplayMemory:
    def backtest_peak(self, tmp_path, n_tau):
        rows = 200_000
        rng = np.random.default_rng(5)  # a Student-t walk like the benchmark's
        walk = np.concatenate([[0.0], np.cumsum(0.00114 * rng.standard_t(3.0, rows - 1))])
        path = tmp_path / "px.csv"
        with open(path, "w") as fh:
            fh.write("timestamp,price\n")
            fh.writelines(f"{1_600_000_000 + 600 * i},{p!r}\n"
                          for i, p in enumerate((2000.0 * np.exp(walk)).tolist()))
        alloc = Allocation(5, np.full(11, 1 / 11))
        spec = StrategySpec("custom", n_tau, alloc, UtilityParams(a=0.1))
        step = 0.0005
        reports = []

        def backtest(_):
            series = load_price_csv(str(path))
            lo, hi = float(series.prices.min()), float(series.prices.max())
            grid = BinGrid.from_price_range(lo, hi * (1.0 + step), step, anchor=lo)
            reports.append(replay(series, spec, grid, collect_band=True))

        peak = traced_peak(backtest, tmp_path)
        assert reports[0].steps == rows - 1 and reports[0].resets > rows // 10
        return peak / (8 * rows)

    def test_load_and_replay_hold_few_path_arrays(self, tmp_path):
        assert self.backtest_peak(tmp_path, 3) <= PATH_ARRAYS

    def test_load_and_replay_at_n_tau_0_hold_few_path_arrays(self, tmp_path):
        assert self.backtest_peak(tmp_path, 0) <= PATH_ARRAYS_AT_N_TAU_0


# drawing and simulating a path holds at most this many at once: the draw's
# uniforms and cells, the moves and the offsets they are walked to, or the
# payoff rows and one gathered column (with the path kept until the report,
# the draw's three temporaries, execute's stretch bookkeeping and three
# gathered columns, it held 5.13 at n_tau 2 and 9.65 at n_tau 0)
SIM_PATH_ARRAYS = 4.0


class TestSimulateMemory:
    @pytest.mark.parametrize("n_tau", [2, 0])
    def test_sample_and_run_hold_few_path_arrays(self, tmp_path, n_tau):
        # the benchmark's law: k_max 64, fitted to a 1,000-row Student-t walk
        rng = np.random.default_rng(11)
        walk = np.concatenate([[0.0], np.cumsum(0.00114 * rng.standard_t(3.0, 999))])
        series = PriceSeries(600.0 * np.arange(1000), 2000.0 * np.exp(walk))
        dist = fit_distribution(percent_changes(series), k_max=64)
        doc = {"kind": "proportional", "n_tau": n_tau, "alpha_mass": 0.9, "params": {"a": 0.1}}
        spec = resolve_strategy(doc, dist)
        steps = 200_000
        reports = []
        peak = traced_peak(
            lambda _: reports.append(run_strategy(sample_path(dist, steps, 3), spec)), tmp_path
        )
        assert reports[0].steps == steps and reports[0].resets > steps // 10
        assert peak <= SIM_PATH_ARRAYS * 8 * steps


class TestWriteTrace:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
        st.integers(0, 12),
        st.integers(0, 12),
        st.sampled_from([0.0, 0.1, 15.0]),
        st.sampled_from([1.0, 100.0]),
        st.sampled_from([1, 7, 37, BLOCK_ROWS, 4096]),
    )
    def test_equals_reference(self, steps, seed, n_tau, n_alpha, a, ell, block_rows):
        dist = make_eth_like(k_max=16, rate=0.3)
        weights = np.arange(1.0, 2 * n_alpha + 2)
        params = UtilityParams(a=a, ell=ell)
        alloc = Allocation(n_alpha, weights / weights.sum())
        spec = StrategySpec("custom", n_tau, alloc, params)
        path = sample_path(dist, steps, seed)
        js = execute(path, n_tau)
        rows, table, _, _ = payoffs(js, spec, params.shift)
        rewards = table[rows]
        with mock.patch("lpreset.simulate.BLOCK_ROWS", block_rows):
            got = written(lambda out: run_strategy(path, spec, seed=seed, trace_out=out))
        assert got == written(reference_write_trace, js, rewards, n_tau)

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        dist = make_eth_like(k_max=16, rate=0.3)
        alloc = Allocation(5, np.full(11, 1 / 11))
        spec = StrategySpec("custom", 3, alloc, UtilityParams(a=0.1))

        def peak(steps):
            js = execute(sample_path(dist, steps, seed=2), spec.n_tau)
            _, rewards, _, resets = payoffs(js, spec, spec.params.shift)
            return traced_peak(lambda out: _write_trace(out, js, rewards, resets), tmp_path)

        assert peak(200_000) <= peak(10_000) + PEAK_MARGIN
