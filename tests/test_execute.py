"""The tau-reset execution kernel against the per-step scalar walks it replaced.

``reference_run_strategy``, ``reference_replay``, ``reference_price_to_bin``,
``reference_execute`` and ``reference_sample_path`` are the step-by-step
loops and the plain search that ``run_strategy``, ``replay``,
``BinGrid.price_to_bin``, ``execute`` and ``sample_path`` used to be. The
vectorized code must give the same bits, so every comparison here is ``==``,
never approximate. The two walks count their landings per payoff row and
form their sums from the counts, as the package does;
the step-order sums they used to report must lie within the
recursive-summation bound of those (``assert_near_step_order``).
"""

import csv
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpreset import (
    Allocation,
    BinGrid,
    InputError,
    LpresetError,
    NextPriceDistribution,
    PriceSeries,
    RangeError,
    StrategySpec,
    UtilityParams,
    exp_utility,
    replay,
    run_strategy,
    sample_path,
    v2_baseline,
)
from lpreset.backtest import BacktestReport
from lpreset.simulate import LOCKSTEP_MIN, SimReport, execute, payoffs

from conftest import band_rows


def reference_execute(moves, n_tau):
    reach = n_tau + int(np.abs(moves).max(initial=0))
    settle = [0] * (2 * reach + 1)
    for j in range(-n_tau, n_tau + 1):
        settle[j] = j
    js = []
    offset = 0
    for move in np.asarray(moves, dtype=np.int64).tolist():
        j = offset + move
        js.append(j)
        offset = settle[j]
    return np.array(js, dtype=np.int64)


def reference_sample_path(dist, steps, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(steps), side="right") - dist.k_max


def reference_mean_and_error(counts, utilities):
    """Mean and i.i.d. standard error of a walk that landed ``counts[r]`` times
    on a step of utility ``utilities[r]``, from count-times-value sums over
    the landed rows."""
    counts = np.asarray(counts)
    landed = counts > 0
    counts, utilities = counts[landed], np.asarray(utilities)[landed]
    n = int(counts.sum())
    biggest = float(np.abs(utilities).max())
    scale = math.ldexp(1.0, math.frexp(biggest)[1] - 1) if biggest >= 2.0 else 1.0
    scaled = utilities / scale
    mean = (counts * scaled).sum() / n
    if n == 1:
        return float(mean) * scale, 0.0
    squares = (counts * (scaled - mean) * (scaled - mean)).sum()
    return float(mean) * scale, math.sqrt(squares / (n - 1)) * scale / math.sqrt(n)


def assert_near_step_order(values, counts, table):
    """The step-order sum of ``values``, the per-step values of ``table`` at the
    walk's rows, lies within (n - 1) eps sum|x| of its sum from the counts."""
    step_order = 0.0
    for value in values:
        step_order += value
    counted = float((np.asarray(counts) * np.asarray(table)).sum())
    bound = (len(values) - 1) * np.finfo(float).eps * math.fsum(abs(v) for v in values)
    assert abs(step_order - counted) <= bound


def reference_run_strategy(path, spec, seed=0, trace_out=None):
    params = spec.params
    alloc = spec.allocation
    scale = params.kappa * params.ell
    shift = params.shift
    n_tau = spec.n_tau
    far = max(n_tau, spec.n_alpha) + 1

    offset = 0
    resets = 0
    counts, rewards, utilities = [0] * (2 * far + 1), [0.0] * (2 * far + 1), [0.0] * (2 * far + 1)
    step_rewards, step_utilities = [], []
    rows = []
    for t, move in enumerate(path):
        j = offset + int(move)
        r = scale * alloc.weight(j)
        if abs(j) > n_tau:
            r -= 1.0
            resets += 1
            offset = 0
            reset_flag = 1
        else:
            offset = j
            reset_flag = 0
        row = min(max(j, -far), far) + far
        counts[row] += 1
        rewards[row] = r
        utilities[row] = exp_utility(r + shift, params)
        step_rewards.append(r)
        step_utilities.append(utilities[row])
        if trace_out is not None:
            rows.append((t, j, r, reset_flag))

    if trace_out is not None:
        with open(trace_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "offset", "reward", "reset_flag"])
            writer.writerows(rows)

    total_reward = 0.0 + float((np.array(counts) * np.array(rewards)).sum())
    mean, std_error = reference_mean_and_error(counts, utilities)
    assert_near_step_order(step_rewards, counts, rewards)
    assert_near_step_order(step_utilities, counts, utilities)
    return SimReport(
        steps=len(path),
        resets=resets,
        total_reward=total_reward,
        mean_utility_per_step=mean,
        std_error=std_error,
        seed=seed,
    )


def reference_price_to_bin(grid, price):
    lo, hi = grid.index_range
    span_lo, span_hi = grid._edge(lo), grid._edge(hi + 1)
    if price < span_lo or price >= span_hi:
        raise RangeError(f"price {price} outside covered span [{span_lo}, {span_hi})")
    i = math.floor(math.log(price / grid.reference_price) / math.log1p(grid.step))
    for cand in (i, i - 1, i + 1):
        if cand < lo or cand > hi:
            continue
        if grid._edge(cand) <= price < grid._edge(cand + 1):
            return cand
    raise RangeError(f"price {price} could not be located on the grid")


def reference_replay(series, spec, grid, collect_band=False):
    params = spec.params
    alloc = spec.allocation
    scale = params.kappa * params.ell
    n_tau, n_alpha = spec.n_tau, spec.n_alpha
    far = max(n_tau, n_alpha) + 1

    bins = [reference_price_to_bin(grid, float(p)) for p in series.prices]
    center = bins[0]
    resets = 0
    counts, utilities = [0] * (2 * far + 1), [0.0] * (2 * far + 1)
    step_utilities = []
    band = [] if collect_band else None

    for t in range(1, len(bins)):
        j = bins[t] - center
        r = scale * alloc.weight(j)
        if abs(j) > n_tau:
            r -= 1.0
            resets += 1
            center = bins[t]
        row = min(max(j, -far), far) + far
        counts[row] += 1
        utilities[row] = exp_utility(r, params)
        step_utilities.append(utilities[row])
        if band is not None:
            band.append(
                (
                    t,
                    float(series.prices[t]),
                    grid._edge(center - n_alpha),
                    grid._edge(center + n_alpha + 1),
                    grid._edge(center - n_tau),
                    grid._edge(center + n_tau + 1),
                )
            )

    mean, _ = reference_mean_and_error(counts, utilities)
    assert_near_step_order(step_utilities, counts, utilities)
    v2_mean = v2_baseline(series, grid, params)
    ratio = mean / v2_mean if v2_mean != 0.0 else math.nan
    report = BacktestReport(
        steps=len(step_utilities),
        resets=resets,
        mean_utility_per_step=mean,
        v2_mean_utility_per_step=v2_mean,
        ratio=ratio,
        grid_bins=grid.n_bins,
    )
    return report, band


def outcome(fn, *args, **kwargs):
    """The call's result, or the type and message of the package error it raised."""
    try:
        return fn(*args, **kwargs)
    except LpresetError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def distributions(draw):
    """h over k_max in 1..6 with integer weights, so some moves have zero mass."""
    k_max = draw(st.integers(1, 6))
    size = 2 * k_max + 1
    counts = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
    counts[draw(st.integers(0, size - 1))] += 1
    probs = np.asarray(counts, dtype=float)
    return NextPriceDistribution(k_max, probs / probs.sum(), bin_width_pct=1.0)


@st.composite
def specs(draw):
    n_tau = draw(st.integers(0, 8))
    n_alpha = draw(st.integers(0, 10))
    raw = draw(
        st.lists(st.integers(0, 4), min_size=2 * n_alpha + 1, max_size=2 * n_alpha + 1)
    )
    weights = np.asarray(raw, dtype=float)
    if weights.sum() > 0:
        weights /= weights.sum() + draw(st.sampled_from([0.0, 1.0]))
    params = UtilityParams(
        a=draw(st.sampled_from([0.0, 0.1, 15.0])),
        ell=draw(st.sampled_from([1.0, 100.0])),
    )
    return StrategySpec("custom", n_tau, Allocation(n_alpha, weights), params)


class TestRunStrategy:
    @settings(max_examples=150, deadline=None)
    @given(distributions(), specs(), st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_report_and_trace_equal_reference(self, dist, spec, steps, seed):
        path = sample_path(dist, steps, seed)
        with tempfile.TemporaryDirectory() as tmp:
            got_trace = os.path.join(tmp, "got.csv")
            want_trace = os.path.join(tmp, "want.csv")
            got = run_strategy(path, spec, seed=seed, trace_out=got_trace)
            want = reference_run_strategy(path, spec, seed=seed, trace_out=want_trace)
            with open(got_trace, "rb") as fh, open(want_trace, "rb") as ref:
                assert fh.read() == ref.read()
        assert got == want
        assert got.to_json_dict() == want.to_json_dict()

    def test_offsets_follow_the_reset_rule(self):
        # n_tau = 1: +1 stays, +1 more lands at 2 and resets, -1 and 0 stay at -1,
        # and the last -1 lands at -2 and resets
        assert execute(np.array([1, 1, -1, 0, -1]), 1).tolist() == [1, 2, -1, -1, -2]
        assert execute(np.array([3, -3]), 0).tolist() == [3, -3]

    def test_empty_path_is_an_error(self):
        spec = StrategySpec(
            "custom", 1, Allocation(1, np.full(3, 1 / 3)), UtilityParams()
        )
        with pytest.raises(InputError):
            run_strategy(np.array([], dtype=np.int64), spec)


def assert_execute_equals_reference(moves, n_tau):
    got = execute(moves, n_tau)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_execute(moves, n_tau))


def sure_resets(moves, n_tau):
    return int(np.count_nonzero(np.abs(moves) > 2 * n_tau))


@st.composite
def move_paths(draw):
    """Moves with |m| <= 3*n_tau + 2; a drawn share are sure resets, |m| > 2*n_tau."""
    n_tau = draw(st.integers(0, 8))
    bound = draw(st.integers(0, 3 * n_tau + 2))
    n = draw(st.one_of(st.integers(0, 64), st.integers(0, 6000)))
    sure_share = draw(st.sampled_from([0.0, 0.001, 0.01, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = min(bound, 2 * n_tau)
    moves = rng.integers(-inner, inner + 1, n)
    if bound > 2 * n_tau:
        sure = rng.integers(2 * n_tau + 1, bound + 1, n) * rng.choice([-1, 1], n)
        moves = np.where(rng.random(n) < sure_share, sure, moves)
    return moves, n_tau


def stretched_path(rng, n_tau, lengths):
    """Stretches of the given lengths, each but a zero-length one ending in a sure reset."""
    parts = []
    for length in lengths:
        inside = rng.integers(-2 * n_tau, 2 * n_tau + 1, max(length - 1, 0))
        sure = rng.choice([-1, 1]) * rng.integers(2 * n_tau + 1, 3 * n_tau + 3)
        parts.append(np.append(inside, sure)[:length])
    return np.concatenate(parts).astype(np.int64)


class TestExecute:
    @settings(max_examples=200, deadline=None)
    @given(move_paths())
    def test_equals_reference(self, case):
        moves, n_tau = case
        assert_execute_equals_reference(moves, n_tau)

    @pytest.mark.parametrize("n_tau", range(9))
    def test_moves_at_the_sure_reset_threshold(self, n_tau):
        # |m| = 2*n_tau resets only from an offset on the far side; 2*n_tau + 1 always does
        rng = np.random.default_rng(n_tau)
        edge = [0, 1, -1, 2 * n_tau, -2 * n_tau, 2 * n_tau + 1, -(2 * n_tau + 1)]
        for n in (1, 7, 200, 5000):
            moves = rng.choice(edge, n)
            assert_execute_equals_reference(moves, n_tau)
            at_edge = rng.choice([m for m in edge if abs(m) <= 2 * n_tau], n)
            assert sure_resets(at_edge, n_tau) == 0
            assert_execute_equals_reference(at_edge, n_tau)

    @pytest.mark.parametrize("n_tau", [0, 1, 2, 5, 8])
    def test_path_without_sure_resets(self, n_tau):
        rng = np.random.default_rng(100 + n_tau)
        moves = rng.integers(-2 * n_tau, 2 * n_tau + 1, 6000)
        assert sure_resets(moves, n_tau) == 0
        assert_execute_equals_reference(moves, n_tau)

    @pytest.mark.parametrize(
        "stretches", [LOCKSTEP_MIN - 2, LOCKSTEP_MIN - 1, LOCKSTEP_MIN, LOCKSTEP_MIN + 1]
    )
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("last_empty", [False, True])
    def test_live_stretch_counts_around_the_lockstep_bound(self, stretches, tied, last_empty):
        rng = np.random.default_rng(stretches)
        for n_tau in (0, 1, 3):
            lengths = [7] * stretches if tied else rng.integers(1, 60, stretches).tolist()
            moves = stretched_path(rng, n_tau, lengths + [0] if last_empty else lengths)
            assert sure_resets(moves, n_tau) == stretches
            assert_execute_equals_reference(moves, n_tau)
            # one step more or less in the longest stretches
            for cut in (1, len(moves) - 1):
                assert_execute_equals_reference(moves[:cut], n_tau)

    def test_moves_of_a_trillion_bins(self):
        # tables sized by the largest move would need terabytes
        moves = np.array([1, 10**12, -1, -(10**12), 2, 0, 5, -3])
        js = execute(moves, 2)
        assert js.tolist() == [1, 1 + 10**12, -1, -1 - 10**12, 2, 2, 7, -3]
        params = UtilityParams(a=0.1, ell=10.0)
        alloc = Allocation(3, np.array([0.0, 0.1, 0.2, 0.4, 0.2, 0.1, 0.0]))
        rows, *tables = payoffs(js, StrategySpec("custom", 2, alloc, params), 1.0)
        rewards, utilities, resets = (table[rows] for table in tables)
        assert rewards.tolist() == [2.0, -1.0, 2.0, -1.0, 1.0, 1.0, -1.0, -1.0]
        assert utilities.tolist() == [exp_utility(r + 1.0, params) for r in rewards.tolist()]
        assert resets.tolist() == [False, True, False, True, False, False, True, True]

    @settings(max_examples=100, deadline=None)
    @given(move_paths(), st.sampled_from([10**6, 10**12]))
    def test_a_larger_sure_reset_moves_only_its_own_offset(self, case, extra):
        moves, n_tau = case
        sure = np.abs(moves) > 2 * n_tau
        far = moves + np.where(sure, np.sign(moves) * extra, 0)
        got = execute(far, n_tau)
        assert np.array_equal(got, reference_execute(moves, n_tau) + (far - moves))


@st.composite
def bin_tables(draw):
    """h over k_max in 1..300: random with zero bins, a point mass, dyadic, or trailing zeros."""
    kind = draw(st.sampled_from(["random", "point", "dyadic", "trailing"]))
    k_max = draw(st.integers(1, 300))
    size = 2 * k_max + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "point":
        probs = np.zeros(size)
        probs[draw(st.integers(0, size - 1))] = 1.0
        return NextPriceDistribution(k_max, probs, bin_width_pct=1.0)
    if kind == "dyadic":
        # every CDF entry a multiple of 1/4096: on a guide-table cell edge
        counts = np.bincount(rng.integers(0, size, 4096), minlength=size)
        counts[rng.random(size) < 0.5] = 0
        counts[rng.integers(0, size)] += 4096 - counts.sum()
        return NextPriceDistribution(k_max, counts / 4096, bin_width_pct=1.0)
    counts = rng.integers(0, draw(st.integers(1, 9)), size).astype(float)
    counts[rng.random(size) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    if kind == "trailing":
        counts[size - draw(st.integers(1, size - 1)) :] = 0.0
    counts[rng.integers(0, size if kind == "random" else 1)] += 1.0
    return NextPriceDistribution(k_max, counts / counts.sum(), bin_width_pct=1.0)


class TestSamplePath:
    @settings(max_examples=200, deadline=None)
    @given(
        bin_tables(),
        st.one_of(st.integers(1, 100), st.integers(1, 50_000)),
        st.integers(0, 2**64 - 1),
    )
    def test_equals_reference(self, dist, steps, seed):
        got = sample_path(dist, steps, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_sample_path(dist, steps, seed))

    def test_cdf_rounding_past_one_before_the_last_bin(self):
        # the running sum of these tenths ends at 1 + 2**-52, so the guard's
        # cdf[-1] = 1.0 sits below the entries before it
        probs = np.array([0, 2, 4, 3, 1, 0, 0]) / 10
        assert np.cumsum(probs)[-2] > 1.0
        dist = NextPriceDistribution(3, probs, bin_width_pct=1.0)
        for seed in range(5):
            got = sample_path(dist, 50_000, seed)
            assert np.array_equal(got, reference_sample_path(dist, 50_000, seed))
            assert got.max() == 1


@st.composite
def walks(draw):
    """A grid step and prices on, just off and between the grid's bin edges."""
    step = draw(st.sampled_from([0.001, 0.01, 0.05]))
    anchor = draw(st.floats(0.5, 5000.0))
    n = draw(st.integers(2, 120))
    moves = draw(st.lists(st.integers(-12, 12), min_size=n - 1, max_size=n - 1))
    levels = np.concatenate([[0], np.cumsum(moves)]).tolist()
    kinds = draw(st.lists(st.sampled_from("=<>m"), min_size=n, max_size=n))
    prices = []
    for level, kind in zip(levels, kinds):
        edge = anchor * (1.0 + step) ** level
        if kind == "<":
            edge = math.nextafter(edge, 0.0)
        elif kind == ">":
            edge = math.nextafter(edge, math.inf)
        elif kind == "m":
            edge = anchor * (1.0 + step) ** (level + 0.5)
        prices.append(edge)
    return step, anchor, prices


def replayed(replayer, prices, step, anchor, spec, collect_band):
    """The report and per-row band of ``replayer``, or its package error."""
    ts = 1_600_000_000.0 + 600.0 * np.arange(len(prices))
    series = PriceSeries(ts, np.asarray(prices))
    lo, hi = min(prices), max(prices)
    grid = BinGrid.from_price_range(lo, hi * (1.0 + step), step, anchor=anchor)
    got = outcome(replayer, series, spec, grid, collect_band=collect_band)
    if isinstance(got, BacktestReport):
        return got, None if got.band is None else band_rows(got.band)
    return got


class TestReplay:
    @settings(max_examples=150, deadline=None)
    @given(walks(), specs(), st.booleans())
    def test_report_and_band_equal_reference(self, walk, spec, collect_band):
        step, anchor, prices = walk
        got = replayed(replay, prices, step, anchor, spec, collect_band)
        assert got == replayed(reference_replay, prices, step, anchor, spec, collect_band)
        if collect_band and isinstance(got[0], BacktestReport):
            assert len(got[1]) == got[0].steps

    @pytest.mark.parametrize(
        "levels, resets",
        [
            ([0, 1, 0, -1, 0, 1, 0, 1], 0),  # one run
            ([0, 5, 5, 4, 5, 6], 1),  # a reset on the first step
            ([0, 1, 0, -1, 0, 6], 1),  # a reset on the last step
            ([0, 4, 8, 12, 16, 12, 8, 4], 7),  # every run one row long
            ([0, 4], 1),  # one step, a reset
            ([0, 1], 0),  # one step, no reset
            ([0, 1, 5, 9, 9, 10, 14, 14, 14, 0], 4),
        ],
    )
    def test_band_edge_cases_equal_reference(self, levels, resets):
        prices = [100.0 * 1.01 ** (level + 0.5) for level in levels]
        spec = StrategySpec(
            "custom", 2, Allocation(3, np.full(7, 1 / 7)), UtilityParams(a=0.1)
        )
        got = replayed(replay, prices, 0.01, 100.0, spec, True)
        assert got == replayed(reference_replay, prices, 0.01, 100.0, spec, True)
        assert got[0].resets == resets
        assert len(got[1]) == len(levels) - 1

    @pytest.mark.parametrize("n_tau, n_alpha", [(1, 6), (6, 1)])
    def test_band_of_a_long_walk_equals_reference(self, n_tau, n_alpha):
        # many centres, revisited, whose alpha and tau edges share some values
        rng = np.random.default_rng(n_tau)
        levels = np.concatenate([[0], np.cumsum(rng.integers(-4, 5, 600))])
        prices = [100.0 * 1.01 ** (level + 0.5) for level in levels.tolist()]
        weights = np.full(2 * n_alpha + 1, 1 / (2 * n_alpha + 1))
        spec = StrategySpec(
            "custom", n_tau, Allocation(n_alpha, weights), UtilityParams(a=0.1)
        )
        got = replayed(replay, prices, 0.01, 100.0, spec, True)
        assert got == replayed(reference_replay, prices, 0.01, 100.0, spec, True)
        assert len(got[0].band.edges) > 20


class TestPricesToBins:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.01, 1e4),
        st.floats(1e-5, 0.5),
        st.integers(-60, 0),
        st.integers(0, 60),
        st.lists(
            st.tuples(st.integers(-64, 64), st.sampled_from("=<>m")),
            min_size=1,
            max_size=40,
        ),
    )
    def test_equals_scalar_reference(self, ref, step, lo, width, points):
        grid = BinGrid(reference_price=ref, step=step, index_range=(lo, lo + width))
        prices = []
        for index, kind in points:
            price = grid._edge(index)
            if kind == "<":
                price = math.nextafter(price, 0.0)
            elif kind == ">":
                price = math.nextafter(price, math.inf)
            elif kind == "m":
                price = ref * (1.0 + step) ** (index + 0.5)
            prices.append(price)
        want = [outcome(reference_price_to_bin, grid, p) for p in prices]
        assert [outcome(grid.price_to_bin, p) for p in prices] == want
        got = outcome(grid.prices_to_bins, prices)
        failed = [w for w in want if isinstance(w, tuple)]
        if failed:
            assert got == failed[0]
        else:
            assert got.tolist() == want

    def test_non_finite_price_raises_range_error(self):
        grid = BinGrid(reference_price=100.0, step=0.01, index_range=(-5, 5))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(RangeError, match="outside covered span"):
                grid.prices_to_bins([100.0, bad])
