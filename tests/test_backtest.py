import math

import numpy as np
import pytest

from lpreset import (
    BinGrid,
    InputError,
    PriceSeries,
    UtilityParams,
    replay,
    run_strategy,
    sample_path,
    uniform_strategy,
    v2_baseline,
)


def series_from_prices(prices):
    ts = 1_600_000_000 + 600 * np.arange(len(prices))
    return PriceSeries(timestamps=ts.astype(float), prices=np.asarray(prices, float))


def grid_for(series, step=0.01, anchor=None):
    return BinGrid.from_price_range(
        float(series.prices.min()),
        float(series.prices.max()),
        step,
        anchor=anchor if anchor is not None else float(series.prices[0]),
    )


class TestV2Baseline:
    def test_risk_neutral_is_fee_over_bins(self):
        series = series_from_prices([100.0, 101.0, 100.5])
        grid = grid_for(series)
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        assert v2_baseline(series, grid, params) == pytest.approx(1.0 / grid.n_bins)

    def test_shift_convention(self):
        series = series_from_prices([100.0, 100.2])
        grid = BinGrid(reference_price=100.0, step=0.0005, index_range=(-500, 499))
        params = UtilityParams(a=1.0, kappa=1.0, ell=100.0)
        c = 100.0 / 1000
        assert v2_baseline(series, grid, params) == pytest.approx(
            1.0 - math.exp(-(c + 1.0))
        )
        assert v2_baseline(series, grid, params, apply_shift=False) == pytest.approx(
            1.0 - math.exp(-c)
        )

    def test_single_bin_grid_earns_full_fee(self):
        series = series_from_prices([100.0, 100.0])
        grid = BinGrid(reference_price=100.0, step=0.01, index_range=(0, 0))
        params = UtilityParams(a=0.0, kappa=2.0, ell=50.0)
        assert v2_baseline(series, grid, params) == pytest.approx(100.0)

    def test_series_outside_grid_rejected(self):
        series = series_from_prices([100.0, 150.0])
        grid = BinGrid(reference_price=100.0, step=0.01, index_range=(0, 5))
        with pytest.raises(InputError):
            v2_baseline(series, grid, UtilityParams())


class TestReplay:
    def test_constant_series_never_resets(self, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        series = series_from_prices([100.0] * 20)
        grid = BinGrid(reference_price=99.0, step=0.05, index_range=(-5, 5))
        report = replay(series, spec, grid)
        assert report.resets == 0
        assert report.steps == 19
        assert report.mean_utility_per_step == pytest.approx(1 / 3)

    def test_hand_stepped_trace_without_resets(self, toy_dist):
        # bins along the path: 0, +1, 0 (step 1% grid anchored at 100)
        params = UtilityParams(a=0.0, kappa=1.0, ell=3.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        series = series_from_prices([100.0, 101.5, 100.0])
        grid = grid_for(series)
        report = replay(series, spec, grid)
        assert report.resets == 0
        # both steps land on an allocated bin worth kappa*ell/3 = 1
        assert report.mean_utility_per_step == pytest.approx(1.0)

    def test_hand_stepped_trace_with_resets(self, toy_dist):
        # 100 -> 103 jumps two bins (beyond n_tau = 1): reset, re-center on
        # bin 2; the fall back to 100 is again a two-bin jump and resets too
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        series = series_from_prices([100.0, 103.0, 100.0])
        grid = grid_for(series)
        report = replay(series, spec, grid)
        assert report.resets == 2
        assert report.mean_utility_per_step == pytest.approx(-1.0)

    def test_matches_simulation_on_synthetic_prices(self, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        moves = sample_path(toy_dist, 300, seed=11)
        step = 0.01
        levels = np.concatenate([[0], np.cumsum(moves)])
        prices = 100.0 * (1.0 + step) ** (levels + 0.5)
        series = series_from_prices(prices)
        grid = BinGrid.from_price_range(
            float(prices.min()), float(prices.max()), step, anchor=100.0
        )
        sim = run_strategy(moves, spec, seed=11)
        report = replay(series, spec, grid)
        assert report.resets == sim.resets
        assert report.steps == sim.steps
        assert report.mean_utility_per_step == pytest.approx(
            sim.total_reward / sim.steps, abs=1e-12
        )

    def test_band_trace_brackets_the_price(self, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        series = series_from_prices([100.0, 101.5, 103.0, 101.5, 100.0])
        grid = grid_for(series)
        report = replay(series, spec, grid, collect_band=True)
        assert len(report.band_trace) == report.steps
        for _, price, alpha_lo, alpha_hi, tau_lo, tau_hi in report.band_trace:
            assert alpha_lo <= tau_lo < tau_hi <= alpha_hi
            assert tau_hi / tau_lo == pytest.approx((1.01) ** 3)

    def test_band_csv(self, toy_dist, tmp_path):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        series = series_from_prices([100.0, 101.5, 100.0])
        report = replay(series, spec, grid_for(series), collect_band=True)
        out = tmp_path / "band.csv"
        report.write_band_csv(str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,price,alpha_low,alpha_high,tau_low,tau_high"
        assert len(lines) == 3

    def test_band_csv_requires_collection(self, toy_dist, tmp_path):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        series = series_from_prices([100.0, 101.5, 100.0])
        report = replay(series, spec, grid_for(series))
        with pytest.raises(InputError):
            report.write_band_csv(str(tmp_path / "band.csv"))


class TestCompare:
    def test_equals_report_ratio(self, toy_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=1.0)
        spec = uniform_strategy(toy_dist, 1, 1, params)
        series = series_from_prices([100.0, 101.5, 100.0])
        report = replay(series, spec, grid_for(series))
        assert report.ratio == pytest.approx(
            report.mean_utility_per_step / report.v2_mean_utility_per_step
        )
