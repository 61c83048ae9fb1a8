import time
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lpreset import (
    InputError,
    NextPriceDistribution,
    PriceSeries,
    fit_distribution,
    load_price_csv,
    percent_changes,
    stability_correlation,
)
from tests.conftest import write_price_csv


def series(prices):
    return PriceSeries(np.arange(len(prices), dtype=float), np.asarray(prices, float))


class TestPercentChanges:
    def test_no_movement(self):
        assert percent_changes(series([100.0, 100.0])).tolist() == [0.0]

    def test_one_percent_up(self):
        assert percent_changes(series([100.0, 101.0])).tolist() == [1.0]

    def test_hand_arithmetic(self):
        np.testing.assert_allclose(
            percent_changes(series([200.0, 190.0, 209.0])), [-5.0, 10.0]
        )

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            series([100.0])


class TestFitDistribution:
    def test_all_zero_changes(self):
        d = fit_distribution(np.array([0.0, 0.0]), k_max=1, bin_width_pct=1.0)
        assert d.probs.tolist() == [0.0, 1.0, 0.0]

    def test_three_equal_bins(self):
        d = fit_distribution(np.array([-1.0, 0.0, 1.0]), k_max=1, bin_width_pct=1.0)
        np.testing.assert_allclose(d.probs, [1 / 3, 1 / 3, 1 / 3])

    def test_clamped_tails_conserve_count(self):
        changes = np.array([-10.0, -0.2, 0.0, 0.3, 25.0])
        d = fit_distribution(changes, k_max=2, bin_width_pct=1.0, clamp_tails=True)
        assert d.source_rows == len(changes)
        assert d.prob(-2) == pytest.approx(0.2)
        assert d.prob(2) == pytest.approx(0.2)

    def test_dropped_tails(self):
        changes = np.array([-10.0, 0.0, 25.0])
        d = fit_distribution(changes, k_max=2, bin_width_pct=1.0, clamp_tails=False)
        assert d.prob(0) == 1.0
        assert d.source_rows == 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("clamp_tails", [True, False])
    def test_non_finite_change_is_an_error(self, bad, clamp_tails):
        # a cast non-finite value used to be clipped into the -k_max edge bin
        with pytest.raises(InputError, match="finite"):
            fit_distribution(
                np.array([bad, 0.0]),
                k_max=3,
                bin_width_pct=1.0,
                clamp_tails=clamp_tails,
            )

    @pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bin_width_not_finite_and_positive_is_an_error(self, width):
        # a NaN width used to put all the mass at -k_max
        with pytest.raises(InputError, match="bin_width_pct must be finite and > 0"):
            fit_distribution(np.array([0.0, 1.0]), k_max=2, bin_width_pct=width)
        with pytest.raises(InputError, match="bin_width_pct must be finite and > 0"):
            NextPriceDistribution(1, np.array([0.25, 0.5, 0.25]), bin_width_pct=width)

    @pytest.mark.filterwarnings("error")  # the int cast of a huge bin number warned
    @pytest.mark.parametrize("width", [1e-300, 5e-324])
    def test_tiny_width_puts_each_change_in_its_tail(self, width):
        # changes / width pass the int range (at 5e-324 the float range too)
        d = fit_distribution(np.array([1.0, -1.0, 1.0, 0.0]), k_max=2, bin_width_pct=width)
        assert d.probs.tolist() == [0.25, 0.0, 0.25, 0.0, 0.5]
        d = fit_distribution(
            np.array([1.0, -1.0, 0.0]), k_max=2, bin_width_pct=width, clamp_tails=False
        )
        assert d.probs.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert d.source_rows == 1

    def test_all_dropped_is_an_error(self):
        with pytest.raises(InputError, match="outside the binned range"):
            fit_distribution(np.array([50.0]), k_max=2, bin_width_pct=1.0, clamp_tails=False)

    def test_symmetric_samples_give_symmetric_probs(self):
        rng = np.random.default_rng(3)
        half = rng.normal(0.0, 0.7, size=500)
        changes = np.concatenate([half, -half])
        d = fit_distribution(changes, k_max=8, bin_width_pct=0.25)
        np.testing.assert_array_equal(d.probs, d.probs[::-1])

    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=200),
        st.integers(1, 10),
    )
    def test_always_normalized(self, changes, k_max):
        d = fit_distribution(np.array(changes), k_max=k_max, bin_width_pct=0.5)
        assert abs(d.probs.sum() - 1.0) <= 1e-12
        assert np.all(d.probs >= 0)


class TestStabilityCorrelation:
    def test_self_correlation(self, eth_dist):
        assert stability_correlation(eth_dist, eth_dist) == pytest.approx(1.0)

    def test_opposite_point_masses(self):
        d1 = NextPriceDistribution(1, np.array([1.0, 0.0, 0.0]), 1.0)
        d2 = NextPriceDistribution(1, np.array([0.0, 0.0, 1.0]), 1.0)
        assert stability_correlation(d1, d2) == pytest.approx(-0.5)

    def test_split_sample_diagnostic(self):
        # same law fitted on two halves should correlate strongly (the r^2
        # stability diagnostic); exact 0.98 needs the original dataset
        rng = np.random.default_rng(11)
        a = rng.laplace(0.0, 0.5, size=50_000)
        b = rng.laplace(0.0, 0.5, size=50_000)
        d1 = fit_distribution(a, k_max=32, bin_width_pct=0.1)
        d2 = fit_distribution(b, k_max=32, bin_width_pct=0.1)
        assert stability_correlation(d1, d2) ** 2 > 0.95

    def test_shape_mismatch(self, toy_dist, five_dist):
        with pytest.raises(InputError):
            stability_correlation(toy_dist, five_dist)


class TestSeriesAndIO:
    def test_csv_round_trip(self, tmp_path):
        path = write_price_csv(tmp_path / "px.csv", [100.0, 101.5, 99.0])
        s = load_price_csv(path)
        assert len(s) == 3
        np.testing.assert_allclose(s.prices, [100.0, 101.5, 99.0])

    def test_iso_timestamps(self, tmp_path):
        p = tmp_path / "iso.csv"
        p.write_text(
            "timestamp,price\n2021-03-01T00:00:00,100\n2021-03-01T00:10:00,101\n"
        )
        s = load_price_csv(str(p))
        assert s.timestamps[1] - s.timestamps[0] == 600.0

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,px\n1,100\n2,101\n")
        with pytest.raises(InputError, match="timestamp,price"):
            load_price_csv(str(p))

    @pytest.mark.parametrize(
        "text",
        [
            "timestamp,price\n1,100\n2\n3,101\n",
            "price,timestamp\n100,1\n101\n102,3\n",
            "timestamp,price\n1,100\n\n3\n4,101\n",
        ],
    )
    def test_short_row_is_an_input_error(self, tmp_path, text):
        p = tmp_path / "short.csv"
        p.write_text(text)
        with pytest.raises(InputError, match=r"short\.csv: data row 2 has 1 fields"):
            load_price_csv(str(p))

    def test_columns_found_by_name(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text('volume,price,timestamp\n7,"100.5", 1\n\n8,101,2\n')
        s = load_price_csv(str(p))
        assert s.timestamps.tolist() == [1.0, 2.0]
        assert s.prices.tolist() == [100.5, 101.0]

    def test_bad_price_names_the_value(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("timestamp,price\n1,100\n2,abc\n3,101\n")
        with pytest.raises(InputError, match=r"bad\.csv: bad price 'abc'"):
            load_price_csv(str(p))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_price_rejected(self, bad):
        with pytest.raises(InputError, match="prices must be finite"):
            series([100.0, bad, 101.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_timestamp_rejected(self, bad):
        with pytest.raises(InputError, match="timestamps must be finite"):
            PriceSeries(np.array([1.0, 2.0, bad]), np.array([100.0, 101.0, 102.0]))

    def test_non_monotone_timestamps(self):
        with pytest.raises(InputError):
            PriceSeries(np.array([1.0, 1.0]), np.array([100.0, 101.0]))

    def test_non_finite_bin_width_in_a_document_is_an_error(self, tmp_path, eth_dist):
        path = tmp_path / "dist.json"
        eth_dist.save(str(path))
        path.write_text(path.read_text().replace(
            f'"bin_width_pct": {eth_dist.bin_width_pct!r}', '"bin_width_pct": NaN'
        ))
        with pytest.raises(InputError, match="bin_width_pct must be finite and > 0"):
            NextPriceDistribution.load(str(path))

    def test_distribution_json_round_trip(self, tmp_path, eth_dist):
        path = tmp_path / "dist.json"
        eth_dist.save(str(path))
        loaded = NextPriceDistribution.load(str(path))
        assert loaded.k_max == eth_dist.k_max
        np.testing.assert_array_equal(loaded.probs, eth_dist.probs)

    @pytest.mark.parametrize("field, value", [
        ("k_max", 1.9), ("k_max", "1"), ("k_max", True),
        ("bin_width_pct", True), ("bin_width_pct", "1.0"),
        ("probs", ["0.25", "0.5", "0.25"]), ("probs", [0, True, 0]), ("probs", 1.0),
        ("source_rows", 2.5), ("source_rows", False),
    ])
    def test_document_fields_follow_the_strategy_field_rules(self, field, value):
        doc = {"k_max": 1, "bin_width_pct": 1.0, "probs": [0.25, 0.5, 0.25], "source_rows": 4}
        assert NextPriceDistribution.from_json_dict(doc).k_max == 1
        with pytest.raises(InputError, match="bad distribution document"):
            NextPriceDistribution.from_json_dict({**doc, field: value})


@pytest.fixture
def set_tz(monkeypatch):
    """Switch the process's local time zone for one test."""

    def set_zone(zone):
        monkeypatch.setenv("TZ", zone)
        time.tzset()

    yield set_zone
    monkeypatch.undo()
    time.tzset()


@pytest.mark.parametrize("zone", ["UTC", "America/New_York", "Asia/Kolkata"])
def test_naive_iso_timestamps_are_utc_in_any_local_zone(zone, set_tz, tmp_path):
    # 02:xx on 2021-03-14 does not exist in New York (clocks jump to 03:00)
    p = tmp_path / "dst.csv"
    p.write_text(
        "timestamp,price\n2021-03-14T02:40:00,100\n2021-03-14T02:50:00,101\n"
        "2021-03-14T03:00:00,102\n2021-03-14T03:10:00,101\n"
    )
    set_tz(zone)
    start = datetime(2021, 3, 14, 2, 40, tzinfo=timezone.utc).timestamp()
    assert load_price_csv(str(p)).timestamps.tolist() == [start + 600 * i for i in range(4)]
    # an explicit offset is kept
    p.write_text("timestamp,price\n2021-03-14T02:40:00-05:00,100\n2021-03-14T02:50:00-05:00,101\n")
    assert load_price_csv(str(p)).timestamps[0] == start + 5 * 3600
