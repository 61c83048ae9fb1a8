import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpreset import (
    MODE_FULL,
    InputError,
    NextPriceDistribution,
    UtilityParams,
    expected_utility,
    optimal_strategy,
    proportional_strategy,
    uniform_strategy,
    window_for_mass,
)
from lpreset.strategies import StrategySpec, load_strategy, resolve_strategy

from conftest import dists


class TestWindowForMass:
    def test_full_mass_when_the_rounded_sum_falls_short(self):
        # summed from the center outwards these probabilities give 1 - 1 ulp
        d = NextPriceDistribution(2, np.array([19.0, 7.0, 13.0, 19.0, 13.0]) / 71.0, 1.0)
        assert window_for_mass(d, 1.0) == 2

    def test_toy_half_mass(self, toy_dist):
        assert window_for_mass(toy_dist, 0.5) == 1

    def test_tiny_mass_needs_center_only(self, toy_dist, eth_dist):
        assert window_for_mass(toy_dist, 1e-9) == 0
        assert window_for_mass(eth_dist, 1e-9) == 0

    def test_full_mass(self, toy_dist, eth_dist):
        assert window_for_mass(toy_dist, 1.0) == toy_dist.k_max
        assert window_for_mass(eth_dist, 1.0) <= eth_dist.k_max

    def test_monotone_in_mass(self, eth_dist):
        widths = [window_for_mass(eth_dist, m) for m in np.linspace(0.01, 1.0, 50)]
        assert widths == sorted(widths)

    def test_bad_mass(self, toy_dist):
        with pytest.raises(InputError):
            window_for_mass(toy_dist, 0.0)
        with pytest.raises(InputError):
            window_for_mass(toy_dist, 1.2)

    def test_smallest_window_wins_on_ties(self):
        # center bin alone already holds exactly the target mass
        d = NextPriceDistribution(1, np.array([0.25, 0.5, 0.25]), 1.0)
        assert window_for_mass(d, 0.5) == 0


class TestUniformStrategy:
    def test_three_bins(self, toy_dist, neutral_params):
        spec = uniform_strategy(toy_dist, 1, 1, neutral_params)
        np.testing.assert_allclose(spec.allocation.weights, [1 / 3] * 3)

    def test_single_bin(self, toy_dist, neutral_params):
        spec = uniform_strategy(toy_dist, 0, 0, neutral_params)
        np.testing.assert_array_equal(spec.allocation.weights, [1.0])

    def test_five_bins(self, eth_dist, neutral_params):
        spec = uniform_strategy(eth_dist, 1, 2, neutral_params)
        np.testing.assert_allclose(spec.allocation.weights, [0.2] * 5)


class TestProportionalStrategy:
    def test_uniform_h_gives_uniform_weights(self, toy_dist, neutral_params):
        spec = proportional_strategy(toy_dist, neutral_params, n_tau=1, n_alpha=1)
        np.testing.assert_allclose(spec.allocation.weights, [1 / 3] * 3)

    def test_renormalization(self, neutral_params):
        d = NextPriceDistribution(1, np.array([0.25, 0.5, 0.25]), 1.0)
        spec = proportional_strategy(d, neutral_params, n_tau=1, n_alpha=1)
        np.testing.assert_allclose(spec.allocation.weights, [0.25, 0.5, 0.25])

    def test_mass_windows_nest_when_alpha_larger(self, eth_dist, neutral_params):
        n_tau, n_alpha = window_for_mass(eth_dist, 0.5), window_for_mass(eth_dist, 0.9)
        spec = proportional_strategy(eth_dist, neutral_params, n_tau, n_alpha)
        assert spec.n_tau < spec.n_alpha

    def test_alpha_narrower_than_tau_supported(self, eth_dist, neutral_params):
        n_tau, n_alpha = window_for_mass(eth_dist, 0.9), window_for_mass(eth_dist, 0.5)
        spec = proportional_strategy(eth_dist, neutral_params, n_tau, n_alpha)
        assert spec.n_alpha < spec.n_tau

    def test_scale_free_in_h(self, eth_dist, neutral_params):
        # weights depend only on the shape of h over B_alpha
        spec = proportional_strategy(eth_dist, neutral_params, n_tau=2, n_alpha=4)
        raw = eth_dist.prob_array(np.arange(-4, 5))
        np.testing.assert_array_equal(spec.allocation.weights, raw / raw.sum())


class TestOptimalStrategy:
    def test_risk_neutral_is_single_center_bin(self, eth_dist):
        params = UtilityParams(a=0.0, kappa=1.0, ell=100.0)
        spec, _ = optimal_strategy(eth_dist, 2, params)
        w = spec.allocation.weights
        assert np.sum(w > 0) == 1
        assert w[spec.n_alpha] == 1.0  # center bin

    def test_risk_seeking_is_vertex(self, eth_dist):
        params = UtilityParams(a=-1.0, kappa=1.0, ell=100.0)
        spec, sol = optimal_strategy(eth_dist, 2, params)
        assert np.sum(spec.allocation.weights > 0) == 1
        assert sol.method == "vertex-enumeration"

    def test_very_risk_averse_spreads_widely(self, eth_dist):
        params = UtilityParams(a=15.0, kappa=1.0, ell=100.0)
        spec, _ = optimal_strategy(eth_dist, window_for_mass(eth_dist, 0.5), params)
        w = spec.allocation.weights
        assert w.max() - w.min() < 1e-2

    def test_alpha_covers_all_reachable_bins(self, eth_dist, neutral_params):
        spec, _ = optimal_strategy(eth_dist, 3, neutral_params)
        assert spec.n_alpha == 3 + eth_dist.k_max

    @pytest.mark.parametrize("a", [0.0, 0.5, 5.0])
    def test_dominates_uniform_and_proportional(self, eth_dist, a):
        params = UtilityParams(a=a, kappa=1.0, ell=100.0)
        n_tau = 2
        spec, _ = optimal_strategy(eth_dist, n_tau, params)
        e_opt = expected_utility(eth_dist, n_tau, spec.allocation, params, MODE_FULL)
        uni = uniform_strategy(eth_dist, n_tau, spec.n_alpha, params)
        e_uni = expected_utility(eth_dist, n_tau, uni.allocation, params, MODE_FULL)
        best_prop = -np.inf
        for alpha_mass in (0.2, 0.5, 0.8, 0.99):
            n_alpha = window_for_mass(eth_dist, alpha_mass)
            prop = proportional_strategy(eth_dist, params, n_tau, n_alpha)
            best_prop = max(
                best_prop,
                expected_utility(eth_dist, n_tau, prop.allocation, params, MODE_FULL),
            )
        assert e_opt >= max(e_uni, best_prop) - 1e-9


class TestSimplexInvariant:
    @pytest.mark.parametrize("a", [0.0, 0.1, 1.0, 15.0, -1.0])
    def test_every_constructor_lands_on_simplex(self, eth_dist, a):
        params = UtilityParams(a=a, kappa=1.0, ell=100.0)
        specs = [
            uniform_strategy(eth_dist, 2, 5, params),
            proportional_strategy(
                eth_dist, params, window_for_mass(eth_dist, 0.5), window_for_mass(eth_dist, 0.9)
            ),
            optimal_strategy(eth_dist, 2, params)[0],
        ]
        for spec in specs:
            w = spec.allocation.weights
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0)


class TestStrategySpecIO:
    def test_json_round_trip(self, eth_dist, neutral_params, tmp_path):
        spec = proportional_strategy(eth_dist, neutral_params, n_tau=2, n_alpha=3)
        path = tmp_path / "spec.json"
        spec.save(str(path))
        back = load_strategy(str(path), eth_dist)
        assert back.kind == "proportional"
        assert back.n_tau == 2
        np.testing.assert_array_equal(back.allocation.weights, spec.allocation.weights)

    @pytest.mark.parametrize("doc", [[1], "n_alpha", 3, None])
    def test_document_that_is_not_an_object_rejected(self, doc, toy_dist):
        with pytest.raises(InputError, match="must be an object"):
            resolve_strategy(doc, toy_dist)

    def test_mismatched_alpha_rejected(self, neutral_params):
        from lpreset import Allocation

        with pytest.raises(InputError):
            StrategySpec(
                kind="custom",
                n_tau=1,
                n_alpha=2,
                allocation=Allocation(1, np.array([0.0, 1.0, 0.0])),
                params=neutral_params,
            )


def assert_same_spec(got, want):
    assert (got.kind, got.n_tau, got.n_alpha, got.params) == (
        want.kind, want.n_tau, want.n_alpha, want.params
    )
    assert np.array_equal(got.allocation.weights, want.allocation.weights)


# a window is a count or a probability mass
WINDOWS = st.one_of(st.integers(0, 10), st.floats(0.01, 1.0))
PARAMS = st.builds(
    UtilityParams,
    a=st.sampled_from([0.0, 0.1, 15.0]),
    kappa=st.floats(0.1, 10.0),
    ell=st.floats(0.01, 1e4),
)


class TestDocumentProperties:
    @settings(max_examples=200, deadline=None)
    @given(dist=dists(), kind=st.sampled_from(["uniform", "proportional", "optimal"]),
           tau=WINDOWS, alpha=WINDOWS, params=PARAMS)
    def test_constructor_form_is_the_constructor_at_window_for_mass(
        self, dist, kind, tau, alpha, params
    ):
        doc = {"kind": kind, "params": params.to_json_dict()}

        def window(count_key, mass_key, value):
            if isinstance(value, int):
                doc[count_key] = value
                return value
            doc[mass_key] = value
            return window_for_mass(dist, value)

        n_tau = window("n_tau", "tau_mass", tau)
        doc = json.loads(json.dumps(doc))  # as read from a file
        if kind == "optimal":
            want = optimal_strategy(dist, n_tau, params)[0]
        else:
            n_alpha = window("n_alpha", "alpha_mass", alpha)
            if kind == "uniform":
                want = uniform_strategy(dist, n_tau, n_alpha, params)
            elif dist.prob_array(np.arange(-n_alpha, n_alpha + 1)).sum() > 0.0:
                want = proportional_strategy(dist, params, n_tau, n_alpha)
            else:  # h has no mass over B_alpha
                with pytest.raises(InputError):
                    resolve_strategy(doc, dist)
                return
        assert_same_spec(resolve_strategy(doc, dist), want)

    @settings(max_examples=100, deadline=None)
    @given(dist=dists(), kind=st.sampled_from(["uniform", "proportional", "optimal"]),
           n_tau=st.integers(0, 10), n_alpha=st.integers(0, 10), params=PARAMS)
    def test_save_then_load_is_the_same_spec(
        self, dist, kind, n_tau, n_alpha, params, tmp_path_factory
    ):
        if kind == "optimal":
            spec = optimal_strategy(dist, n_tau, params)[0]
        elif kind == "uniform":
            spec = uniform_strategy(dist, n_tau, n_alpha, params)
        else:
            try:
                spec = proportional_strategy(dist, params, n_tau, n_alpha)
            except InputError:  # h has no mass over B_alpha
                return
        path = str(tmp_path_factory.mktemp("spec") / "spec.json")
        spec.save(path)
        assert_same_spec(load_strategy(path, dist), spec)
