import json

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from lpreset import NextPriceDistribution, UtilityParams


@pytest.fixture
def toy_dist() -> NextPriceDistribution:
    """Equal thirds on moves {-1, 0, +1} (the worked three-bin example)."""
    return NextPriceDistribution(
        k_max=1, probs=np.array([1.0, 1.0, 1.0]) / 3.0, bin_width_pct=1.0
    )


@pytest.fixture
def five_dist() -> NextPriceDistribution:
    """Five-point support {-2..2} with probabilities .1 .2 .4 .2 .1."""
    return NextPriceDistribution(
        k_max=2,
        probs=np.array([0.1, 0.2, 0.4, 0.2, 0.1]),
        bin_width_pct=1.0,
    )


def make_eth_like(
    k_max: int = 64, center: float = 0.15, rate: float = 0.2
) -> NextPriceDistribution:
    """Synthetic stand-in for the fitted 10-minute ETH percent-change law.

    Laplace-shaped tails with the center bin pinned to exactly 0.15 mass,
    129 bins spanning [-3%, 3%].
    """
    ks = np.arange(-k_max, k_max + 1)
    w = np.exp(-rate * np.abs(ks))
    w[k_max] = 0.0
    probs = (1.0 - center) * w / w.sum()
    probs[k_max] = center
    return NextPriceDistribution(
        k_max=k_max, probs=probs, bin_width_pct=6.0 / 128.0
    )


@st.composite
def dists(draw, max_k=8):
    """Random h, with exact zero bins."""
    k_max = draw(st.integers(1, max_k))
    raw = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
            min_size=2 * k_max + 1,
            max_size=2 * k_max + 1,
        )
    )
    assume(sum(raw) > 0.0)
    probs = np.array(raw) / sum(raw)
    return NextPriceDistribution(k_max=k_max, probs=probs, bin_width_pct=1.0)


@pytest.fixture(scope="session")
def eth_dist() -> NextPriceDistribution:
    return make_eth_like()


@pytest.fixture
def neutral_params() -> UtilityParams:
    return UtilityParams(a=0.0, kappa=1.0, ell=1.0)


def write_price_csv(path, prices, start_ts: int = 1_600_000_000, step_s: int = 600):
    with open(path, "w") as fh:
        fh.write("timestamp,price\n")
        for i, p in enumerate(prices):
            fh.write(f"{start_ts + i * step_s},{p!r}\n")
    return str(path)


def write_dist(dist, path) -> str:
    """Write ``dist`` to ``path`` as ``lpreset fit --out`` does; the path as a string."""
    path.write_text(json.dumps(dist.to_json_dict(), sort_keys=True, indent=2) + "\n")
    return str(path)


def band_rows(band):
    """One (step, price, alpha_low, alpha_high, tau_low, tau_high) tuple per row
    of a ``Band``, read run by run from its columns."""
    prices = band.prices.tolist()
    bounds = band.starts.tolist() + [len(prices)]
    rows = []
    for run, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        edges = band.edges[band.edge_of_run[run]].tolist()
        rows += [(i + 1, prices[i], *edges) for i in range(lo, hi)]
    return rows
