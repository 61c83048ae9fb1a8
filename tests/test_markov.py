import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lpreset
from lpreset import (
    InputError,
    LandingLaw,
    NextPriceDistribution,
    build_reset_chain,
    landing_distribution,
    landing_law,
    outcome_matrix,
    stationary_distribution,
)
from lpreset.distribution import at_offsets
from lpreset.markov import _f_block, landing_over

from conftest import dists


def power_iteration(M, iters=10_000):
    """Brute-force stationary oracle."""
    p = np.full(M.shape[0], 1.0 / M.shape[0])
    for _ in range(iters):
        p = p @ M
    return p / p.sum()


def reset_probs(dist, n_tau):
    """g(i) = 1 - sum_{j in B_tau} f(i, j) for i in B_tau."""
    return 1.0 - outcome_matrix(dist, n_tau, n_tau).O.sum(axis=1)


class TestTransitionProb:
    def test_toy_one_step(self, toy_dist):
        # f(0, 1): row i = 0, column j = 1 of the in-window block
        assert outcome_matrix(toy_dist, 1, 1).O[1, 2] == pytest.approx(1 / 3)

    def test_outside_support_is_zero(self, toy_dist):
        k = toy_dist.k_max + 1
        assert outcome_matrix(toy_dist, 0, k).O[0, 2 * k] == 0.0

    def test_two_bin_move_has_no_mass(self, toy_dist):
        assert build_reset_chain(toy_dist, 1).M[0, 2] == 0.0


class TestResetProb:
    def test_center_never_resets(self, toy_dist):
        assert reset_probs(toy_dist, 1)[1] == 0.0

    def test_outer_bin_resets_one_third(self, toy_dist):
        assert reset_probs(toy_dist, 1)[2] == pytest.approx(1 / 3)

    def test_single_bin_window(self, toy_dist):
        assert reset_probs(toy_dist, 0)[0] == pytest.approx(2 / 3)


class TestResetChain:
    def test_worked_example_matrix(self, toy_dist):
        chain = build_reset_chain(toy_dist, 1)
        expected = np.array(
            [[1 / 3, 2 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 2 / 3, 1 / 3]]
        )
        np.testing.assert_allclose(chain.M, expected, atol=1e-15)

    def test_zero_window_absorbs_everything(self, toy_dist):
        chain = build_reset_chain(toy_dist, 0)
        np.testing.assert_array_equal(chain.M, [[1.0]])
        np.testing.assert_array_equal(chain.stationary, [1.0])

    def test_five_support_rows(self, five_dist):
        chain = build_reset_chain(five_dist, 1)
        expected = np.array([[0.4, 0.5, 0.1], [0.2, 0.6, 0.2], [0.1, 0.5, 0.4]])
        np.testing.assert_allclose(chain.M, expected, atol=1e-15)

    def test_rows_stochastic_for_any_window(self, eth_dist):
        for n_tau in (0, 1, 3, 10, 64, 80):
            chain = build_reset_chain(eth_dist, n_tau)
            np.testing.assert_allclose(chain.M.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(chain.M >= 0)


class TestStationary:
    def test_worked_example(self, toy_dist):
        chain = build_reset_chain(toy_dist, 1)
        np.testing.assert_allclose(chain.stationary, [0.25, 0.5, 0.25], atol=1e-12)

    def test_identity_chain(self):
        np.testing.assert_array_equal(stationary_distribution(np.array([[1.0]])), [1.0])

    def test_five_support(self, five_dist):
        chain = build_reset_chain(five_dist, 1)
        np.testing.assert_allclose(chain.stationary, [2 / 9, 5 / 9, 2 / 9], atol=1e-12)

    def test_matches_power_iteration(self, eth_dist):
        for n_tau in (1, 4, 9):
            chain = build_reset_chain(eth_dist, n_tau)
            oracle = power_iteration(chain.M)
            np.testing.assert_allclose(chain.stationary, oracle, atol=1e-8)

    def test_fixed_point_residual(self, eth_dist):
        for n_tau in (0, 2, 7, 20):
            chain = build_reset_chain(eth_dist, n_tau)
            p = chain.stationary
            assert np.max(np.abs(p @ chain.M - p)) < 1e-10
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)

    def test_symmetric_h_gives_palindromic_stationary(self, eth_dist):
        chain = build_reset_chain(eth_dist, 6)
        np.testing.assert_allclose(
            chain.stationary, chain.stationary[::-1], atol=1e-10
        )

    def test_degenerate_point_mass_distribution(self):
        # a point mass at 0 freezes every state, so the chain is the identity
        # and any distribution is stationary; the solver must still return a
        # valid fixed point
        from lpreset import NextPriceDistribution

        d = NextPriceDistribution(1, np.array([0.0, 1.0, 0.0]), 1.0)
        chain = build_reset_chain(d, 1)
        np.testing.assert_array_equal(chain.M, np.eye(3))
        p = chain.stationary
        assert np.max(np.abs(p @ chain.M - p)) < 1e-12
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0)

    def test_non_square_rejected(self):
        with pytest.raises(InputError):
            stationary_distribution(np.array([[0.5, 0.5]]))

    def test_rows_that_do_not_sum_to_one_rejected(self):
        with pytest.raises(InputError, match="rows must sum to 1"):
            stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.4]]))


class TestOutcomeAndLanding:
    def test_worked_example_outcome(self, toy_dist):
        O = outcome_matrix(toy_dist, 1, 1)
        expected = np.array(
            [[1 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 1 / 3]]
        )
        np.testing.assert_allclose(O.O, expected, atol=1e-15)

    def test_single_column(self, toy_dist):
        O = outcome_matrix(toy_dist, 1, 0)
        np.testing.assert_allclose(O.O, [[1 / 3], [1 / 3], [1 / 3]], atol=1e-15)

    def test_zero_window_row(self, toy_dist):
        O = outcome_matrix(toy_dist, 0, 1)
        np.testing.assert_allclose(O.O, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_worked_example_landing(self, toy_dist):
        chain = build_reset_chain(toy_dist, 1)
        q = landing_distribution(chain, outcome_matrix(toy_dist, 1, 1))
        np.testing.assert_allclose(q, [0.25, 1 / 3, 0.25], atol=1e-12)
        assert 1.0 - q.sum() == pytest.approx(1 / 6, abs=1e-12)

    def test_zero_window_landing_is_h(self, eth_dist):
        chain = build_reset_chain(eth_dist, 0)
        q = landing_distribution(chain, outcome_matrix(eth_dist, 0, eth_dist.k_max))
        np.testing.assert_allclose(q, eth_dist.probs, atol=1e-14)

    @pytest.mark.parametrize("n_tau, n_alpha", [(-1, 1), (1, -1)])
    def test_negative_window_rejected(self, toy_dist, n_tau, n_alpha):
        with pytest.raises(InputError, match="n_tau and n_alpha must be >= 0"):
            outcome_matrix(toy_dist, n_tau, n_alpha)

    def test_shape_mismatch(self, toy_dist):
        chain = build_reset_chain(toy_dist, 1)
        with pytest.raises(InputError):
            landing_distribution(chain, outcome_matrix(toy_dist, 0, 1))

    def test_landing_deficit_conservation(self, eth_dist):
        # deficit must equal the stationary-weighted mass of h beyond B_alpha
        for n_tau, n_alpha in ((2, 5), (4, 4), (6, 70)):
            chain = build_reset_chain(eth_dist, n_tau)
            q = landing_distribution(chain, outcome_matrix(eth_dist, n_tau, n_alpha))
            deficit = 1.0 - q.sum()
            expected = 0.0
            for idx, i in enumerate(range(-n_tau, n_tau + 1)):
                outside = sum(
                    eth_dist.prob(j - i)
                    for j in range(-n_tau - eth_dist.k_max, n_tau + eth_dist.k_max + 1)
                    if abs(j) > n_alpha
                )
                expected += chain.stationary[idx] * outside
            assert deficit == pytest.approx(expected, abs=1e-12)

    def test_landing_over_matches_outcome_columns(self, five_dist):
        chain = build_reset_chain(five_dist, 1)
        js = np.arange(-3, 4)
        q = landing_over(chain, js)
        O = outcome_matrix(five_dist, 1, 3)
        np.testing.assert_allclose(q, chain.stationary @ O.O, atol=1e-15)


# the traced peak of 15,000 f blocks, cycling the n_tau of perfbench's sweep
F_BLOCK_LOOP = """
import tracemalloc
import numpy as np
from lpreset.distribution import NextPriceDistribution
from lpreset.markov import _f_block
h = np.exp(-0.2 * np.abs(np.arange(-64, 65)))
dist = NextPriceDistribution(64, h / h.sum(), 1.0)
shapes = [(n, n) for n in (0, 1, 2, 4, 8, 16, 32, 64)]
tracemalloc.start()
for k in range(15_000):
    _f_block(dist, *shapes[k % len(shapes)])
print(tracemalloc.get_traced_memory()[1])
"""


class TestFBlock:
    @settings(max_examples=300, deadline=None)
    @given(dist=dists(), n_rows=st.integers(0, 20), n_cols=st.integers(0, 20))
    def test_equals_the_index_matrix_lookup(self, dist, n_rows, n_cols):
        # rows and columns past k_max, and r + c beyond it, hit the zero padding
        i = np.arange(-n_rows, n_rows + 1)[:, None]
        j = np.arange(-n_cols, n_cols + 1)[None, :]
        want = at_offsets(dist.probs, j - i)
        got = _f_block(dist, n_rows, n_cols)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable
        # a view of one zero-padded h
        pad = max(dist.k_max, n_rows + n_cols)
        assert got.base.shape == (2 * pad + 1,) and np.shares_memory(got, got.base)

    def test_many_calls_hold_no_memory(self):
        # a fresh process: numpy's as_strided keeps a block of about 939 KiB
        # once a process has made some 10,000 views, so earlier tests would hide it
        env = dict(os.environ, PYTHONPATH=str(Path(lpreset.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", F_BLOCK_LOOP], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert int(run.stdout) < 100 * 1024

    def test_reset_chain_gets_its_own_copy(self, toy_dist):
        M = build_reset_chain(toy_dist, 1).M
        assert M.flags.writeable and M.flags.c_contiguous
        np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-15)


class TestLandingLawMemory:
    def test_block_too_large_for_memory_is_an_input_error(self, toy_dist, monkeypatch):
        eye = np.eye

        def small_eye(n, *args, **kwargs):  # never allocates the (2 n_tau + 1)^2 block
            if n > 10_001:
                raise MemoryError(f"Unable to allocate an array of shape ({n}, {n})")
            return eye(n, *args, **kwargs)

        monkeypatch.setattr(np, "eye", small_eye)
        with pytest.raises(InputError, match="n_tau 100000 is too large"):
            landing_law(toy_dist, 100_000)
        assert landing_law(toy_dist, 2).n_tau == 2


class TestChainIsItsLandingLaw:
    @settings(max_examples=200, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 12))
    def test_chain_carries_the_law_bit_for_bit(self, dist, n_tau):
        law = landing_law(dist, n_tau)
        chain = build_reset_chain(dist, n_tau)
        assert isinstance(chain, LandingLaw) and chain.n_tau == n_tau
        assert chain.stationary.tobytes() == law.stationary.tobytes()
        assert chain.q.tobytes() == law.q.tobytes()
        assert chain.cycle_length == law.cycle_length

    @pytest.mark.parametrize("n_tau", [0, 1, 5])
    def test_no_move_chain_has_an_infinite_cycle(self, n_tau):
        dist = NextPriceDistribution(2, np.array([0.0, 0.0, 1.0, 0.0, 0.0]), 1.0)
        law, chain = landing_law(dist, n_tau), build_reset_chain(dist, n_tau)
        assert chain.cycle_length == law.cycle_length == math.inf
        assert chain.stationary.tobytes() == law.stationary.tobytes()
        assert chain.q.tobytes() == law.q.tobytes()
        assert np.array_equal(chain.M, np.eye(2 * n_tau + 1))

    @settings(max_examples=100, deadline=None)
    @given(dist=dists(), n_tau=st.integers(0, 6),
           js=st.lists(st.integers(-(10**12), 10**12), max_size=20))
    def test_landing_over_reads_q(self, dist, n_tau, js):
        js = np.array(js, dtype=np.int64)
        law = landing_law(dist, n_tau)
        want = at_offsets(law.q, js).tobytes()
        assert landing_over(law, js).tobytes() == want
        assert landing_over(build_reset_chain(dist, n_tau), js).tobytes() == want
