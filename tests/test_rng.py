"""Counter-based generator: determinism, stream independence, distribution
sanity, permutation properties."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinevi import rng
from onlinevi.rng import CounterRng, derive_seed, step_normals


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = CounterRng(42, "x").uniforms(1000)
        b = CounterRng(42, "x").uniforms(1000)
        np.testing.assert_array_equal(a, b)

    def test_counter_continuation(self):
        r = CounterRng(42, "x")
        first = np.concatenate([r.uniforms(5), r.uniforms(5)])
        np.testing.assert_array_equal(first, CounterRng(42, "x").uniforms(10))

    @pytest.mark.parametrize("label", ["mc-expected-loss", "", "stream-permutation",
                                       "\u00f1and\u00fa", "\u6d41-\U0001f3b2"])
    def test_string_labels_hash_as_hashlib_blake2b(self, label):
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        assert rng._hash64(label) == int.from_bytes(digest, "little")

    def test_streams_differ(self):
        a = CounterRng(42, "x").uniforms(100)
        b = CounterRng(42, "y").uniforms(100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = CounterRng(1).uniforms(100)
        b = CounterRng(2).uniforms(100)
        assert not np.array_equal(a, b)

    def test_derive_is_stable(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)


class TestStepNormals:
    """``step_normals`` against the per-step draw it vectorizes, compared
    bit for bit (as IEEE-754 words, not values)."""

    @staticmethod
    def _assert_rows_are_the_per_step_draws(seed, first, count, n, stream):
        block = step_normals(seed, first, count, n, stream)
        rows = [CounterRng(derive_seed(seed, first + i), stream).normals(n)
                for i in range(count)]
        assert block.shape == (count, n)
        np.testing.assert_array_equal(block.view(np.uint64),
                                      np.array(rows).reshape(count, n).view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), first=st.integers(0, 10 ** 6),
           count=st.integers(0, 12), n=st.integers(0, 301),
           stream=st.sampled_from([0, 5, "mc-expected-loss"]))
    def test_rows_are_the_per_step_draws(self, seed, first, count, n, stream):
        self._assert_rows_are_the_per_step_draws(seed, first, count, n, stream)

    def test_odd_n_one_value_and_late_first_step(self):
        for n, first in [(1, 1), (7, 2), (2079, 1999), (2, 123456)]:
            self._assert_rows_are_the_per_step_draws(3, first, 5, n, "s")

    def test_a_long_block(self):
        # 2000 steps of 104 values (nn-mc's per-step draw is 2080)
        self._assert_rows_are_the_per_step_draws(7, 1, 2000, 104, "mc-expected-loss")


class TestDistributions:
    def test_uniforms_open_interval(self):
        u = CounterRng(0).uniforms(10 ** 6)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_uniform_moments(self):
        u = CounterRng(1, "u").uniforms(10 ** 6)
        # 3 sigma bands for mean 1/2 (sd 1/sqrt(12 n)) and var 1/12
        assert abs(u.mean() - 0.5) < 3.0 / np.sqrt(12.0 * u.size)
        assert abs(u.var() - 1.0 / 12.0) < 1e-3

    def test_normal_moments(self):
        z = CounterRng(2, "n").normals(10 ** 6)
        assert abs(z.mean()) < 3.0 / np.sqrt(z.size)
        assert abs(z.var() - 1.0) < 5e-3

    def test_normals_odd_count(self):
        assert CounterRng(3).normals(7).shape == (7,)
        assert CounterRng(3).normals(0).size == 0


class TestPermutation:
    def test_is_bijection(self):
        perm = CounterRng(7, "perm").permutation(1000)
        assert np.array_equal(np.sort(perm), np.arange(1000))

    def test_deterministic(self):
        a = CounterRng(7, "perm").permutation(100)
        b = CounterRng(7, "perm").permutation(100)
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def _item_loop(rng, n):
        """The Fisher-Yates loop on a numpy array, one item access per
        swap: the oracle for the list-based loop."""
        idx = np.arange(n)
        if n <= 1:
            return idx
        u = rng.uniforms(n - 1)
        for pos, i in enumerate(range(n - 1, 0, -1)):
            j = min(int(u[pos] * (i + 1)), i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3])
    def test_same_indices_as_the_item_loop(self, seed):
        for n in (0, 1, 2, 3, 10, 257, 10000):
            perm = CounterRng(seed, "stream-permutation").permutation(n)
            oracle = self._item_loop(CounterRng(seed, "stream-permutation"), n)
            assert perm.dtype == oracle.dtype and perm.shape == (n,)
            assert np.array_equal(perm, oracle), (seed, n)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_same_indices_as_the_item_loop_on_long_streams(self, seed):
        # streams up to five times the toy's 10k rows
        for n in (20011, 50000):
            perm = CounterRng(seed, "stream-permutation").permutation(n)
            oracle = self._item_loop(CounterRng(seed, "stream-permutation"), n)
            assert np.array_equal(perm, oracle), (seed, n)

    def test_actually_permutes(self):
        perm = CounterRng(7, "perm").permutation(100)
        assert not np.array_equal(perm, np.arange(100))

    def test_integers_in_range(self):
        vals = CounterRng(5).integers(10000, 7)
        assert vals.min() >= 0 and vals.max() <= 6
        assert len(np.unique(vals)) == 7
