"""Counter-based generator: determinism, stream independence, distribution
sanity, permutation properties."""

import numpy as np

from onlinevi.rng import CounterRng, derive_seed


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = CounterRng(42, "x").uniforms(1000)
        b = CounterRng(42, "x").uniforms(1000)
        np.testing.assert_array_equal(a, b)

    def test_counter_continuation(self):
        r = CounterRng(42, "x")
        first = np.concatenate([r.uniforms(5), r.uniforms(5)])
        np.testing.assert_array_equal(first, CounterRng(42, "x").uniforms(10))

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

    def test_actually_permutes(self):
        perm = CounterRng(7, "perm").permutation(100)
        assert not np.array_equal(perm, np.arange(100))

    def test_integers_in_range(self):
        vals = CounterRng(5).integers(10000, 7)
        assert vals.min() >= 0 and vals.max() <= 6
        assert len(np.unique(vals)) == 7
