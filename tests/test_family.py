"""Mean-field Gaussian family: KL, the h map, projections, and
parameterization roundtrips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinevi.errors import DimensionMismatchError, DomainError, InvalidPrecisionError
from onlinevi.family import (
    SIGMA_FLOOR,
    BoxConstraints,
    MeanFieldGaussian,
    NaturalParams,
    from_natural,
    h_map,
    kl_divergence,
    project_box,
    to_natural,
)
from onlinevi.rng import CounterRng


class TestKlDivergence:
    def test_identical_is_zero(self):
        q = MeanFieldGaussian([0.0], [1.0])
        assert kl_divergence(q, q) == 0.0

    def test_mean_shift(self):
        q = MeanFieldGaussian([1.0], [1.0])
        p = MeanFieldGaussian([0.0], [1.0])
        assert kl_divergence(q, p) == pytest.approx(0.5, abs=1e-15)

    def test_scale_change_closed_form(self):
        q = MeanFieldGaussian([0.0], [1.0])
        p = MeanFieldGaussian([0.0], [2.0])
        assert kl_divergence(q, p) == pytest.approx(0.3181472, abs=1e-7)

    def test_scale_change_monte_carlo_oracle(self):
        # E_q[log(q/p)] estimated with 10^6 samples must agree within 3 se
        q = MeanFieldGaussian([0.0], [1.0])
        p = MeanFieldGaussian([0.0], [2.0])
        z = CounterRng(123, "kl-mc").normals(10 ** 6)
        log_ratio = (np.log(2.0) - 0.5 * z ** 2 + 0.5 * (z / 2.0) ** 2)
        se = log_ratio.std(ddof=1) / np.sqrt(log_ratio.size)
        assert abs(kl_divergence(q, p) - log_ratio.mean()) < 3.0 * se

    def test_positive_for_distinct_pairs(self):
        rng = CounterRng(5, "kl-pairs")
        for _ in range(100):
            d = 1 + int(rng.integers(1, 4)[0])
            q = MeanFieldGaussian(rng.normals(d), 0.2 + rng.uniforms(d))
            p = MeanFieldGaussian(rng.normals(d), 0.2 + rng.uniforms(d))
            assert kl_divergence(q, p) > 0.0
            assert kl_divergence(q, q) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kl_divergence(MeanFieldGaussian([0.0], [1.0]),
                          MeanFieldGaussian([0.0, 0.0], [1.0, 1.0]))

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            MeanFieldGaussian([0.0], [0.0])
        with pytest.raises(DomainError):
            MeanFieldGaussian([0.0], [-1.0])


class TestHMap:
    def test_exact_values(self):
        assert h_map(0.0) == 1.0
        assert h_map(0.75) == pytest.approx(0.5, abs=1e-15)
        assert h_map(-0.75) == pytest.approx(2.0, abs=1e-15)

    def test_product_identity_on_grid(self):
        x = np.linspace(-10.0, 10.0, 4001)
        prod = h_map(x) * (np.sqrt(1.0 + x * x) + x)
        assert np.max(np.abs(prod - 1.0)) <= 1e-12

    @given(st.floats(-50.0, 50.0), st.floats(1e-6, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_positive_and_strictly_decreasing(self, x, step):
        assert h_map(x) > 0.0
        assert h_map(x + step) < h_map(x)

    def test_vector_shape(self):
        out = h_map(np.array([0.0, 0.75]))
        np.testing.assert_allclose(out, [1.0, 0.5])

    @staticmethod
    def _two_branches(x):
        """h in its two-branch form: 1 / (root + x) for x > 0, root - x
        otherwise, root = sqrt(1 + x^2)."""
        root = np.sqrt(1.0 + x * x)
        return np.where(x > 0.0, 1.0 / (root + np.abs(x)), root - x)

    EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-160,
                1.3e154, -1.4e154, 1e300, -1.7976931348623157e308, np.inf, -np.inf, np.nan]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.parametrize("extra", [[], EXTREMES])
    def test_one_formula_has_the_bits_of_two_branches(self, extra, values):
        # for x <= 0, root + |x| is root - x exactly: a subtraction is the
        # addition of the negation.  A NaN in gives a NaN out; IEEE 754
        # leaves the sign of that NaN open, and numpy's loops differ in it
        x = np.array(values + extra)
        out = np.empty_like(x)
        with np.errstate(all="ignore"):
            new, old = h_map(x), self._two_branches(x)
            assert h_map(x, out=out) is out
            scalars = [h_map(value) for value in x.tolist()]
        nan = np.isnan(old)
        np.testing.assert_array_equal(np.isnan(new), nan)
        np.testing.assert_array_equal(new[~nan].view(np.int64), old[~nan].view(np.int64))
        np.testing.assert_array_equal(out.view(np.int64), new.view(np.int64))
        np.testing.assert_array_equal(np.array(scalars)[~nan].view(np.int64),
                                      new[~nan].view(np.int64))


class TestProjectBox:
    BOX = BoxConstraints.symmetric(1, m_abs=20.0, sigma_hi=1.0)

    def test_paper_box_clamps_mean(self):
        q = project_box(MeanFieldGaussian([25.0], [0.5]), self.BOX)
        assert q.m[0] == 20.0 and q.sigma[0] == 0.5

    def test_interior_fixed(self):
        q0 = MeanFieldGaussian([3.0], [0.7])
        q1 = project_box(q0, self.BOX)
        assert q1.m[0] == 3.0 and q1.sigma[0] == 0.7

    def test_sigma_clamped(self):
        q = project_box(MeanFieldGaussian([0.0], [1.7]), self.BOX)
        assert q.sigma[0] == 1.0

    def test_sigma_floor(self):
        q = project_box(MeanFieldGaussian([0.0], [1e-300]), self.BOX)
        assert q.sigma[0] == SIGMA_FLOOR

    def test_idempotent(self):
        rng = CounterRng(8, "proj")
        box = BoxConstraints.symmetric(3, m_abs=2.0, sigma_hi=0.8, sigma_lo=0.1)
        for _ in range(50):
            q = MeanFieldGaussian(5.0 * rng.normals(3), 0.01 + 2.0 * rng.uniforms(3))
            once = project_box(q, box)
            twice = project_box(once, box)
            np.testing.assert_array_equal(once.m, twice.m)
            np.testing.assert_array_equal(once.sigma, twice.sigma)

    @given(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_nonexpansive_per_coordinate(self, a, b):
        clamp = lambda v: float(np.clip(v, -20.0, 20.0))
        assert abs(clamp(a) - clamp(b)) <= abs(a - b) + 1e-15


class TestParameterizations:
    def test_prior_natural(self):
        s = 1.7
        lam = to_natural(MeanFieldGaussian([0.0], [s]))
        assert lam.lambda1[0] == 0.0
        assert lam.lambda2[0] == pytest.approx(-1.0 / (2.0 * s * s), rel=1e-15)

    def test_unit_gaussian_coordinates(self):
        q = MeanFieldGaussian([1.0], [1.0])
        lam = to_natural(q)
        np.testing.assert_allclose([lam.lambda1[0], lam.lambda2[0]], [1.0, -0.5])

    def test_roundtrips_random(self):
        rng = CounterRng(3, "roundtrip")
        for _ in range(100):
            d = 1 + int(rng.integers(1, 5)[0])
            q = MeanFieldGaussian(3.0 * rng.normals(d), 0.1 + 2.0 * rng.uniforms(d))
            back = from_natural(to_natural(q))
            assert np.max(np.abs(back.m - q.m) / np.maximum(np.abs(q.m), 1e-300)) <= 1e-12 \
                or np.max(np.abs(back.m - q.m)) <= 1e-12
            np.testing.assert_allclose(back.sigma, q.sigma, rtol=1e-12)

    def test_invalid_precision(self):
        with pytest.raises(InvalidPrecisionError):
            NaturalParams([0.0], [0.0])
        with pytest.raises(InvalidPrecisionError):
            NaturalParams([0.0], [0.5])


class TestBoxDiameter:
    def test_paper_cube_formula(self):
        # D^2 = d (4 Mbar^2 + Sbar^2) for the cube box
        box = BoxConstraints.symmetric(2, m_abs=20.0, sigma_hi=1.0)
        assert box.diameter() == pytest.approx(np.sqrt(3202.0), rel=1e-12)

    def test_invalid_boxes(self):
        with pytest.raises(DomainError):
            BoxConstraints([1.0], [0.0], [0.0], [1.0])
        with pytest.raises(DomainError):
            BoxConstraints([0.0], [1.0], [0.5], [0.1])
