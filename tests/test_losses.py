"""Losses: closed forms against Monte-Carlo and finite-difference oracles,
convexity inequalities, Lipschitz audits."""

import numpy as np
import pytest
from conftest import fd_expected_grad, rel_vec_error
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onlinevi.data import CLASSIFICATION, REGRESSION, Dataset
from onlinevi.errors import DimensionMismatchError, UnsupportedLossError
from onlinevi.family import BoxConstraints, MeanFieldGaussian
from onlinevi.losses import (
    DataExample,
    LossKind,
    _point_loss_grad_many,
    expected_grad_xy,
    expected_loss,
    expected_loss_grad,
    expected_loss_series,
    expert_loss_matrix,
    gaussian_cdf,
    lipschitz_constant,
    mc_expected_loss_and_grad,
    mc_grad_xy,
    mean_loss_and_grad,
    point_grad,
    point_loss,
    point_loss_series,
)
from onlinevi.rng import CounterRng

HINGE = LossKind.hinge()
SQL = LossKind.squared_linear()


def _random_instance(kind, rng, d_max=5):
    d = 1 + int(rng.integers(1, d_max)[0])
    x = rng.normals(d)
    while np.linalg.norm(x) < 0.3:
        x = rng.normals(d)
    y = (1.0 if rng.uniforms(1)[0] < 0.5 else -1.0) if kind.kind == "hinge" \
        else float(rng.normals(1)[0])
    q = MeanFieldGaussian(0.7 * rng.normals(d), 0.5 + 0.7 * rng.uniforms(d))
    return q, DataExample(x, y)


class TestPointLoss:
    def test_hinge_values(self):
        ex = DataExample([2.0], 1.0)
        assert point_loss(HINGE, [1.0], ex) == 0.0          # margin 2 > 1
        assert point_loss(HINGE, [0.0], ex) == 1.0          # zero score
        assert point_loss(SQL, [0.0], DataExample([1.0], 1.0)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            point_loss(HINGE, [1.0, 2.0], DataExample([1.0], 1.0))

    def test_nn_forward_and_dim(self):
        kind = LossKind.squared_nn(2)
        # d_in=1 -> dim = 2*(1+2)+1 = 7
        assert kind.param_dim(1) == 7
        theta = np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.5])
        # f(x) = relu(x) + relu(-x) + 0.5 = |x| + 0.5
        ex = DataExample([2.0], 3.0)
        assert point_loss(kind, theta, ex) == pytest.approx((3.0 - 2.5) ** 2)

    def test_nn_point_grad_vs_fd(self):
        kind = LossKind.squared_nn(3)
        rng = CounterRng(4, "nn-grad")
        for _ in range(20):
            d_in = 2
            theta = rng.normals(kind.param_dim(d_in))
            ex = DataExample(rng.normals(d_in), float(rng.normals(1)[0]))
            g = point_grad(kind, theta, ex)
            fd = np.zeros_like(theta)
            h = 1e-6
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (point_loss(kind, theta + e, ex)
                         - point_loss(kind, theta - e, ex)) / (2.0 * h)
            assert rel_vec_error(g, fd) < 1e-6


class TestExpectedLoss:
    def test_squared_linear_value(self):
        q = MeanFieldGaussian([0.0], [1.0])
        assert expected_loss(SQL, q, DataExample([1.0], 0.0)) == 1.0

    def test_hinge_zero_features(self):
        for m, s in (([0.0, 0.0], [1.0, 1.0]), ([5.0, -3.0], [0.2, 0.9])):
            q = MeanFieldGaussian(m, s)
            assert expected_loss(HINGE, q, DataExample([0.0, 0.0], 1.0)) == 1.0

    def test_hinge_closed_form_value(self):
        q = MeanFieldGaussian([0.0], [1.0])
        val = expected_loss(HINGE, q, DataExample([1.0], 1.0))
        assert val == pytest.approx(1.0833155, abs=1e-7)

    def test_hinge_monte_carlo_oracle(self):
        # reparameterized estimate with 10^6 samples within 3 standard errors
        q = MeanFieldGaussian([0.0], [1.0])
        ex = DataExample([1.0], 1.0)
        z = CounterRng(77, "hinge-mc").normals(10 ** 6)
        samples = np.maximum(0.0, 1.0 - z)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(expected_loss(HINGE, q, ex) - samples.mean()) < 3.0 * se

    @pytest.mark.parametrize("y", [0.01, 0.3, -3.7])
    def test_hinge_real_label_monte_carlo_oracle(self, y):
        # on a real-valued target the margin 1 - y theta . x has standard
        # deviation |y| sqrt(sum_j sigma_j^2 x_j^2): the closed-form loss and
        # gradient agree with 10^6 reparameterized samples within 3 standard
        # errors
        q = MeanFieldGaussian([0.4, -0.2], [0.8, 1.3])
        ex = DataExample([1.5, 0.7], y)
        eps = CounterRng(78, "hinge-real-mc").normals(2 * 10 ** 6).reshape(-1, 2)
        margins = 1.0 - y * ((q.m + q.sigma * eps) @ ex.x)
        g_m = -y * (margins > 0.0)[:, None] * ex.x
        rows = np.column_stack([np.maximum(0.0, margins), g_m, g_m * eps])
        means, se = rows.mean(axis=0), rows.std(axis=0, ddof=1) / np.sqrt(rows.shape[0])
        g = expected_loss_grad(HINGE, q, ex)
        closed = np.concatenate([[expected_loss(HINGE, q, ex)], g.g_m, g.g_sigma])
        assert np.all(np.abs(closed - means) <= 3.0 * se + 1e-12)

    def test_nn_routed_to_mc(self):
        kind = LossKind.squared_nn(2)
        q = MeanFieldGaussian(np.zeros(kind.param_dim(1)), np.ones(kind.param_dim(1)))
        with pytest.raises(UnsupportedLossError):
            expected_loss(kind, q, DataExample([1.0], 0.0))

    def test_jensen_point_below_expected(self):
        rng = CounterRng(9, "jensen")
        for kind in (HINGE, SQL):
            for _ in range(100):
                q, ex = _random_instance(kind, rng)
                assert point_loss(kind, q.m, ex) <= expected_loss(kind, q, ex) + 1e-12

    def test_sigma_floor_limit(self):
        rng = CounterRng(10, "limit")
        for kind in (HINGE, SQL):
            for _ in range(20):
                q, ex = _random_instance(kind, rng)
                tiny = MeanFieldGaussian(q.m, np.full(q.d, 1e-6))
                assert abs(expected_loss(kind, tiny, ex)
                           - point_loss(kind, q.m, ex)) < 1e-4

    def test_series_matches_scalar(self):
        rng = CounterRng(11, "series")
        q, _ = _random_instance(SQL, rng, d_max=4)
        d = q.d
        feats = rng.normals(20 * d).reshape(20, d)
        targs = rng.normals(20)
        for kind in (HINGE, SQL):
            series = expected_loss_series(kind, q, feats, targs)
            scalar = [expected_loss(kind, q, DataExample(feats[i], targs[i]))
                      for i in range(20)]
            np.testing.assert_allclose(series, scalar, rtol=1e-12)


class TestExpectedLossGrad:
    def test_squared_linear_values(self):
        q = MeanFieldGaussian([1.0], [1.0])
        g = expected_loss_grad(SQL, q, DataExample([1.0], 0.0))
        np.testing.assert_allclose(g.g_m, [2.0])
        np.testing.assert_allclose(g.g_sigma, [2.0])

    def test_hinge_zero_features(self):
        q = MeanFieldGaussian([1.0, 2.0], [0.5, 0.5])
        g = expected_loss_grad(HINGE, q, DataExample([0.0, 0.0], 1.0))
        np.testing.assert_array_equal(g.g_m, [0.0, 0.0])
        np.testing.assert_array_equal(g.g_sigma, [0.0, 0.0])

    def test_hinge_closed_form_values(self):
        q = MeanFieldGaussian([0.0], [1.0])
        g = expected_loss_grad(HINGE, q, DataExample([1.0], 1.0))
        assert g.g_m[0] == pytest.approx(-0.8413447, abs=1e-7)
        assert g.g_sigma[0] == pytest.approx(0.2419707, abs=1e-7)

    @pytest.mark.parametrize("kind", [HINGE, SQL], ids=["hinge", "squared_linear"])
    def test_finite_difference_oracle(self, kind):
        rng = CounterRng(12, f"fd-{kind.kind}")
        for _ in range(100):
            q, ex = _random_instance(kind, rng)
            if kind.kind == "hinge":
                mu_z = 1.0 - ex.y * float(q.m @ ex.x)
                s_z = float(np.sqrt(np.sum((q.sigma * ex.x) ** 2)))
                if abs(mu_z / s_z) > 4.0:
                    continue
            g = expected_loss_grad(kind, q, ex)
            analytic = np.concatenate([g.g_m, g.g_sigma])
            assert rel_vec_error(analytic, fd_expected_grad(kind, q, ex)) <= 1e-5

    def test_hinge_sigma_monotone(self):
        # g_sigma >= 0 everywhere: expected hinge loss nondecreasing in sigma
        rng = CounterRng(13, "mono")
        for _ in range(100):
            q, ex = _random_instance(HINGE, rng)
            g = expected_loss_grad(HINGE, q, ex)
            assert np.all(g.g_sigma >= 0.0)


#: (z, Phi(z)) with Phi evaluated in 200-bit arithmetic (mpmath.ncdf) at the
#: exact double z and rounded to the nearest double.  Each z is a double
#: next to a round number at which z / sqrt(2) rounds by less than 1e-4
#: ulp, so a comparison sees the error of erfc itself, not the error of
#: the division, which the tail would amplify about 2 (z / sqrt 2)^2 times.
PHI_REFERENCE = [
    (-7.999999999984357, 6.22096057506209e-16),
    (-7.00000000001656, 1.2798125437345633e-12),
    (-5.999999999999522, 9.865876450406015e-10),
    (-4.499999999997092, 3.3976731247765395e-06),
    (-3.9999999999921787, 3.167124183416665e-05),
    (-2.999999999999761, 0.0013498980316311534),
    (-1.9999999999960894, 0.022750131948390345),
    (-1.4999999999998805, 0.06680720126887355),
    (-0.9999999999980447, 0.1586552539319302),
    (-0.49999999999902234, 0.3085375387263311),
    (0.49999999999902234, 0.691462461273669),
    (0.9999999999980447, 0.8413447460680699),
    (1.9999999999960894, 0.9772498680516096),
    (2.999999999999761, 0.9986501019683689),
    (3.9999999999921787, 0.9999683287581659),
    (5.999999999999522, 0.9999999990134123),
    (7.999999999984357, 0.9999999999999993),
    # the far lower tail, down to the edge of the normal doubles
    (-8.999999999994184, 1.1285884060136257e-19),
    (-13.000000000033491, 6.117164396870958e-39),
    (-15.000000000018327, 3.670966198299156e-51),
    (-17.000000000003162, 4.10599620187744e-65),
    (-17.99999999998837, 9.740948920982855e-73),
    (-25.00000000001214, 3.056696705453403e-138),
    (-27.00000000005219, 7.38948099645816e-161),
    (-30.000000000036653, 4.9067139217467806e-198),
    (-34.99999999999153, 1.1249107068061447e-268),
    (-35.99999999997674, 4.182624069302821e-284),
]


class TestGaussianCdf:
    Z = np.array([z for z, _ in PHI_REFERENCE])
    REF = np.array([p for _, p in PHI_REFERENCE])

    def test_scalar_within_2_ulp_of_reference(self):
        for z, ref in PHI_REFERENCE:
            got = gaussian_cdf(z)
            assert isinstance(got, float)
            assert abs(got - ref) <= 2.0 * np.spacing(ref), z

    def test_array_within_2_ulp_of_reference(self):
        got = gaussian_cdf(self.Z)
        assert got.shape == self.Z.shape
        assert np.all(np.abs(got - self.REF) <= 2.0 * np.spacing(self.REF))

    def test_array_equals_scalar_path_in_any_shape(self):
        grid = self.Z[:24].reshape(2, 3, 4)
        got = gaussian_cdf(grid)
        assert got.shape == (2, 3, 4)
        np.testing.assert_array_equal(got.ravel(), [gaussian_cdf(float(z)) for z in grid.ravel()])
        assert gaussian_cdf(np.float64(0.25)) == gaussian_cdf(0.25)
        assert float(gaussian_cdf(np.asarray(0.25))) == gaussian_cdf(0.25)
        assert gaussian_cdf(0) == 0.5


def _two_pass_loss_and_grads(kind, thetas, x, y):
    """The Monte-Carlo step as it was before the loss came from the gradient's
    forward pass: per-row losses and subgradients from two separate passes."""
    n = thetas.shape[0]

    def forward():
        hw, d_in = kind.hidden_width, x.size
        w1 = thetas[:, : hw * d_in].reshape(n, hw, d_in)
        b1 = thetas[:, hw * d_in: hw * d_in + hw]
        w2 = thetas[:, hw * d_in + hw: hw * d_in + 2 * hw]
        pre = w1 @ x + b1
        hidden = np.maximum(pre, 0.0)
        return np.sum(w2 * hidden, axis=1) + thetas[:, -1], pre, hidden, w2

    if kind.kind == "hinge":
        losses = np.maximum(0.0, 1.0 - y * (thetas @ x))
        margins = 1.0 - y * (thetas @ x)
        return losses, np.where(margins[:, None] > 0.0, -y * x[None, :], 0.0)
    if kind.kind == "squared_linear":
        losses = (y - thetas @ x) ** 2
        resid = y - thetas @ x
        return losses, -2.0 * resid[:, None] * x[None, :]
    losses = (y - forward()[0]) ** 2
    hw, d_in = kind.hidden_width, x.size
    f, pre, hidden, w2 = forward()
    dloss = -2.0 * (y - f)
    g_b1 = dloss[:, None] * w2 * (pre > 0.0)
    grads = np.empty_like(thetas)
    grads[:, : hw * d_in] = (g_b1[:, :, None] * x[None, None, :]).reshape(n, -1)
    grads[:, hw * d_in: hw * d_in + hw] = g_b1
    grads[:, hw * d_in + hw: hw * d_in + 2 * hw] = dloss[:, None] * hidden
    grads[:, -1] = dloss
    return losses, grads


class TestMonteCarlo:
    @pytest.mark.parametrize("kind", [HINGE, SQL, LossKind.squared_nn(4)],
                             ids=["hinge", "squared_linear", "squared_nn"])
    def test_one_pass_bitwise_equal_to_two_passes(self, kind):
        rng = CounterRng(21, f"mc-one-pass-{kind.kind}")
        for trial in range(5):
            x = rng.normals(3)
            y = (1.0 if trial % 2 else -1.0) if kind.kind == "hinge" else float(rng.normals(1)[0])
            d = kind.param_dim(3)
            m, sigma = rng.normals(d), 0.2 + rng.uniforms(d)
            estimate, g_m, g_sigma = mc_grad_xy(kind, m, sigma, x, y, 64, 100 + trial)
            eps = CounterRng(100 + trial, "mc-expected-loss").normals(64 * d).reshape(64, d)
            losses, grads = _two_pass_loss_and_grads(kind, m + sigma * eps, x, y)
            assert estimate == float(np.mean(losses))
            np.testing.assert_array_equal(g_m, grads.mean(axis=0))
            np.testing.assert_array_equal(g_sigma, (grads * eps).mean(axis=0))

    def test_degenerate_sigma(self):
        q = MeanFieldGaussian([0.3, -0.4], [1e-8, 1e-8])
        ex = DataExample([1.0, 2.0], 1.0)
        est, _ = mc_expected_loss_and_grad(HINGE, q, ex, samples=256, seed=5)
        assert abs(est - point_loss(HINGE, q.m, ex)) <= 1e-6

    def test_same_seed_identical(self):
        q = MeanFieldGaussian([0.0, 0.0], [1.0, 1.0])
        ex = DataExample([1.0, -1.0], 1.0)
        a = mc_expected_loss_and_grad(SQL, q, ex, samples=128, seed=9)
        b = mc_expected_loss_and_grad(SQL, q, ex, samples=128, seed=9)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1].g_m, b[1].g_m)
        np.testing.assert_array_equal(a[1].g_sigma, b[1].g_sigma)

    def test_matches_closed_form_within_3se(self):
        # estimate and gradient are unbiased for the squared linear loss
        rng = CounterRng(14, "mc-vs-closed")
        for trial in range(20):
            q, ex = _random_instance(SQL, rng, d_max=3)
            samples = 10 ** 6
            est, grad = mc_expected_loss_and_grad(SQL, q, ex, samples=samples,
                                                  seed=1000 + trial)
            # standard errors from a smaller pilot of the same estimator
            eps = CounterRng(2000 + trial, "mc-se").normals(20000 * q.d) \
                .reshape(20000, q.d)
            thetas = q.m + q.sigma * eps
            resid = ex.y - thetas @ ex.x
            losses = resid ** 2
            g_all = -2.0 * resid[:, None] * ex.x[None, :]
            se_loss = losses.std(ddof=1) / np.sqrt(samples)
            se_gm = g_all.std(axis=0, ddof=1) / np.sqrt(samples)
            se_gs = (g_all * eps).std(axis=0, ddof=1) / np.sqrt(samples)
            closed = expected_loss(SQL, q, ex)
            cg = expected_loss_grad(SQL, q, ex)
            assert abs(est - closed) <= 3.0 * se_loss + 1e-12
            assert np.all(np.abs(grad.g_m - cg.g_m) <= 3.0 * se_gm + 1e-9)
            assert np.all(np.abs(grad.g_sigma - cg.g_sigma) <= 3.0 * se_gs + 1e-9)


class TestNetworkSubgradientBits:
    def test_w1_block_keeps_the_signed_zeros_of_masked_units(self):
        # the network's W1 block is g_b1[..., None] * x bit for bit.  Where
        # the ReLU masks a hidden unit, g_b1 is dl/df w2 times 0, a zero with
        # the product's sign, and so is each W1 entry it multiplies: -0.0
        # where the signs differ.  A contraction such as
        # np.einsum("...h,j->...hj", g_b1, x) starts its sums from +0.0 and
        # writes +0.0 there.
        kind = LossKind.squared_nn(6)
        hw, d_in = 6, 2
        x = np.array([0.7, -1.3])
        d = kind.param_dim(d_in)
        thetas = CounterRng(3, "nn-signed-zeros").normals(2 * 16 * d).reshape(2, 16, d)
        _, grads = _point_loss_grad_many(kind, thetas, x, 0.4)
        w1 = grads[..., : hw * d_in].reshape(2, 16, hw, d_in)
        expected = grads[..., hw * d_in: hw * d_in + hw, None] * x
        zeros = expected == 0.0
        assert np.any(zeros & np.signbit(expected)) and np.any(zeros & ~np.signbit(expected))
        np.testing.assert_array_equal(w1.view(np.uint64), expected.view(np.uint64))


class TestLipschitz:
    def test_hinge_norm(self):
        data = Dataset([[3.0, 4.0]], [1.0], CLASSIFICATION, "one")
        box = BoxConstraints.symmetric(2)
        assert lipschitz_constant(HINGE, data, box) == 10.0  # L' = 5, L = 2L'

    def test_hinge_scales_with_the_label(self):
        # the hinge subgradient is -y x 1{margin > 0}: on real-valued
        # targets L' is max_t |y_t| ||x_t||, here row 2's 4 * 2, where
        # max_t ||x_t|| would be 5
        data = Dataset([[3.0, 4.0], [0.0, 2.0]], [0.5, -4.0], REGRESSION, "real")
        assert lipschitz_constant(HINGE, data, BoxConstraints.symmetric(2)) == 16.0

    @pytest.mark.parametrize("x, y", [([2.0], 0.01), ([0.5, -1.2, 0.8], 0.05),
                                      ([0.5, -1.2, 0.8], -3.7)])
    def test_hinge_constant_bounds_the_gradient_on_real_labels(self, x, y):
        # ||(dLbar/dm, dLbar/dsigma)|| <= L at 4000 random (m, sigma): the
        # sigma-gradient scales with |y| as the m-gradient does, so labels
        # with |y| < 0.4 need that as much as labels with |y| > 1
        data = Dataset([x], [y], REGRESSION, "real")
        lip = lipschitz_constant(HINGE, data, BoxConstraints.symmetric(len(x)))
        rng = CounterRng(17, "lip-hinge-real")
        n = 4000
        m = -3.0 + 6.0 * rng.uniforms(n * len(x)).reshape(n, len(x))
        sigma = 1e-3 + 3.0 * rng.uniforms(n * len(x)).reshape(n, len(x))
        g_m, g_sigma = expected_grad_xy(HINGE, m, sigma, data.features[0], y)
        assert np.all(np.sqrt(np.sum(g_m ** 2 + g_sigma ** 2, axis=1)) <= lip)

    def test_hinge_zero_features(self):
        data = Dataset([[0.0, 0.0]], [1.0], CLASSIFICATION, "zero")
        assert lipschitz_constant(HINGE, data, BoxConstraints.symmetric(2)) == 0.0

    def test_squared_linear_random_pair_audit(self):
        # |Lbar(mu) - Lbar(mu')| <= L ||mu - mu'|| over 10^5 box pairs
        rng = CounterRng(15, "lip-audit")
        d = 2
        box = BoxConstraints.symmetric(d, m_abs=3.0, sigma_hi=1.0)
        rows = [(rng.normals(d), float(rng.normals(1)[0])) for _ in range(10)]
        data = Dataset([x for x, _ in rows], [y for _, y in rows], REGRESSION, "audit")
        lip = lipschitz_constant(SQL, data, box)
        n = 10 ** 5
        m_a = -3.0 + 6.0 * rng.uniforms(n * d).reshape(n, d)
        m_b = -3.0 + 6.0 * rng.uniforms(n * d).reshape(n, d)
        s_a = 1e-3 + (1 - 1e-3) * rng.uniforms(n * d).reshape(n, d)
        s_b = 1e-3 + (1 - 1e-3) * rng.uniforms(n * d).reshape(n, d)
        dists = np.sqrt(np.sum((m_a - m_b) ** 2 + (s_a - s_b) ** 2, axis=1))
        for x, y in zip(data.features, data.targets):
            vals_a = (y - m_a @ x) ** 2 + (s_a ** 2) @ (x ** 2)
            vals_b = (y - m_b @ x) ** 2 + (s_b ** 2) @ (x ** 2)
            assert np.all(np.abs(vals_a - vals_b) <= lip * dists + 1e-9)

    def test_nn_unsupported(self):
        kind = LossKind.squared_nn(2)
        data = Dataset([[1.0]], [0.0], REGRESSION, "nn")
        with pytest.raises(UnsupportedLossError):
            lipschitz_constant(kind, data, BoxConstraints.symmetric(7))


class TestPointSeries:
    def test_matches_scalar(self):
        rng = CounterRng(16, "pls")
        feats = rng.normals(30).reshape(10, 3)
        targs = np.where(rng.uniforms(10) < 0.5, 1.0, -1.0)
        theta = rng.normals(3)
        for kind in (HINGE, SQL):
            series = point_loss_series(kind, theta, feats, targs)
            scalar = [point_loss(kind, theta, DataExample(feats[i], targs[i]))
                      for i in range(10)]
            np.testing.assert_allclose(series, scalar, rtol=1e-12)

    @pytest.mark.parametrize("kind", [HINGE, SQL, LossKind.squared_nn(2)], ids=lambda k: k.kind)
    def test_expert_losses_into_out_are_the_same_bits(self, kind):
        rng = CounterRng(17, "elm-out")
        feats = rng.normals(21).reshape(7, 3)
        targs = np.where(rng.uniforms(7) < 0.5, 1.0, -1.0)
        experts = rng.normals(5 * kind.param_dim(3)).reshape(5, -1)
        out = np.full((7, 5), np.nan)
        into = expert_loss_matrix(kind, experts, feats, targs, out)
        assert into is out
        assert np.array_equal(into, expert_loss_matrix(kind, experts, feats, targs))


def _separate_subgrad(kind, theta, features, targets):
    """The comparator's per-kind mean subgradients as they were computed
    before the one-pass kernel, each with its own forward pass: the oracle
    for ``mean_loss_and_grad``."""
    t_len = features.shape[0]
    if kind.kind == "squared_linear":
        return -2.0 * features.T @ (targets - features @ theta) / t_len
    if kind.kind == "hinge":
        margins = 1.0 - targets * (features @ theta)
        active = targets * (margins > 0.0)
        return -features.T @ active / t_len
    hw, d_in = kind.hidden_width, features.shape[1]
    w1 = theta[: hw * d_in].reshape(hw, d_in)
    b1 = theta[hw * d_in: hw * d_in + hw]
    w2 = theta[hw * d_in + hw: hw * d_in + 2 * hw]
    pre = features @ w1.T + b1
    hidden = np.maximum(pre, 0.0)
    f = hidden @ w2 + theta[-1]
    dloss = -2.0 * (targets - f)
    gate = dloss[:, None] * (pre > 0.0) * w2[None, :]
    grad = np.empty_like(theta)
    grad[: hw * d_in] = (gate.T @ features).reshape(-1) / t_len
    grad[hw * d_in: hw * d_in + hw] = gate.mean(axis=0)
    grad[hw * d_in + hw: hw * d_in + 2 * hw] = (hidden * dloss[:, None]).mean(axis=0)
    grad[-1] = dloss.mean()
    return grad


class TestMeanLossAndGrad:
    @pytest.mark.parametrize("kind", [HINGE, SQL, LossKind.squared_nn(4)],
                             ids=["hinge", "squared_linear", "squared_nn"])
    def test_bitwise_equal_to_separate_passes(self, kind):
        rng = CounterRng(18, f"mlg-{kind.kind}")
        feats = rng.normals(150).reshape(50, 3)
        if kind.kind == "hinge":
            targs = np.where(rng.uniforms(50) < 0.5, 1.0, -1.0)
        else:
            targs = rng.normals(50)
        for _ in range(5):
            theta = rng.normals(kind.param_dim(3))
            value, grad = mean_loss_and_grad(kind, theta, feats, targs)
            assert value == float(np.mean(point_loss_series(kind, theta, feats, targs)))
            np.testing.assert_array_equal(grad, _separate_subgrad(kind, theta, feats, targs))
            manual = np.mean([point_grad(kind, theta, DataExample(feats[i], targs[i]))
                              for i in range(50)], axis=0)
            np.testing.assert_allclose(grad, manual, rtol=1e-12, atol=1e-12)

    def test_hinge_row_at_margin_zero_is_inactive(self):
        # row 0 sits exactly at the kink (1 - 1 * 1 = 0); row 1 has margin 1.5
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        targs = np.array([1.0, -1.0])
        theta = np.array([1.0, 0.5])
        value, grad = mean_loss_and_grad(HINGE, theta, feats, targs)
        assert value == 0.75
        np.testing.assert_array_equal(grad, [0.0, 0.5])
        np.testing.assert_array_equal(grad, _separate_subgrad(HINGE, theta, feats, targs))

    @settings(max_examples=80, deadline=None)
    @given(hw=st.integers(1, 24), d_in=st.integers(1, 5), n=st.integers(1, 300),
           dead=st.integers(0, 24), zero_rows=st.integers(0, 300),
           seed=st.integers(0, 2 ** 31))
    @example(hw=6, d_in=3, n=1, dead=2, zero_rows=0, seed=1)
    @example(hw=6, d_in=3, n=1, dead=0, zero_rows=1, seed=2)
    @example(hw=1, d_in=2, n=1, dead=0, zero_rows=0, seed=3)
    @example(hw=1, d_in=2, n=300, dead=0, zero_rows=40, seed=4)
    @example(hw=24, d_in=5, n=300, dead=24, zero_rows=300, seed=5)
    def test_network_bitwise_equal_to_separate_passes(self, hw, d_in, n, dead, zero_rows,
                                                      seed):
        """The network's mean subgradient against ``_separate_subgrad``, whose
        column sums are ``mean(axis=0)``: bit for bit at hidden_width >= 2, dead
        units (pre <= 0 on every row) and rows with dl/df = 0 included.  At
        hidden_width = 1 numpy sums the (n, 1) column pairwise and the kernel in
        row order, so there the two column entries only agree to rounding: 1e-14
        of the entry, or of the mean absolute summand where the sum cancels."""
        kind = LossKind.squared_nn(hw)
        rng = CounterRng(seed, "mlg-nn-property")
        feats = rng.normals(n * d_in).reshape(n, d_in)
        theta = rng.normals(kind.param_dim(d_in))
        dead = min(dead, hw)
        # dead units: no input weights and a bias <= 0 (the first one 0, at the kink)
        theta[: dead * d_in] = 0.0
        theta[hw * d_in: hw * d_in + dead] = -np.abs(theta[hw * d_in: hw * d_in + dead])
        theta[hw * d_in: hw * d_in + min(dead, 1)] = 0.0
        w1 = theta[: hw * d_in].reshape(hw, d_in)
        b1 = theta[hw * d_in: hw * d_in + hw]
        w2 = theta[hw * d_in + hw: hw * d_in + 2 * hw]
        pre = feats @ w1.T + b1
        assert np.all(pre[:, :dead] <= 0.0)
        hidden = np.maximum(pre, 0.0)
        f = hidden @ w2 + theta[-1]
        targs = rng.normals(n)
        zero_rows = min(zero_rows, n)
        targs[:zero_rows] = f[:zero_rows]       # y = f: dl/df = 0 on these rows
        assert np.all(point_loss_series(kind, theta, feats, targs)[:zero_rows] == 0.0)

        value, grad = mean_loss_and_grad(kind, theta, feats, targs)
        assert value == float(np.mean(point_loss_series(kind, theta, feats, targs)))
        oracle = _separate_subgrad(kind, theta, feats, targs)
        if hw >= 2:
            assert np.array_equal(grad.view(np.int64), oracle.view(np.int64))
            return
        dloss = -2.0 * (targs - f)
        gate = dloss[:, None] * (pre > 0.0) * w2
        summand = max(np.mean(np.abs(gate)), np.mean(np.abs(hidden[:, 0] * dloss)))
        np.testing.assert_allclose(grad, oracle, rtol=1e-14, atol=1e-14 * summand)
