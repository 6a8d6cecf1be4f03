"""Update rules: the array kernels against numeric argmin oracles, the NGVI
recursion against its unrolled sum, the grid against its log-space
recursion, and the online loop contracts."""

import numpy as np
import pytest
from conftest import golden_section
from scipy.special import logsumexp

from onlinevi.errors import DomainError, InvalidPrecisionError
from onlinevi.family import (BoxConstraints, GaussianPrior, MeanFieldGaussian,
                             natural_to_standard)
from onlinevi.learners import (
    EwaGridConfig,
    FixedEta,
    InvSigmaSqrtT,
    NgviConfig,
    OgaConfig,
    OgaElConfig,
    SvaConfig,
    SvbConfig,
    Thm3ConvexSchedule,
    diagonal_lattice,
    expectation_grad,
    ngvi_step,
    oga_step,
    ogael_step,
    product_lattice,
    run_online,
    sva_step,
    svb_step,
)
from onlinevi.losses import (DataExample, LossKind, expected_grad_xy, expected_loss,
                             mc_grad_xy, point_grad_xy, point_loss_xy)
from onlinevi.data import (CLASSIFICATION, REGRESSION, Dataset, gen_iid_regression,
                           gen_toy_classification)
from onlinevi.rng import CounterRng, derive_seed

PRIOR1 = GaussianPrior(1.0, 1)
BOX1 = BoxConstraints.symmetric(1)
SQL = LossKind.squared_linear()


def _vec(*values):
    return np.array(values, dtype=float)


def _stream(features, targets):
    return Dataset(np.array(features, dtype=float), np.array(targets, dtype=float),
                   REGRESSION, "stream")


class TestPredict:
    """The decision at step 1 and after one update, read from run_online."""

    def test_ewa_uniform_average(self):
        cfg = EwaGridConfig(eta=1.0, experts=[[0.0], [2.0]])
        trace = run_online(cfg, _stream([[1.0]], [0.5]), SQL)
        np.testing.assert_allclose(trace.predictions[0], [1.0])

    def test_sva_prior_mean(self):
        cfg = SvaConfig(eta=0.1, prior=GaussianPrior(1.0, 3))
        trace = run_online(cfg, _stream([[1.0, 2.0, 3.0]], [0.5]), SQL)
        np.testing.assert_array_equal(trace.predictions[0], [0.0, 0.0, 0.0])

    def test_oga_verbatim(self):
        # from theta = 0 the squared-loss gradient is -2 y x, so eta = 1/2
        # and y = 1 move theta to x exactly; the next decision is that theta
        cfg = OgaConfig(eta=0.5, box=BoxConstraints.symmetric(2))
        trace = run_online(cfg, _stream([[1.5, -2.0], [0.0, 1.0]], [1.0, 0.0]), SQL)
        np.testing.assert_array_equal(trace.predictions[1], [1.5, -2.0])


class TestSvaUpdate:
    CFG = SvaConfig(eta=0.1, prior=PRIOR1)

    def test_zero_gradient_fixed_point(self):
        m, sigma, _ = sva_step(_vec(0.0), _vec(0.0), _vec(0.0), _vec(0.0), self.CFG)
        assert m[0] == 0.0 and sigma[0] == 1.0

    def test_mean_step_arithmetic(self):
        m, _, _ = sva_step(_vec(0.5), _vec(0.0), _vec(2.0), _vec(0.0), self.CFG)
        assert m[0] == pytest.approx(0.3, abs=1e-15)

    def test_sigma_step_value(self):
        _, sigma, _ = sva_step(_vec(0.0), _vec(0.0), _vec(0.0), _vec(1.5), self.CFG)
        assert sigma[0] == pytest.approx(0.9278085, abs=1e-7)

    def test_update_minimizes_ftrl_objective(self):
        # the closed form solves:  sum_i mu^T grad_i + KL(q_mu, prior)/eta
        rng = CounterRng(20, "sva-argmin")
        for _ in range(30):
            eta = 0.05 + 0.95 * rng.uniforms(1)[0]
            s = 0.5 + 1.5 * rng.uniforms(1)[0]
            m_t = float(rng.normals(1)[0])
            g_m = float(rng.normals(1)[0])
            g_acc = float(rng.normals(1)[0])      # sum of past g_sigma
            g_sig = float(rng.normals(1)[0])
            cfg = SvaConfig(eta=eta, prior=GaussianPrior(s, 1))
            m, sigma, _ = sva_step(_vec(m_t), _vec(g_acc), _vec(g_m), _vec(g_sig), cfg)
            grad_sum_m = -m_t / (eta * s * s) + g_m   # past m-gradients + current
            m_obj = lambda m: m * grad_sum_m + m * m / (2.0 * eta * s * s)
            acc = g_acc + g_sig
            s_obj = lambda sig: sig * acc + (sig ** 2 / (2 * s * s) - np.log(sig)) / eta
            assert abs(m[0] - golden_section(m_obj, -100.0, 100.0)) <= 1e-4
            assert abs(sigma[0] - golden_section(s_obj, 1e-8, 100.0)) <= 1e-4


class TestSvbUpdate:
    CFG = SvbConfig(schedule=FixedEta(0.1), prior=PRIOR1)

    def test_mean_step_arithmetic(self):
        m, _ = svb_step(_vec(0.0), _vec(2.0), _vec(1.0), _vec(0.0), 1, self.CFG)
        assert m[0] == pytest.approx(-0.4, abs=1e-15)

    def test_sigma_step_value(self):
        _, sigma = svb_step(_vec(0.0), _vec(2.0), _vec(0.0), _vec(1.0), 1, self.CFG)
        assert sigma[0] == pytest.approx(1.8099752, abs=1e-7)

    def test_update_minimizes_kl_to_previous_objective(self):
        # the closed form solves:  mu^T grad_t + KL(q_mu, q_t)/eta
        rng = CounterRng(21, "svb-argmin")
        for _ in range(30):
            eta = 0.05 + 0.95 * rng.uniforms(1)[0]
            m_t = float(rng.normals(1)[0])
            sig_t = 0.3 + 1.7 * rng.uniforms(1)[0]
            g_m = float(rng.normals(1)[0])
            g_sig = float(rng.normals(1)[0])
            cfg = SvbConfig(schedule=FixedEta(eta), prior=PRIOR1)
            m, sigma = svb_step(_vec(m_t), _vec(sig_t), _vec(g_m), _vec(g_sig), 1, cfg)
            m_obj = lambda m: m * g_m + (m - m_t) ** 2 / (2 * eta * sig_t ** 2)
            s_obj = lambda sig: sig * g_sig + (sig ** 2 / (2 * sig_t ** 2)
                                               - np.log(sig)) / eta
            assert abs(m[0] - golden_section(m_obj, -100.0, 100.0)) <= 1e-4
            assert abs(sigma[0] - golden_section(s_obj, 1e-8, 100.0)) <= 1e-4

    def test_thm3_mean_step_sigma_free(self):
        # eta_{t,j} sigma^2 = D sqrt(2)/(L sqrt(t)): the m-step ignores sigma
        cfg = SvbConfig(schedule=Thm3ConvexSchedule(D=10.0, L=4.0), prior=PRIOR1)
        rng = CounterRng(22, "thm3")
        expected = -10.0 * np.sqrt(2.0) / 4.0
        for _ in range(10):
            sigma0 = 0.05 + 1.95 * rng.uniforms(1)[0]
            m, _ = svb_step(_vec(0.0), _vec(sigma0), _vec(1.0), _vec(0.0), 1, cfg)
            assert m[0] == pytest.approx(expected, rel=1e-12)

    def test_projection_applied(self):
        cfg = SvbConfig(schedule=FixedEta(10.0), prior=PRIOR1, box=BOX1)
        m, sigma = svb_step(_vec(0.0), _vec(2.0), _vec(1.0), _vec(0.0), 1, cfg)
        assert m[0] == -20.0
        assert sigma[0] == 1.0  # sigma clamped into [floor, 1]


class TestGradToExpectationCoords:
    def test_zero_maps_to_zero(self):
        g1, g2 = expectation_grad(_vec(0.0, 0.0), _vec(0.0, 0.0), _vec(1.0, -1.0),
                                  _vec(0.5, 0.5))
        np.testing.assert_array_equal(g1, [0.0, 0.0])
        np.testing.assert_array_equal(g2, [0.0, 0.0])

    def test_zero_mean_passthrough(self):
        g1, _ = expectation_grad(_vec(1.3), _vec(0.4), _vec(0.0), _vec(0.8))
        np.testing.assert_allclose(g1, [1.3])

    def test_finite_difference_in_expectation_coords(self):
        rng = CounterRng(23, "exp-fd")
        for _ in range(30):
            d = 1 + int(rng.integers(1, 3)[0])
            m, sigma = rng.normals(d), 0.5 + rng.uniforms(d)
            x, y = rng.normals(d), float(rng.normals(1)[0])
            g1, g2 = expectation_grad(*expected_grad_xy(SQL, m, sigma, x, y), m, sigma)
            mu1, mu2 = m.copy(), m ** 2 + sigma ** 2
            ex = DataExample(x, y)
            h = 1e-5

            def loss_at(u1, u2):
                return expected_loss(SQL, MeanFieldGaussian(u1, np.sqrt(u2 - u1 ** 2)), ex)

            fd1, fd2 = np.zeros(d), np.zeros(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd1[j] = (loss_at(mu1 + e, mu2) - loss_at(mu1 - e, mu2)) / (2 * h)
                fd2[j] = (loss_at(mu1, mu2 + e) - loss_at(mu1, mu2 - e)) / (2 * h)
            analytic = np.concatenate([g1, g2])
            oracle = np.concatenate([fd1, fd2])
            denom = max(np.linalg.norm(oracle), 1e-8)
            assert np.linalg.norm(analytic - oracle) / denom <= 1e-5


class TestNgviUpdate:
    CFG = NgviConfig(eta=1.0, alpha=1.0, prior=GaussianPrior(1.0, 1))
    PRIOR_LAM = CFG.prior.natural()
    LAM0 = (PRIOR_LAM.lambda1, PRIOR_LAM.lambda2)

    def _step(self, lam, g_mu1, g_mu2, step=1, cfg=CFG):
        return ngvi_step(lam, g_mu1, g_mu2, cfg.prior.natural(), step, cfg)

    def test_prior_fixed_point(self):
        l1, l2, _ = self._step(self.LAM0, np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(l1, [0.0])
        np.testing.assert_allclose(l2, [-0.5])

    def test_recursion_equals_unrolled_sum(self):
        # lambda_{t+1} = lambda_1 - eta sum_i beta (1-beta)^{t-i} grad_i
        cfg = NgviConfig(eta=0.7, alpha=0.4, prior=GaussianPrior(1.2, 2))
        beta = 1.0 / (1.0 / cfg.alpha + 1.0 / cfg.eta)
        rng = CounterRng(24, "ngvi-unroll")
        prior = cfg.prior.natural()
        lam = (prior.lambda1, prior.lambda2)
        grads = []
        for t in range(1, 51):
            g = (0.3 * rng.normals(2), -0.2 * rng.uniforms(2))
            grads.append(g)
            lam = self._step(lam, *g, step=t, cfg=cfg)[:2]
            lam1 = prior.lambda1.copy()
            lam2 = prior.lambda2.copy()
            for i, (g1, g2) in enumerate(grads, start=1):
                w = beta * (1.0 - beta) ** (t - i)
                lam1 = lam1 - cfg.eta * w * g1
                lam2 = lam2 - cfg.eta * w * g2
            np.testing.assert_allclose(lam[0], lam1, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(lam[1], lam2, rtol=1e-10, atol=1e-12)

    def test_beta_half_at_unit_steps(self):
        # 1/beta = 1/alpha + 1/eta = 2 at alpha = eta = 1: from a non-prior
        # state with zero gradient the update is the midpoint toward the prior
        l1, l2, _ = self._step((_vec(2.0), _vec(-1.0)), np.zeros(1), np.zeros(1))
        np.testing.assert_allclose(l1, [1.0])       # 0.5*2 + 0.5*0
        np.testing.assert_allclose(l2, [-0.75])     # 0.5*(-1) + 0.5*(-0.5)

    def test_retry_halves_eta_then_succeeds(self):
        # lambda2' = -0.5 - 0.5 g_mu2 at eta=alpha=1, so g_mu2 = -1.2 crosses
        # zero on the first try and is absorbed by one eta halving
        _, l2, _ = self._step(self.LAM0, np.zeros(1), _vec(-1.2))
        assert np.all(l2 < 0.0)

    def test_step_counts_one_halving(self):
        l1, l2, halvings = self._step(self.LAM0, np.zeros(1), _vec(-1.2))
        assert halvings == 1
        # eta = 1/2 gives beta = 1/3: lambda2' = -0.5 + (1/6) 1.2
        np.testing.assert_allclose(l2, [-0.3], rtol=1e-12)
        assert self._step(self.LAM0, np.zeros(1), np.zeros(1))[2] == 0

    def test_abort_with_step_index(self):
        lam = self._step(self.LAM0, np.zeros(1), np.zeros(1))[:2]
        with pytest.raises(InvalidPrecisionError) as err:
            self._step(lam, np.zeros(1), _vec(-1e12), step=2)
        assert err.value.step == 2


class TestOgaUpdate:
    CFG = OgaConfig(eta=0.5, box=BOX1)

    def test_zero_gradient(self):
        assert oga_step(_vec(1.0), np.zeros(1), self.CFG)[0] == 1.0

    def test_step_arithmetic(self):
        assert oga_step(_vec(1.0), _vec(1.0), self.CFG)[0] == 0.5

    def test_clamped_to_box_face(self):
        cfg = OgaConfig(eta=10.0, box=BOX1)
        assert oga_step(_vec(0.0), _vec(-100.0), cfg)[0] == 20.0


class TestOgaElUpdate:
    CFG = OgaElConfig(eta=0.1, prior=PRIOR1, box=BOX1)

    def test_zero_gradient(self):
        m, sigma = ogael_step(_vec(0.0), _vec(1.0), _vec(0.0), _vec(0.0), self.CFG)
        assert m[0] == 0.0 and sigma[0] == 1.0

    def test_step_arithmetic(self):
        m, sigma = ogael_step(_vec(0.0), _vec(1.0), _vec(1.0), _vec(0.5), self.CFG)
        assert m[0] == pytest.approx(-0.1)
        assert sigma[0] == pytest.approx(0.95)

    def test_sigma_floored(self):
        _, sigma = ogael_step(_vec(0.0), _vec(0.1), _vec(0.0), _vec(100.0), self.CFG)
        assert sigma[0] == 1e-8


def _grid_oracle(cfg, ds, kind):
    """Multiplicative weights as the log-space recursion
    log w <- log w - eta l_t, renormalized by logsumexp after every step,
    with each expert's loss computed on its own; the (T, d) predictions."""
    experts = cfg.experts
    log_w = np.full(experts.shape[0], -np.log(experts.shape[0]))
    predictions = []
    for x, y in zip(ds.features, ds.targets.tolist()):
        predictions.append(np.exp(log_w) @ experts)
        losses = np.array([point_loss_xy(kind, expert, x, y) for expert in experts])
        log_w = log_w - cfg.eta * losses
        log_w = log_w - logsumexp(log_w)
    return np.array(predictions)


class TestEwaGridUpdate:
    """The vectorized grid pass of run_online."""

    def test_eta_zero_keeps_weights(self):
        cfg = EwaGridConfig(eta=0.0, experts=[[0.0], [1.0]])
        trace = run_online(cfg, _stream([[1.0]] * 4, [5.0, 0.1, -3.0, 2.0]), SQL)
        np.testing.assert_allclose(trace.predictions, 0.5)

    def test_equal_losses_stay_equal(self):
        # experts -1 and 1 lose (0 - theta)^2 = 1 each on every row
        cfg = EwaGridConfig(eta=2.0, experts=[[-1.0], [1.0]])
        trace = run_online(cfg, _stream([[1.0]] * 4, [0.0] * 4), SQL)
        np.testing.assert_array_equal(trace.predictions, 0.0)

    def test_two_expert_odds(self):
        # losses (0, 1) at eta = log 3 leave odds 3 : 1 for the expert at 0
        cfg = EwaGridConfig(eta=np.log(3.0), experts=[[0.0], [1.0]])
        trace = run_online(cfg, _stream([[1.0]] * 2, [0.0] * 2), SQL)
        np.testing.assert_allclose(trace.predictions[1], [0.25], rtol=1e-12)

    def test_log_weights_normalized(self):
        # a constant second coordinate makes the prediction's second
        # coordinate the sum of the weights
        experts = np.column_stack([np.linspace(-20.0, 20.0, 41), np.ones(41)])
        cfg = EwaGridConfig(eta=0.3, experts=experts)
        trace = run_online(cfg, gen_toy_classification(50, seed=25), LossKind.hinge())
        assert np.max(np.abs(trace.predictions[:, 1] - 1.0)) <= 1e-10

    def test_stable_under_huge_losses(self):
        # y = 2x with x^2 = 1e5: experts 0, 1, 2 lose 4e5, 1e5 and 0 per row
        c = np.sqrt(1e5)
        cfg = EwaGridConfig(eta=1.0, experts=[[0.0], [1.0], [2.0]])
        trace = run_online(cfg, _stream([[c]] * 10, [2.0 * c] * 10), SQL)
        assert np.all(np.isfinite(trace.predictions))
        np.testing.assert_allclose(trace.predictions[0], [1.0])
        np.testing.assert_allclose(trace.predictions[1:], 2.0)

    def test_rejects_nan(self):
        # inf - inf: the expert's score, and so its loss, is NaN
        cfg = EwaGridConfig(eta=1.0, experts=[[np.inf, -np.inf]])
        with pytest.raises(DomainError, match="finite"), np.errstate(invalid="ignore"):
            run_online(cfg, _stream([[1.0, 1.0]], [0.0]), SQL)

    def test_prediction_in_convex_hull(self):
        experts = product_lattice(-2.0, 2.0, 3, 2)
        cfg = EwaGridConfig(eta=0.5, experts=experts)
        trace = run_online(cfg, gen_toy_classification(20, seed=26), LossKind.hinge())
        assert np.all(trace.predictions >= experts.min(axis=0) - 1e-12)
        assert np.all(trace.predictions <= experts.max(axis=0) + 1e-12)


def _reference_run(config, ds, kind, mc_samples=32, seed=0):
    """An explicit loop over the rows of ``ds.features`` / ``ds.targets``
    that calls the update kernels directly, without run_online's learner
    classes; returns (predictions, losses)."""
    d = kind.param_dim(ds.d)
    m = np.zeros(d)
    if not isinstance(config, OgaConfig):
        sigma, accum = np.full(d, float(config.prior.s)), np.zeros(d)
    if isinstance(config, NgviConfig):
        lam_prior = config.prior.natural()
        lam = (lam_prior.lambda1, lam_prior.lambda2)
    predictions, losses = [], []
    for step, (x, y) in enumerate(zip(ds.features, ds.targets.tolist()), start=1):
        predictions.append(m)
        losses.append(point_loss_xy(kind, m, x, y))
        if isinstance(config, OgaConfig):
            m = oga_step(m, point_grad_xy(kind, m, x, y), config)
            continue
        if kind.kind == "squared_nn":
            _, g_m, g_sigma = mc_grad_xy(kind, m, sigma, x, y, mc_samples,
                                         derive_seed(seed, step))
        else:
            g_m, g_sigma = expected_grad_xy(kind, m, sigma, x, y)
        if isinstance(config, SvaConfig):
            m, sigma, accum = sva_step(m, accum, g_m, g_sigma, config)
        elif isinstance(config, SvbConfig):
            m, sigma = svb_step(m, sigma, g_m, g_sigma, step, config)
        elif isinstance(config, NgviConfig):
            lam = ngvi_step(lam, *expectation_grad(g_m, g_sigma, m, sigma), lam_prior, step,
                            config)[:2]
            m, sigma = natural_to_standard(*lam)
        else:
            m, sigma = ogael_step(m, sigma, g_m, g_sigma, config)
    return np.array(predictions), np.array(losses)


def _learner_configs(d, t_len, box):
    prior = GaussianPrior(1.0, d)
    eta = 1.0 / np.sqrt(t_len)
    return {
        "sva": SvaConfig(eta=eta, prior=prior, box=box),
        "sva_unprojected": SvaConfig(eta=eta, prior=prior, box=box, project=False),
        "svb": SvbConfig(schedule=InvSigmaSqrtT(), prior=prior, box=box),
        "svb_thm3": SvbConfig(schedule=Thm3ConvexSchedule(D=box.diameter(), L=4.0),
                              prior=prior, box=box),
        "ngvi": NgviConfig(eta=1.0, alpha=0.02, prior=prior, box=box),
        "oga": OgaConfig(eta=eta, box=box),
        "ogael": OgaElConfig(eta=eta, prior=prior, box=box),
    }


class TestReferenceLoop:
    """run_online against an explicit kernel loop: identical arithmetic, so
    identical floats."""

    NN = LossKind.squared_nn(3)
    STREAMS = {
        "hinge": (LossKind.hinge(), gen_toy_classification(300, seed=8)),
        "squared_linear": (SQL,
                           gen_iid_regression(200, np.array([1.0, -2.0, 0.5]), 0.5, seed=8)),
        "squared_nn": (NN, gen_iid_regression(60, np.array([1.0, -1.0]), 0.3, seed=8)),
    }

    @pytest.mark.parametrize("stream", list(STREAMS))
    def test_losses_and_predictions_identical(self, stream):
        kind, ds = self.STREAMS[stream]
        d = kind.param_dim(ds.d)
        box = BoxConstraints.symmetric(d, m_abs=5.0 if kind is self.NN else 20.0)
        for name, cfg in _learner_configs(d, ds.T, box).items():
            trace = run_online(cfg, ds, kind, mc_samples=8, seed=3)
            predictions, losses = _reference_run(cfg, ds, kind, mc_samples=8, seed=3)
            np.testing.assert_array_equal(trace.losses, losses, err_msg=name)
            np.testing.assert_array_equal(trace.predictions, predictions, err_msg=name)

    def test_ngvi_halving_path_identical(self):
        # on this Monte-Carlo stream NGVI halves its step once, at step 17
        ds = gen_iid_regression(40, np.array([1.0, -1.0]), 0.3, seed=0)
        cfg = NgviConfig(eta=2.0, alpha=0.1, prior=GaussianPrior(1.0, self.NN.param_dim(2)))
        trace = run_online(cfg, ds, self.NN, mc_samples=8, seed=0)
        np.testing.assert_array_equal(np.flatnonzero(trace.halvings) + 1, [17])
        assert trace.halvings.sum() == 1
        predictions, losses = _reference_run(cfg, ds, self.NN, mc_samples=8, seed=0)
        np.testing.assert_array_equal(trace.losses, losses)
        np.testing.assert_array_equal(trace.predictions, predictions)

    @pytest.mark.parametrize("stream", list(STREAMS))
    def test_vectorized_grid_matches_recursion(self, stream):
        kind, ds = self.STREAMS[stream]
        d = kind.param_dim(ds.d)
        for experts in (diagonal_lattice(-5.0, 5.0, 11, d), product_lattice(-2.0, 2.0, 2, d)):
            if experts.shape[0] > 64:
                continue
            cfg = EwaGridConfig(eta=0.05, experts=experts)
            trace = run_online(cfg, ds, kind)
            predictions = _grid_oracle(cfg, ds, kind)
            losses = [point_loss_xy(kind, p, x, y)
                      for p, x, y in zip(predictions, ds.features, ds.targets.tolist())]
            np.testing.assert_allclose(trace.predictions, predictions, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(trace.losses, losses, rtol=1e-12, atol=1e-12)


class TestRunOnline:
    KIND = LossKind.hinge()
    BOX2 = BoxConstraints.symmetric(2)
    PRIOR2 = GaussianPrior(1.0, 2)

    def _configs(self, t_len):
        eta = 1.0 / np.sqrt(t_len)
        return {
            "sva": SvaConfig(eta=eta, prior=self.PRIOR2, box=self.BOX2),
            "svb": SvbConfig(schedule=InvSigmaSqrtT(), prior=self.PRIOR2, box=self.BOX2),
            "ngvi": NgviConfig(eta=1.0, alpha=0.02, prior=self.PRIOR2, box=self.BOX2),
            "oga": OgaConfig(eta=eta, box=self.BOX2),
            "ogael": OgaElConfig(eta=eta, prior=self.PRIOR2, box=self.BOX2),
            "ewagrid": EwaGridConfig(eta=0.1, experts=diagonal_lattice(-20, 20, 11, 2)),
        }

    def test_non_finite_gradient_is_domain_error(self):
        # sigma * x^2 / s_z is inf / inf: the hinge sigma-gradient is NaN
        ds = Dataset([[1e200, 0.0], [1.0, 1.0]], [1.0, -1.0], CLASSIFICATION, "huge")
        for name in ("sva", "svb", "ngvi", "ogael"):
            with pytest.raises(DomainError, match="step 1"), \
                    np.errstate(over="ignore", invalid="ignore"):
                run_online(self._configs(2)[name], ds, self.KIND)

    def test_satisfied_margins_freeze_state(self):
        # all margins > 1: hinge gradients vanish and the state never moves
        ds = Dataset(np.tile([5.0, 0.0], (20, 1)), np.ones(20), CLASSIFICATION, "margins")
        # with the prior start the margin distribution of the variational
        # learners still has mass at the kink, so use OGA (point gradients)
        # for the exact freeze
        oga = OgaConfig(eta=0.5, box=self.BOX2)
        trace = run_online(oga, ds, self.KIND)
        # after the first step theta moves to the margin-satisfied region of
        # this stream and stays put: every later decision is the same
        np.testing.assert_array_equal(trace.predictions[2:],
                                      np.tile(trace.predictions[1], (18, 1)))
        assert np.all(trace.losses[1:] == 0.0)

    def test_bit_identical_reruns(self):
        ds = gen_toy_classification(200, seed=3)
        for name, cfg in self._configs(200).items():
            a = run_online(cfg, ds, self.KIND, seed=11)
            b = run_online(cfg, ds, self.KIND, seed=11)
            np.testing.assert_array_equal(a.losses, b.losses, err_msg=name)
            np.testing.assert_array_equal(a.predictions, b.predictions, err_msg=name)

    def test_box_and_positivity_invariants(self):
        # after every update: sigma > 0, and (m, sigma) inside the box for
        # the projected algorithms (the decision at step t+1 is the mean
        # after update t)
        ds = gen_toy_classification(300, seed=4)
        for name, cfg in self._configs(300).items():
            if name == "ngvi":   # NGVI is unprojected by design
                continue
            trace = run_online(cfg, ds, self.KIND, seed=5)
            assert np.all(np.abs(trace.predictions) <= 20.0), name
            if trace.in_box is not None:
                assert np.all(trace.in_box), name
            if trace.sigmas is not None:
                assert np.all(trace.sigmas > 0.0), name
                assert np.all(trace.sigmas <= self.BOX2.sigma_hi), name

    def test_ngvi_sigma_positive_and_violations_tracked(self):
        ds = gen_toy_classification(300, seed=4)
        cfg = self._configs(300)["ngvi"]
        trace = run_online(cfg, ds, self.KIND, seed=5)
        assert trace.in_box is not None
        assert np.all(trace.sigmas > 0.0)
        means = np.vstack([trace.predictions[1:], [np.nan, np.nan]])
        inside = np.all((np.abs(means) <= 20.0) & (trace.sigmas <= 1.0), axis=1)
        np.testing.assert_array_equal(trace.in_box[:-1], inside[:-1])

    def test_sva_sigma_monotone_under_hinge(self):
        # hinge has g_sigma >= 0, so h(...) <= 1 and sigma never grows
        ds = gen_toy_classification(300, seed=6)
        cfg = SvaConfig(eta=0.05, prior=self.PRIOR2, box=self.BOX2)
        trace = run_online(cfg, ds, self.KIND)
        assert np.all(np.diff(trace.sigmas, axis=0) <= 1e-15)

    def test_svb_thm3_mean_path_invariant_to_sigma_init(self):
        # squared-linear g_m does not involve sigma, and under the Theorem 3
        # schedule eta_{t,j} sigma^2 cancels, so the whole mean path is
        # independent of the sigma initialization
        ds = gen_toy_classification(100, seed=7)
        cfg = SvbConfig(schedule=Thm3ConvexSchedule(D=5.0, L=3.0), prior=self.PRIOR2,
                        box=self.BOX2)
        rng = CounterRng(27, "thm3-init")
        paths = []
        for _ in range(3):
            m, sigma = np.zeros(2), 0.2 + 0.8 * rng.uniforms(2)
            means = []
            for t, (x, y) in enumerate(zip(ds.features, ds.targets.tolist()), start=1):
                g_m, g_sigma = expected_grad_xy(SQL, m, sigma, x, y)
                m, sigma = svb_step(m, sigma, g_m, g_sigma, t, cfg)
                means.append(m)
            paths.append(np.stack(means))
        np.testing.assert_allclose(paths[0], paths[1], atol=1e-10)
        np.testing.assert_allclose(paths[0], paths[2], atol=1e-10)
