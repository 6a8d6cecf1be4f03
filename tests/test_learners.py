"""Update rules: closed forms against numeric argmin oracles, the NGVI
recursion against its unrolled sum, and the online loop contracts."""

import numpy as np
import pytest
from conftest import golden_section

from onlinevi.errors import DomainError, InvalidPrecisionError
from onlinevi.family import (BoxConstraints, GaussianPrior, MeanFieldGaussian,
                             NaturalParams)
from onlinevi.learners import (
    EwaGrid,
    EwaGridConfig,
    FixedEta,
    InvSigmaSqrtT,
    LearnerState,
    NgviConfig,
    OgaConfig,
    OgaElConfig,
    SvaConfig,
    SvbConfig,
    Thm3ConvexSchedule,
    diagonal_lattice,
    ewa_grid_update,
    grad_to_expectation_coords,
    init_state,
    ngvi_step,
    ngvi_update,
    oga_update,
    ogael_update,
    predict,
    product_lattice,
    run_online,
    sva_update,
    svb_update,
)
from onlinevi.losses import (DataExample, ExpectedLossGradient, LossKind, expected_loss,
                             expected_loss_grad, mc_expected_loss_and_grad, point_grad,
                             point_loss, point_loss_many)
from onlinevi.data import (CLASSIFICATION, Dataset, gen_iid_regression,
                           gen_toy_classification)
from onlinevi.rng import CounterRng, derive_seed

PRIOR1 = GaussianPrior(1.0, 1)
BOX1 = BoxConstraints.symmetric(1)


class TestPredict:
    def test_ewa_uniform_average(self):
        grid = EwaGrid.uniform(np.array([[0.0], [2.0]]), eta=1.0)
        state = LearnerState(t=0, grid=grid)
        np.testing.assert_allclose(predict(state), [1.0])

    def test_sva_prior_mean(self):
        state = init_state(SvaConfig(eta=0.1, prior=GaussianPrior(1.0, 3)))
        np.testing.assert_array_equal(predict(state), [0.0, 0.0, 0.0])

    def test_oga_verbatim(self):
        state = LearnerState(t=0, theta=np.array([1.5, -2.0]))
        np.testing.assert_array_equal(predict(state), [1.5, -2.0])


class TestSvaUpdate:
    def test_zero_gradient_fixed_point(self):
        cfg = SvaConfig(eta=0.1, prior=PRIOR1)
        state = init_state(cfg)
        zero = ExpectedLossGradient([0.0], [0.0])
        new = sva_update(state, zero, cfg)
        assert new.q.m[0] == 0.0 and new.q.sigma[0] == 1.0
        assert new.t == 1

    def test_mean_step_arithmetic(self):
        cfg = SvaConfig(eta=0.1, prior=PRIOR1)
        state = LearnerState(t=0, q=MeanFieldGaussian([0.5], [1.0]),
                             accum_g_sigma=np.zeros(1))
        new = sva_update(state, ExpectedLossGradient([2.0], [0.0]), cfg)
        assert new.q.m[0] == pytest.approx(0.3, abs=1e-15)

    def test_sigma_step_value(self):
        cfg = SvaConfig(eta=0.1, prior=PRIOR1)
        state = LearnerState(t=0, q=MeanFieldGaussian([0.0], [1.0]),
                             accum_g_sigma=np.zeros(1))
        new = sva_update(state, ExpectedLossGradient([0.0], [1.5]), cfg)
        assert new.q.sigma[0] == pytest.approx(0.9278085, abs=1e-7)

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
            state = LearnerState(t=3, q=MeanFieldGaussian([m_t], [0.5]),
                                 accum_g_sigma=np.array([g_acc]))
            new = sva_update(state, ExpectedLossGradient([g_m], [g_sig]), cfg)
            grad_sum_m = -m_t / (eta * s * s) + g_m   # past m-gradients + current
            m_obj = lambda m: m * grad_sum_m + m * m / (2.0 * eta * s * s)
            acc = g_acc + g_sig
            s_obj = lambda sig: sig * acc + (sig ** 2 / (2 * s * s) - np.log(sig)) / eta
            assert abs(new.q.m[0] - golden_section(m_obj, -100.0, 100.0)) <= 1e-4
            assert abs(new.q.sigma[0] - golden_section(s_obj, 1e-8, 100.0)) <= 1e-4


class TestSvbUpdate:
    def test_mean_step_arithmetic(self):
        cfg = SvbConfig(schedule=FixedEta(0.1), prior=PRIOR1)
        state = LearnerState(t=0, q=MeanFieldGaussian([0.0], [2.0]))
        new = svb_update(state, ExpectedLossGradient([1.0], [0.0]), cfg)
        assert new.q.m[0] == pytest.approx(-0.4, abs=1e-15)

    def test_sigma_step_value(self):
        cfg = SvbConfig(schedule=FixedEta(0.1), prior=PRIOR1)
        state = LearnerState(t=0, q=MeanFieldGaussian([0.0], [2.0]))
        new = svb_update(state, ExpectedLossGradient([0.0], [1.0]), cfg)
        assert new.q.sigma[0] == pytest.approx(1.8099752, abs=1e-7)

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
            state = LearnerState(t=0, q=MeanFieldGaussian([m_t], [sig_t]))
            new = svb_update(state, ExpectedLossGradient([g_m], [g_sig]), cfg)
            m_obj = lambda m: m * g_m + (m - m_t) ** 2 / (2 * eta * sig_t ** 2)
            s_obj = lambda sig: sig * g_sig + (sig ** 2 / (2 * sig_t ** 2)
                                               - np.log(sig)) / eta
            assert abs(new.q.m[0] - golden_section(m_obj, -100.0, 100.0)) <= 1e-4
            assert abs(new.q.sigma[0] - golden_section(s_obj, 1e-8, 100.0)) <= 1e-4

    def test_thm3_mean_step_sigma_free(self):
        # eta_{t,j} sigma^2 = D sqrt(2)/(L sqrt(t)): the m-step ignores sigma
        sched = Thm3ConvexSchedule(D=10.0, L=4.0)
        rng = CounterRng(22, "thm3")
        grad = ExpectedLossGradient([1.0], [0.0])
        expected = -10.0 * np.sqrt(2.0) / 4.0
        for _ in range(10):
            sigma0 = 0.05 + 1.95 * rng.uniforms(1)[0]
            cfg = SvbConfig(schedule=sched, prior=PRIOR1)
            state = LearnerState(t=0, q=MeanFieldGaussian([0.0], [sigma0]))
            new = svb_update(state, grad, cfg)
            assert new.q.m[0] == pytest.approx(expected, rel=1e-12)

    def test_projection_applied(self):
        cfg = SvbConfig(schedule=FixedEta(10.0), prior=PRIOR1, box=BOX1)
        state = LearnerState(t=0, q=MeanFieldGaussian([0.0], [2.0]))
        new = svb_update(state, ExpectedLossGradient([1.0], [0.0]), cfg)
        assert new.q.m[0] == -20.0
        assert new.q.sigma[0] == 1.0  # sigma clamped into [floor, 1]


class TestGradToExpectationCoords:
    def test_zero_maps_to_zero(self):
        q = MeanFieldGaussian([1.0, -1.0], [0.5, 0.5])
        g1, g2 = grad_to_expectation_coords(ExpectedLossGradient([0.0, 0.0],
                                                                 [0.0, 0.0]), q)
        np.testing.assert_array_equal(g1, [0.0, 0.0])
        np.testing.assert_array_equal(g2, [0.0, 0.0])

    def test_zero_mean_passthrough(self):
        q = MeanFieldGaussian([0.0], [0.8])
        g1, _ = grad_to_expectation_coords(ExpectedLossGradient([1.3], [0.4]), q)
        np.testing.assert_allclose(g1, [1.3])

    def test_finite_difference_in_expectation_coords(self):
        kind = LossKind.squared_linear()
        rng = CounterRng(23, "exp-fd")
        for _ in range(30):
            d = 1 + int(rng.integers(1, 3)[0])
            q = MeanFieldGaussian(rng.normals(d), 0.5 + rng.uniforms(d))
            ex = DataExample(rng.normals(d), float(rng.normals(1)[0]))
            from onlinevi.losses import expected_loss_grad
            g1, g2 = grad_to_expectation_coords(expected_loss_grad(kind, q, ex), q)
            mu1, mu2 = q.m.copy(), q.m ** 2 + q.sigma ** 2
            h = 1e-5

            def loss_at(u1, u2):
                return expected_loss(kind, MeanFieldGaussian(u1, np.sqrt(u2 - u1 ** 2)), ex)

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

    def test_prior_fixed_point(self):
        state = init_state(self.CFG)
        new = ngvi_update(state, (np.zeros(1), np.zeros(1)), self.CFG)
        np.testing.assert_allclose(new.lam.lambda1, [0.0])
        np.testing.assert_allclose(new.lam.lambda2, [-0.5])

    def test_recursion_equals_unrolled_sum(self):
        # lambda_{t+1} = lambda_1 - eta sum_i beta (1-beta)^{t-i} grad_i
        cfg = NgviConfig(eta=0.7, alpha=0.4, prior=GaussianPrior(1.2, 2))
        beta = 1.0 / (1.0 / cfg.alpha + 1.0 / cfg.eta)
        rng = CounterRng(24, "ngvi-unroll")
        state = init_state(cfg)
        grads = []
        for t in range(1, 51):
            g = (0.3 * rng.normals(2), -0.2 * rng.uniforms(2))
            grads.append(g)
            state = ngvi_update(state, g, cfg)
            lam1 = cfg.prior.natural().lambda1.copy()
            lam2 = cfg.prior.natural().lambda2.copy()
            for i, (g1, g2) in enumerate(grads, start=1):
                w = beta * (1.0 - beta) ** (t - i)
                lam1 = lam1 - cfg.eta * w * g1
                lam2 = lam2 - cfg.eta * w * g2
            np.testing.assert_allclose(state.lam.lambda1, lam1, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(state.lam.lambda2, lam2, rtol=1e-10, atol=1e-12)

    def test_beta_half_at_unit_steps(self):
        # 1/beta = 1/alpha + 1/eta = 2 at alpha = eta = 1: from a non-prior
        # state with zero gradient the update is the midpoint toward the prior
        state = LearnerState(t=0, q=MeanFieldGaussian([0.0], [1.0]),
                             lam=NaturalParams([2.0], [-1.0]))
        new = ngvi_update(state, (np.zeros(1), np.zeros(1)), self.CFG)
        np.testing.assert_allclose(new.lam.lambda1, [1.0])       # 0.5*2 + 0.5*0
        np.testing.assert_allclose(new.lam.lambda2, [-0.75])     # 0.5*(-1) + 0.5*(-0.5)

    def test_retry_halves_eta_then_succeeds(self):
        # lambda2' = -0.5 - 0.5 g_mu2 at eta=alpha=1, so g_mu2 = -1.2 crosses
        # zero on the first try and is absorbed by one eta halving
        state = init_state(self.CFG)
        bad = (np.zeros(1), np.array([-1.2]))
        new = ngvi_update(state, bad, self.CFG)
        assert np.all(new.lam.lambda2 < 0.0)

    def test_step_counts_one_halving(self):
        lam_prior = self.CFG.prior.natural()
        lam = (lam_prior.lambda1, lam_prior.lambda2)
        l1, l2, halvings = ngvi_step(lam, np.zeros(1), np.array([-1.2]), lam_prior, 1,
                                     self.CFG)
        assert halvings == 1
        # eta = 1/2 gives beta = 1/3: lambda2' = -0.5 + (1/6) 1.2
        np.testing.assert_allclose(l2, [-0.3], rtol=1e-12)
        assert ngvi_step(lam, np.zeros(1), np.zeros(1), lam_prior, 1, self.CFG)[2] == 0

    def test_abort_with_step_index(self):
        state = init_state(self.CFG)
        state = ngvi_update(state, (np.zeros(1), np.zeros(1)), self.CFG)
        with pytest.raises(InvalidPrecisionError) as err:
            ngvi_update(state, (np.zeros(1), np.array([-1e12])), self.CFG)
        assert err.value.step == 2


class TestOgaUpdate:
    def test_zero_gradient(self):
        cfg = OgaConfig(eta=0.5, box=BOX1)
        state = LearnerState(t=0, theta=np.array([1.0]))
        assert oga_update(state, np.zeros(1), cfg).theta[0] == 1.0

    def test_step_arithmetic(self):
        cfg = OgaConfig(eta=0.5, box=BOX1)
        state = LearnerState(t=0, theta=np.array([1.0]))
        assert oga_update(state, np.array([1.0]), cfg).theta[0] == 0.5

    def test_clamped_to_box_face(self):
        cfg = OgaConfig(eta=10.0, box=BOX1)
        state = LearnerState(t=0, theta=np.array([0.0]))
        assert oga_update(state, np.array([-100.0]), cfg).theta[0] == 20.0


class TestOgaElUpdate:
    CFG = OgaElConfig(eta=0.1, prior=PRIOR1, box=BOX1)

    def test_zero_gradient(self):
        state = init_state(self.CFG)
        new = ogael_update(state, ExpectedLossGradient([0.0], [0.0]), self.CFG)
        assert new.q.m[0] == 0.0 and new.q.sigma[0] == 1.0

    def test_step_arithmetic(self):
        state = init_state(self.CFG)
        new = ogael_update(state, ExpectedLossGradient([1.0], [0.5]), self.CFG)
        assert new.q.m[0] == pytest.approx(-0.1)
        assert new.q.sigma[0] == pytest.approx(0.95)

    def test_sigma_floored(self):
        state = LearnerState(t=0, q=MeanFieldGaussian([0.0], [0.1]))
        new = ogael_update(state, ExpectedLossGradient([0.0], [100.0]), self.CFG)
        assert new.q.sigma[0] == 1e-8


class TestEwaGridUpdate:
    def test_eta_zero_keeps_weights(self):
        grid = EwaGrid.uniform(np.array([[0.0], [1.0]]), eta=0.0)
        new = ewa_grid_update(grid, np.array([5.0, 0.1]))
        np.testing.assert_allclose(new.weights(), [0.5, 0.5])

    def test_equal_losses_stay_equal(self):
        grid = EwaGrid.uniform(np.array([[0.0], [1.0]]), eta=2.0)
        new = ewa_grid_update(grid, np.array([3.0, 3.0]))
        np.testing.assert_allclose(new.weights(), [0.5, 0.5])

    def test_two_expert_odds(self):
        grid = EwaGrid.uniform(np.array([[0.0], [1.0]]), eta=1.0)
        new = ewa_grid_update(grid, np.array([0.0, np.log(3.0)]))
        np.testing.assert_allclose(new.weights(), [0.75, 0.25], rtol=1e-12)

    def test_log_weights_normalized(self):
        from scipy.special import logsumexp
        grid = EwaGrid.uniform(diagonal_lattice(-20, 20, 41, 2), eta=0.3)
        rng = CounterRng(25, "ewa-norm")
        for _ in range(50):
            grid = ewa_grid_update(grid, 5.0 * rng.uniforms(41))
            assert abs(logsumexp(grid.log_weights)) <= 1e-10

    def test_stable_under_huge_losses(self):
        grid = EwaGrid.uniform(np.array([[0.0], [1.0], [2.0]]), eta=1.0)
        for _ in range(10):
            grid = ewa_grid_update(grid, np.array([1e5, 2e5, 0.0]))
        assert np.all(np.isfinite(grid.log_weights))
        np.testing.assert_allclose(grid.weights().sum(), 1.0)

    def test_rejects_nan(self):
        grid = EwaGrid.uniform(np.array([[0.0]]), eta=1.0)
        with pytest.raises(DomainError):
            ewa_grid_update(grid, np.array([np.nan]))

    def test_prediction_in_convex_hull(self):
        experts = product_lattice(-2.0, 2.0, 3, 2)
        grid = EwaGrid.uniform(experts, eta=0.5)
        rng = CounterRng(26, "hull")
        for _ in range(20):
            grid = ewa_grid_update(grid, rng.uniforms(9))
            pred = grid.mean()
            assert np.all(pred >= experts.min(axis=0) - 1e-12)
            assert np.all(pred <= experts.max(axis=0) + 1e-12)


def _reference_run(config, ds, kind, mc_samples=32, seed=0):
    """The per-step object loop run_online replaced: value objects and the
    public update functions, one DataExample at a time."""
    state = init_state(config)
    predictions, losses = [], []
    for step, ex in enumerate(ds.examples(), start=1):
        theta_hat = predict(state)
        predictions.append(theta_hat)
        losses.append(point_loss(kind, theta_hat, ex))
        if isinstance(config, EwaGridConfig):
            grid_losses = point_loss_many(kind, state.grid.thetas, ex)
            state = LearnerState(t=step, grid=ewa_grid_update(state.grid, grid_losses))
            continue
        if isinstance(config, OgaConfig):
            state = oga_update(state, point_grad(kind, state.theta, ex), config)
            continue
        if kind.kind == "squared_nn":
            _, grad = mc_expected_loss_and_grad(kind, state.q, ex, mc_samples,
                                                derive_seed(seed, step))
        else:
            grad = expected_loss_grad(kind, state.q, ex)
        if isinstance(config, SvaConfig):
            state = sva_update(state, grad, config)
        elif isinstance(config, SvbConfig):
            state = svb_update(state, grad, config)
        elif isinstance(config, NgviConfig):
            state = ngvi_update(state, grad_to_expectation_coords(grad, state.q), config)
        else:
            state = ogael_update(state, grad, config)
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
    """run_online against the object loop it replaced: identical arithmetic,
    so identical floats."""

    NN = LossKind.squared_nn(3)
    STREAMS = {
        "hinge": (LossKind.hinge(), gen_toy_classification(300, seed=8)),
        "squared_linear": (LossKind.squared_linear(),
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
            predictions, losses = _reference_run(cfg, ds, kind)
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

    def test_empty_horizon(self):
        ds = gen_toy_classification(10, seed=0)
        for name, cfg in self._configs(10).items():
            trace = run_online(cfg, ds, self.KIND, horizon=0)
            assert trace.horizon == 0, name
            assert trace.predictions.shape == (0, 2), name
            if trace.sigmas is not None:
                assert trace.sigmas.shape == (0, 2), name

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
        kind = LossKind.squared_linear()
        ds = gen_toy_classification(100, seed=7)
        sched = Thm3ConvexSchedule(D=5.0, L=3.0)
        rng = CounterRng(27, "thm3-init")
        paths = []
        for _ in range(3):
            sigma0 = 0.2 + 0.8 * rng.uniforms(2)
            state = LearnerState(t=0, q=MeanFieldGaussian(np.zeros(2), sigma0))
            cfg = SvbConfig(schedule=sched, prior=self.PRIOR2, box=self.BOX2)
            means = []
            for ex in ds.examples():
                grad = expected_loss_grad(kind, state.q, ex)
                state = svb_update(state, grad, cfg)
                means.append(state.q.m.copy())
            paths.append(np.stack(means))
        np.testing.assert_allclose(paths[0], paths[1], atol=1e-10)
        np.testing.assert_allclose(paths[0], paths[2], atol=1e-10)
