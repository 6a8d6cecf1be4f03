"""Update rules: the array kernels against numeric argmin oracles, the NGVI
recursion against its unrolled sum, the grid against its log-space
recursion, and the online loop contracts."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import golden_section, ngvi_step, oga_step, ogael_step, sva_step, svb_step
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from onlinevi import learners
from onlinevi import losses as losses_mod
from onlinevi.evaluation import DecisionMean
from onlinevi.errors import DimensionMismatchError, DomainError, InvalidPrecisionError
from onlinevi.family import (BoxConstraints, GaussianPrior, MeanFieldGaussian,
                             natural_to_standard)
from onlinevi.learners import (
    Decisions,
    EwaGridConfig,
    FixedEta,
    InvSigmaSqrtT,
    NgviConfig,
    OgaConfig,
    OgaElConfig,
    SvaConfig,
    SvbConfig,
    Thm3ConvexSchedule,
    Thm3StrongSchedule,
    diagonal_lattice,
    expectation_grad,
    lockstep,
    product_lattice,
    run_online,
)
from onlinevi.losses import (DataExample, LossKind, expected_grad_xy, expected_loss,
                             expert_loss_matrix, mc_grad_eps, mc_grad_xy, point_grad_xy,
                             point_loss, point_loss_rows)
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


def assert_same_bits(actual, expected, name=""):
    """The same IEEE-754 words, shape included.  Unlike assert_array_equal,
    which takes -0.0 for 0.0, this sees a flipped sign of a zero, which the
    series CSVs would print as -0."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape, name
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64), err_msg=name)


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
        losses = np.array([point_loss(kind, expert, DataExample(x, y)) for expert in experts])
        log_w = log_w - cfg.eta * losses
        log_w = log_w - logsumexp(log_w)
    return np.array(predictions)


class TestConfigNumbers:
    """Every public config and schedule rejects a step size (or constant of
    a step size) that is not a positive finite number when it is built."""

    BUILD = {
        "FixedEta.eta": lambda v: FixedEta(eta=v),
        "Thm3ConvexSchedule.D": lambda v: Thm3ConvexSchedule(D=v, L=1.0),
        "Thm3ConvexSchedule.L": lambda v: Thm3ConvexSchedule(D=1.0, L=v),
        "Thm3StrongSchedule.H": lambda v: Thm3StrongSchedule(H=v),
        "SvaConfig.eta": lambda v: SvaConfig(eta=v, prior=PRIOR1),
        "NgviConfig.eta": lambda v: NgviConfig(eta=v, alpha=0.1, prior=PRIOR1),
        "NgviConfig.alpha": lambda v: NgviConfig(eta=1.0, alpha=v, prior=PRIOR1),
        "OgaConfig.eta": lambda v: OgaConfig(eta=v, box=BOX1),
        "OgaElConfig.eta": lambda v: OgaElConfig(eta=v, prior=PRIOR1, box=BOX1),
        # eta = 0 would keep the grid's weights uniform forever
        "EwaGridConfig.eta": lambda v: EwaGridConfig(eta=v, experts=[[0.0], [1.0]]),
    }

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0],
                             ids=["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("field", list(BUILD))
    def test_rejects_bad_number(self, field, bad):
        with pytest.raises(DomainError, match=f"{field} must be a positive finite number"):
            self.BUILD[field](bad)

    @pytest.mark.parametrize("field", list(BUILD))
    def test_accepts_a_positive_number(self, field):
        self.BUILD[field](0.5)

    @pytest.mark.parametrize("experts", [[[0.0]], [[0.0, 1.0]], [], [0.0, 1.0]])
    def test_grid_needs_two_experts(self, experts):
        with pytest.raises(DomainError, match="K >= 2"):
            EwaGridConfig(eta=1.0, experts=experts)


class TestEwaGridUpdate:
    """The vectorized grid pass of run_online."""

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
        # inf - inf: the first expert's score, and so its loss, is NaN; the
        # second expert's loss is finite
        cfg = EwaGridConfig(eta=1.0, experts=[[np.inf, -np.inf], [0.0, 0.0]])
        with pytest.raises(DomainError, match="finite"), np.errstate(invalid="ignore"):
            run_online(cfg, _stream([[1.0, 1.0]], [0.0]), SQL)

    def test_prediction_in_convex_hull(self):
        experts = product_lattice(-2.0, 2.0, 3, 2)
        cfg = EwaGridConfig(eta=0.5, experts=experts)
        trace = run_online(cfg, gen_toy_classification(20, seed=26), LossKind.hinge())
        assert np.all(trace.predictions >= experts.min(axis=0) - 1e-12)
        assert np.all(trace.predictions <= experts.max(axis=0) + 1e-12)



class TestGridTiles:
    """The grid computes its expert losses a tile of rows at a time
    (``expert_loss_blocks``) and each row of its trace from that row alone,
    so neither the tile size nor the length of the stream changes a bit."""

    STREAMS = {
        "hinge": (LossKind.hinge(), gen_toy_classification(3000, seed=40)),
        # ten features, where a BLAS product of the weights and the experts
        # gave a prefix other bits than the whole stream
        "squared_linear": (SQL, gen_iid_regression(4800, np.linspace(-1.0, 1.0, 10), 0.5,
                                                   seed=40)),
        "squared_nn": (LossKind.squared_nn(3),
                       gen_iid_regression(1500, np.array([1.0, -1.0]), 0.3, seed=40)),
    }

    @staticmethod
    def _config(kind, ds):
        experts = diagonal_lattice(-1.0, 1.0, 41, kind.param_dim(ds.d))
        return EwaGridConfig(eta=0.01, experts=experts)

    @pytest.mark.parametrize("stream", list(STREAMS))
    def test_a_prefix_is_a_stream(self, stream):
        kind, ds = self.STREAMS[stream]
        cfg = self._config(kind, ds)
        whole = run_online(cfg, ds, kind)
        for t in (2, 3, 100, 801, ds.T - 1):
            prefix = run_online(cfg, ds.head(t), kind)
            assert_same_bits(prefix.predictions, whole.predictions[:t], f"predictions, t={t}")
            assert_same_bits(prefix.losses, whole.losses[:t], f"losses, t={t}")

    @pytest.mark.parametrize("stream", list(STREAMS))
    def test_the_tile_size_changes_no_bit(self, monkeypatch, stream):
        # the blocks against one (T, K) matrix: the same losses, the same
        # largest loss B, and column totals carried across the blocks with
        # the bits of the matrix's column sums; and the same trace
        kind, ds = self.STREAMS[stream]
        cfg = self._config(kind, ds)
        matrix = expert_loss_matrix(kind, cfg.experts, ds.features, ds.targets)
        default = run_online(cfg, ds, kind)
        for values in (2 ** 6, 2 ** 10):
            monkeypatch.setattr(losses_mod, "TILE_VALUES", values)
            maxima, rows = [], 0
            for start, block, sums in learners.expert_loss_blocks(kind, cfg.experts,
                                                                  ds.features, ds.targets):
                assert start == rows and len(block) * 41 <= max(2 * 41, values + 40)
                assert_same_bits(block, matrix[start:start + len(block)])
                rows += len(block)
                maxima.append(block.max())
            assert rows == ds.T and len(maxima) > 1
            assert max(maxima) == matrix.max()
            assert_same_bits(sums[-1], matrix.sum(axis=0))
            trace = run_online(cfg, ds, kind)
            assert_same_bits(trace.predictions, default.predictions, f"{values} values")
            assert_same_bits(trace.losses, default.losses, f"{values} values")

    def test_the_grid_holds_no_loss_matrix(self):
        t_len, k = 20_000, 41
        ds = gen_toy_classification(t_len, seed=41)
        cfg = EwaGridConfig(eta=0.01, experts=diagonal_lattice(-20.0, 20.0, k, 2))
        tracemalloc.start()
        try:
            run_online(cfg, ds, LossKind.hinge())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t_len * k * 8 / 4


def _reference_run(config, ds, kind, mc_samples=32, seed=0, states=None, halvings=None):
    """An explicit loop over the rows of ``ds.features`` / ``ds.targets``
    that calls the update kernels directly, without run_online's learner
    classes; returns (predictions, losses), and appends each post-update
    (m, sigma) of a variational learner to ``states`` and each NGVI step's
    halvings to ``halvings`` when they are given."""
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
        losses.append(point_loss(kind, m, DataExample(x, y)))
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
            *lam, halved = ngvi_step(lam, *expectation_grad(g_m, g_sigma, m, sigma), lam_prior,
                                     step, config)
            m, sigma = natural_to_standard(*lam)
            if halvings is not None:
                halvings.append(halved)
        else:
            m, sigma = ogael_step(m, sigma, g_m, g_sigma, config)
        if states is not None:
            states.append((m, sigma))
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
            assert_same_bits(trace.losses, losses, name)
            assert_same_bits(trace.predictions, predictions, name)

    @pytest.mark.parametrize("t_len, mc_samples, blocks", [
        (25, 8, 1),      # one partial block of 315 steps
        (100, 64, 3),    # blocks of 39 steps: 39 + 39 + 22
        (5, 2600, 5),    # 2600 * 13 normals > 2**15: one step per block
    ], ids=["one-partial-block", "several-blocks", "one-step-blocks"])
    def test_block_draws_match_the_per_step_draws(self, t_len, mc_samples, blocks):
        ds = gen_iid_regression(t_len, np.array([1.0, -1.0]), 0.3, seed=8)
        d = self.NN.param_dim(ds.d)
        block = max(1, learners._DRAW_BLOCK_VALUES // (mc_samples * d))
        assert -(-t_len // block) == blocks
        box = BoxConstraints.symmetric(d, m_abs=5.0)
        for name, cfg in _learner_configs(d, ds.T, box).items():
            if isinstance(cfg, OgaConfig):
                continue  # no Monte-Carlo gradient
            trace = run_online(cfg, ds, self.NN, mc_samples=mc_samples, seed=3)
            predictions, losses = _reference_run(cfg, ds, self.NN, mc_samples=mc_samples,
                                                 seed=3)
            assert_same_bits(trace.predictions, predictions, name)
            assert_same_bits(trace.losses, losses, name)

    def test_ngvi_halving_path_identical(self):
        # on this Monte-Carlo stream NGVI halves its step once, at step 17
        ds = gen_iid_regression(40, np.array([1.0, -1.0]), 0.3, seed=0)
        cfg = NgviConfig(eta=2.0, alpha=0.1, prior=GaussianPrior(1.0, self.NN.param_dim(2)))
        trace = run_online(cfg, ds, self.NN, mc_samples=8, seed=0)
        np.testing.assert_array_equal(np.flatnonzero(trace.halvings) + 1, [17])
        assert trace.halvings.sum() == 1
        predictions, losses = _reference_run(cfg, ds, self.NN, mc_samples=8, seed=0)
        assert_same_bits(trace.losses, losses)
        assert_same_bits(trace.predictions, predictions)

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
            losses = [point_loss(kind, p, DataExample(x, y))
                      for p, x, y in zip(predictions, ds.features, ds.targets.tolist())]
            np.testing.assert_allclose(trace.predictions, predictions, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(trace.losses, losses, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stream", list(STREAMS))
    def test_losses_are_point_losses_at_the_decisions(self, stream):
        # bit for bit, for every learner path including the grid
        kind, ds = self.STREAMS[stream]
        d = kind.param_dim(ds.d)
        configs = _learner_configs(d, ds.T, BoxConstraints.symmetric(d))
        configs["ewagrid"] = EwaGridConfig(eta=0.05, experts=diagonal_lattice(-5.0, 5.0, 11, d))
        for name, cfg in configs.items():
            trace = run_online(cfg, ds, kind, mc_samples=8, seed=3)
            losses = [point_loss(kind, p, DataExample(x, y))
                      for p, x, y in zip(trace.predictions, ds.features, ds.targets.tolist())]
            assert_same_bits(trace.losses, losses, name)

    @pytest.mark.parametrize("stream", ["hinge", "squared_nn"])
    def test_in_box_matches_a_per_step_check(self, stream):
        # the unprojected learners, against the membership of each
        # post-update state of the reference loop, the last one included
        kind, ds = self.STREAMS[stream]
        d = kind.param_dim(ds.d)
        box = BoxConstraints.symmetric(d, m_abs=1.0, sigma_hi=0.99)
        configs = _learner_configs(d, ds.T, box)
        for name in ("ngvi", "sva_unprojected"):
            trace = run_online(configs[name], ds, kind, mc_samples=8, seed=3)
            states = []
            _reference_run(configs[name], ds, kind, mc_samples=8, seed=3, states=states)
            expected = [box.contains_arrays(m, sigma) for m, sigma in states]
            np.testing.assert_array_equal(trace.in_box, expected, err_msg=name)
            assert 0 < trace.in_box.sum() < ds.T, name


def _reference_sigmas(config, ds, kind, trace, seed=0):
    """The (T, d) post-update sigmas of the reference loop, after checking
    that its decisions and its last sigma are the trace's bit for bit."""
    states = []
    predictions, _ = _reference_run(config, ds, kind, seed=seed, states=states)
    sigmas = np.array([s for _, s in states])
    assert_same_bits(trace.predictions, predictions)
    assert_same_bits(trace.final_sigma, sigmas[-1])
    return sigmas


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
            assert_same_bits(a.losses, b.losses, name)
            assert_same_bits(a.predictions, b.predictions, name)

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
            if trace.final_sigma is not None:
                # every post-update sigma, from the reference loop, whose
                # decisions and last sigma are the trace's bit for bit
                sigmas = _reference_sigmas(cfg, ds, self.KIND, trace, seed=5)
                assert np.all(sigmas > 0.0), name
                assert np.all(sigmas <= self.BOX2.sigma_hi), name

    def test_ngvi_sigma_positive_and_violations_tracked(self):
        ds = gen_toy_classification(300, seed=4)
        cfg = self._configs(300)["ngvi"]
        trace = run_online(cfg, ds, self.KIND, seed=5)
        sigmas = _reference_sigmas(cfg, ds, self.KIND, trace, seed=5)
        assert trace.in_box is not None
        assert np.all(sigmas > 0.0)
        means = np.vstack([trace.predictions[1:], [np.nan, np.nan]])
        inside = np.all((np.abs(means) <= 20.0) & (sigmas <= 1.0), axis=1)
        np.testing.assert_array_equal(trace.in_box[:-1], inside[:-1])

    def test_sva_sigma_monotone_under_hinge(self):
        # hinge has g_sigma >= 0, so h(...) <= 1 and sigma never grows
        ds = gen_toy_classification(300, seed=6)
        cfg = SvaConfig(eta=0.05, prior=self.PRIOR2, box=self.BOX2)
        trace = run_online(cfg, ds, self.KIND)
        sigmas = _reference_sigmas(cfg, ds, self.KIND, trace)
        assert np.all(np.diff(sigmas, axis=0) <= 1e-15)

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


def _kept_lockstep(configs, ds, kind, **kwargs):
    """``lockstep``'s traces with each learner's decisions, kept by a
    ``Decisions`` reader."""
    kept = [Decisions(ds.T, kind.param_dim(ds.d)) for _ in configs]
    walks = lockstep(configs, ds, kind, readers=[[k] for k in kept], **kwargs)
    return [replace(walk, predictions=k.rows) for walk, k in zip(walks, kept)]


def _assert_walk_is_reference(cfg, walk, ds, kind, mc_samples, seed, name):
    """The trace of a learner's walk in a lockstep pass against the
    reference loop of that learner alone: the same IEEE-754 words."""
    trace = run_online(cfg, ds, kind, walk=walk)
    states, halvings = [], []
    predictions, losses = _reference_run(cfg, ds, kind, mc_samples=mc_samples, seed=seed,
                                         states=states, halvings=halvings)
    assert_same_bits(trace.predictions, predictions, name)
    assert_same_bits(trace.losses, losses, name)
    if isinstance(cfg, OgaConfig):
        assert trace.final_sigma is None, name
        assert trace.in_box.all(), name  # projected onto its box
        return
    assert_same_bits(trace.final_sigma, states[-1][1], name)
    if isinstance(cfg, NgviConfig):
        np.testing.assert_array_equal(trace.halvings, halvings, err_msg=name)
    if cfg.box is None:
        assert trace.in_box is None, name
    else:
        expected = [cfg.box.contains_arrays(m, s) for m, s in states]
        np.testing.assert_array_equal(trace.in_box, expected, err_msg=name)


def _failed_step(exc) -> int:
    """The step in a pass's error message, "step <t> (<learner>): ..."."""
    return int(str(exc).split()[1])


def _pool(d, t_len, box):
    """Every learner kind with its variants: SVA projected and not, SVB
    under all four schedules, an NGVI with a hot step that halves it on the
    network streams, learners with no box."""
    prior = GaussianPrior(1.0, d)
    eta = 1.0 / np.sqrt(t_len)
    return {
        **_learner_configs(d, t_len, box),
        "svb_fixed": SvbConfig(schedule=FixedEta(0.2), prior=prior, box=box),
        # constants that are no powers of two, so that their products round
        "svb_strong": SvbConfig(schedule=Thm3StrongSchedule(H=2.7), prior=prior, box=box),
        "svb_thm3_odd": SvbConfig(schedule=Thm3ConvexSchedule(D=3.1, L=1.3), prior=prior,
                                  box=box),
        "ngvi_hot": NgviConfig(eta=2.0, alpha=0.1, prior=prior),
        "sva_free": SvaConfig(eta=eta, prior=GaussianPrior(0.7, d)),
        "svb_free": SvbConfig(schedule=InvSigmaSqrtT(), prior=prior),
        "ogael_free": OgaElConfig(eta=eta, prior=prior),
    }


class TestLockstep:
    """Each learner of a lockstep pass, whatever its company, equals the
    reference loop of that learner alone bit for bit."""

    NN = LossKind.squared_nn(3)

    @staticmethod
    def _stream(kind, t_len, d_in, seed):
        if kind.kind == "hinge":
            ds = gen_toy_classification(t_len, seed=seed)
            return ds.head(t_len) if d_in == 2 else Dataset(
                np.resize(ds.features, (t_len, d_in)), ds.targets, CLASSIFICATION, "toy")
        return gen_iid_regression(t_len, np.linspace(-1.0, 1.0, d_in), 0.5, seed=seed)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), kind_name=st.sampled_from(["hinge", "squared_linear", "squared_nn"]),
           d_in=st.integers(1, 4), seed=st.integers(0, 2 ** 31),
           m_abs=st.sampled_from([0.3, 2.0, 20.0]))
    def test_every_learner_equals_its_reference(self, data, kind_name, d_in, seed, m_abs):
        kind = {"hinge": LossKind.hinge(), "squared_linear": SQL,
                "squared_nn": self.NN}[kind_name]
        t_len = data.draw(st.integers(1, 80 if kind is self.NN else 300), label="T")
        ds = self._stream(kind, t_len, d_in, seed)
        d = kind.param_dim(ds.d)
        pool = _pool(d, ds.T, BoxConstraints.symmetric(d, m_abs=m_abs))
        names = data.draw(st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=9),
                          label="learners")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # a learner without a box may leave the floats: the pass fails
            # at the first step at which one fails alone, naming one of those
            alone = {}
            for name in set(names):
                try:
                    run_online(pool[name], ds, kind, mc_samples=4, seed=seed)
                except (DomainError, InvalidPrecisionError) as exc:
                    alone[name] = exc
            if alone:
                with pytest.raises((DomainError, InvalidPrecisionError)) as failed:
                    lockstep([pool[n] for n in names], ds, kind, mc_samples=4, seed=seed,
                             names=names)
                step = min(_failed_step(exc) for exc in alone.values())
                named = str(failed.value).split("(")[1].split(")")[0]
                assert _failed_step(failed.value) == step
                assert _failed_step(alone[named]) == step
                assert type(failed.value) is type(alone[named])
            names = [name for name in names if name not in alone]
            walks = _kept_lockstep([pool[n] for n in names], ds, kind, mc_samples=4, seed=seed)
        for name, walk in zip(names, walks):
            _assert_walk_is_reference(pool[name], walk, ds, kind, 4, seed, name)

    def test_mixed_pass_keeps_an_ngvi_halving(self):
        # the Monte-Carlo stream of test_ngvi_halving_path_identical: NGVI
        # halves its step once, at step 17, and the others share its draws
        ds = gen_iid_regression(40, np.array([1.0, -1.0]), 0.3, seed=0)
        d = self.NN.param_dim(2)
        pool = _pool(d, ds.T, BoxConstraints.symmetric(d, m_abs=5.0))
        pool["ngvi_hot"] = NgviConfig(eta=2.0, alpha=0.1, prior=GaussianPrior(1.0, d))
        names = ["sva", "ngvi_hot", "svb", "oga", "svb_thm3", "ogael", "sva_unprojected"]
        walks = _kept_lockstep([pool[n] for n in names], ds, self.NN, mc_samples=8, seed=0)
        assert list(np.flatnonzero(walks[1].halvings) + 1) == [17]
        for name, walk in zip(names, walks):
            _assert_walk_is_reference(pool[name], walk, ds, self.NN, 8, 0, name)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), t_len=st.integers(10, 40),
           others=st.lists(st.sampled_from(["sva", "svb", "svb_thm3", "oga", "ogael", "ngvi",
                                            "sva_unprojected"]), max_size=4))
    def test_mixed_passes_keep_every_halving(self, seed, t_len, others):
        # only a Monte-Carlo g_sigma can be negative and push lambda2 up, so
        # the halvings come from the network loss; an NGVI at eta = 5 halves
        # on most streams, the one at eta = 1 beside it on few: a step that
        # halves one row recomputes every NGVI row and keeps the others' bits
        ds = gen_iid_regression(t_len, np.array([1.0, -1.0]), 0.3, seed=seed)
        d = self.NN.param_dim(2)
        pool = _pool(d, ds.T, BoxConstraints.symmetric(d, m_abs=5.0))
        pool["ngvi_hotter"] = NgviConfig(eta=5.0, alpha=0.3, prior=GaussianPrior(1.0, d))
        names = ["ngvi_hotter", *others, "ngvi_hot"]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                walks = _kept_lockstep([pool[n] for n in names], ds, self.NN, mc_samples=4,
                                       seed=seed)
        except (DomainError, InvalidPrecisionError):
            assume(False)  # a failing pass: test_every_learner_equals_its_reference's
        assume(walks[0].halvings.any())
        for name, walk in zip(names, walks):
            _assert_walk_is_reference(pool[name], walk, ds, self.NN, 4, seed, name)

    def test_schedules_share_one_svb_block(self):
        ds = gen_toy_classification(200, seed=12)
        box = BoxConstraints.symmetric(2, m_abs=1.0)
        pool = _pool(2, ds.T, box)
        names = ["svb_fixed", "svb", "svb_strong", "svb_thm3_odd", "svb_fixed", "svb"]
        walks = _kept_lockstep([pool[n] for n in names], ds, LossKind.hinge())
        for name, walk in zip(names, walks):
            _assert_walk_is_reference(pool[name], walk, ds, LossKind.hinge(), 32, 0, name)

    def test_the_grid_walks_nothing(self):
        ds = gen_toy_classification(30, seed=14)
        grid = EwaGridConfig(eta=0.1, experts=diagonal_lattice(-2.0, 2.0, 5, 2))
        with pytest.raises(DomainError, match="the grid walks nothing"):
            lockstep([grid, OgaConfig(eta=0.1, box=BoxConstraints.symmetric(2))], ds,
                     LossKind.hinge())
        assert lockstep([], ds, LossKind.hinge()) == []

    def test_a_walk_of_another_shape_is_rejected(self):
        ds = gen_toy_classification(30, seed=14)
        oga = OgaConfig(eta=0.1, box=BoxConstraints.symmetric(2))
        (walk,) = lockstep([oga], ds.head(20), LossKind.hinge())
        with pytest.raises(DimensionMismatchError, match="walk"):
            run_online(oga, ds, LossKind.hinge(), walk=walk)


class TestStreamingReaders:
    """A pass hands each learner's decisions to its readers a block of steps
    at a time; the block length changes no bit of what they keep, against
    the recorded path: the (T, d) decisions, their point losses in one call,
    their mean and their largest magnitudes."""

    NN = LossKind.squared_nn(3)

    @staticmethod
    def _assert_kept_as_recorded(rows, losses, kept, mean, kind, ds, name):
        assert_same_bits(kept.rows, rows, name)
        assert_same_bits(losses, point_loss_rows(kind, rows, ds.features, ds.targets), name)
        # the mean of the rows added one after another to 0.0 in step order,
        # which numpy's mean over the rows of a (T, d >= 2) array is too
        total = np.zeros(rows.shape[1])
        for row in rows:
            total += row
        assert_same_bits(mean.theta_bar(), total / len(rows), name)
        if rows.shape[1] >= 2:
            assert_same_bits(mean.theta_bar(), rows.mean(axis=0), name)
        assert_same_bits(mean.reach, np.max(np.abs(rows), axis=0), name)
        assert mean.count == len(rows), name

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), kind_name=st.sampled_from(["hinge", "squared_linear", "squared_nn"]),
           d_in=st.integers(1, 4), seed=st.integers(0, 2 ** 31))
    def test_the_block_length_changes_no_bit(self, data, kind_name, d_in, seed):
        kind = {"hinge": LossKind.hinge(), "squared_linear": SQL,
                "squared_nn": self.NN}[kind_name]
        t_len = data.draw(st.integers(2, 60 if kind is self.NN else 200), label="T")
        ds = TestLockstep._stream(kind, t_len, d_in, seed)
        d = kind.param_dim(ds.d)
        pool = _pool(d, ds.T, BoxConstraints.symmetric(d, m_abs=2.0))
        names = data.draw(st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=6),
                          label="learners")
        configs, k = [pool[n] for n in names], len(names)
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                recorded = _kept_lockstep(configs, ds, kind, mc_samples=4, seed=seed)
        except (DomainError, InvalidPrecisionError):
            assume(False)  # a failing pass: test_every_learner_equals_its_reference's
        default = max(1, learners.TILE_VALUES // (k * d))
        for length in sorted({1, 2, 7, t_len - 1, t_len, default}):
            kept = [Decisions(t_len, d) for _ in configs]
            means = [DecisionMean() for _ in configs]
            with pytest.MonkeyPatch.context() as patch, \
                    np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                patch.setattr(learners, "TILE_VALUES", length * k * d)
                walks = lockstep(configs, ds, kind, mc_samples=4, seed=seed,
                                 readers=[[a, b] for a, b in zip(kept, means)])
            for name, walk, full, rows, mean in zip(names, walks, recorded, kept, means):
                label = f"{name}, blocks of {length}"
                assert_same_bits(walk.losses, full.losses, label)
                self._assert_kept_as_recorded(full.predictions, walk.losses, rows, mean, kind,
                                              ds, label)

    @pytest.mark.parametrize("kind_name", ["hinge", "squared_linear", "squared_nn"])
    def test_the_grid_hands_on_its_tiles(self, monkeypatch, kind_name):
        kind = {"hinge": LossKind.hinge(), "squared_linear": SQL,
                "squared_nn": self.NN}[kind_name]
        ds = TestLockstep._stream(kind, 150, 2, 21)
        d = kind.param_dim(ds.d)
        grid = EwaGridConfig(eta=0.3, experts=diagonal_lattice(-2.0, 2.0, 9, d))
        recorded = run_online(grid, ds, kind)
        for values in (None, 2 ** 6, 2 ** 10):
            if values is not None:
                monkeypatch.setattr(losses_mod, "TILE_VALUES", values)
            kept, mean = Decisions(ds.T, d), DecisionMean()
            trace = learners.grid_pass(grid, ds, kind, [kept, mean])
            assert trace.predictions is None
            assert_same_bits(trace.losses, recorded.losses, str(values))
            self._assert_kept_as_recorded(recorded.predictions, trace.losses, kept, mean, kind,
                                          ds, str(values))


class TestLockstepFailures:
    """A pass fails at the first step where any learner fails, with the
    error type of a learner run alone, and names that learner."""

    KIND = LossKind.hinge()
    BOX2 = BoxConstraints.symmetric(2)
    PRIOR2 = GaussianPrior(1.0, 2)

    def test_the_gradient_of_one_learner(self):
        # at step 3, sigma x^2 / s_z is inf / inf for the Gaussian learners;
        # OGA's point gradient stays finite, so the error names svb
        ds = Dataset([[1.0, 1.0], [0.5, -1.0], [1e200, 0.0], [1.0, 1.0]],
                     [1.0, -1.0, 1.0, -1.0], CLASSIFICATION, "huge")
        configs = [OgaConfig(eta=0.1, box=self.BOX2),
                   SvbConfig(schedule=InvSigmaSqrtT(), prior=self.PRIOR2, box=self.BOX2),
                   SvaConfig(eta=0.1, prior=self.PRIOR2, box=self.BOX2)]
        message = r"^step 3 \(second\): the gradient is not finite$"
        with pytest.raises(DomainError, match=message), \
                np.errstate(over="ignore", invalid="ignore"):
            lockstep(configs, ds, self.KIND, names=["first", "second", "third"])

    def test_the_state_of_one_learner(self):
        # an unprojected SVA with an absurd step leaves the floats at step 1
        ds = gen_iid_regression(5, np.array([3.0, -3.0]), 0.1, seed=15)
        configs = [OgaElConfig(eta=0.1, prior=self.PRIOR2, box=self.BOX2),
                   SvaConfig(eta=1e308, prior=self.PRIOR2)]
        with pytest.raises(DomainError, match=r"^step 1 \(sva\): the updated state is not "
                                              r"finite with sigma > 0$"), \
                np.errstate(over="ignore", invalid="ignore"):
            lockstep(configs, ds, SQL)

    def test_an_ngvi_that_leaves_the_family(self):
        # the step at which NGVI aborts alone is the step at which the pass aborts
        kind = LossKind.squared_nn(3)
        ds = gen_iid_regression(40, np.array([1.0, -1.0]), 0.3, seed=0)
        prior = GaussianPrior(1.0, kind.param_dim(2))
        ngvi = NgviConfig(eta=1e9, alpha=1e9, prior=prior)
        with pytest.raises(InvalidPrecisionError) as alone:
            run_online(ngvi, ds, kind, mc_samples=8)
        configs = [SvaConfig(eta=0.1, prior=prior), ngvi, OgaConfig(
            eta=0.1, box=BoxConstraints.symmetric(kind.param_dim(2)))]
        with pytest.raises(InvalidPrecisionError) as mixed:
            lockstep(configs, ds, kind, mc_samples=8, names=["a", "blowup", "c"])
        assert mixed.value.step == alone.value.step
        assert str(mixed.value).startswith(f"step {alone.value.step} (blowup): ")


def _scalar_expected_grad(kind, m, sigma, x, y):
    """The closed-form gradient of one (m, sigma) as a scalar formula per
    step (copied as the oracle of the row kernel)."""
    from onlinevi.losses import gaussian_cdf, gaussian_pdf
    if kind.kind == "squared_linear":
        resid = y - float(m @ x)
        return -2.0 * resid * x, 2.0 * sigma * x ** 2
    mu_z = 1.0 - y * float(m @ x)
    s_z = float(np.sqrt(np.sum((sigma * x) ** 2)))
    if s_z == 0.0:
        indicator = 1.0 if mu_z > 0.0 else 0.0
        return -y * indicator * x, np.zeros_like(sigma)
    z = mu_z / s_z
    return -y * float(gaussian_cdf(z)) * x, (sigma * x ** 2 / s_z) * float(gaussian_pdf(z))


class TestStackedGradients:
    """The row kernels against the scalar formulas, row by row, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(kind_name=st.sampled_from(["hinge", "squared_linear"]), k=st.integers(1, 7),
           d=st.integers(1, 12), seed=st.integers(0, 2 ** 31), tiny=st.booleans())
    def test_expected_grad_rows(self, kind_name, k, d, seed, tiny):
        kind = LossKind.hinge() if kind_name == "hinge" else SQL
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        sigma = rng.uniform(1e-3, 2.0, size=(k, d))
        x = rng.normal(size=d)
        if tiny:
            # s_z underflows to 0 on the rows with sigma 1e-170: the
            # indicator branch on those rows, the normal one on the others
            x = np.full(d, 1e-160)
            sigma[::2] = 1e-170
        y = float(rng.choice([-1.0, 1.0])) if kind_name == "hinge" else float(rng.normal())
        with np.errstate(over="ignore"):  # z^2 of a huge z in phi(z)
            g_m, g_sigma = expected_grad_xy(kind, m, sigma, x, y)
            for j in range(k):
                want_m, want_sigma = _scalar_expected_grad(kind, m[j], sigma[j], x, y)
                assert g_m[j].tobytes() == want_m.tobytes()
                assert g_sigma[j].tobytes() == want_sigma.tobytes()
                one_m, one_sigma = expected_grad_xy(kind, m[j], sigma[j], x, y)
                assert one_m.tobytes() == want_m.tobytes()
                assert one_sigma.tobytes() == want_sigma.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(kind_name=st.sampled_from(["hinge", "squared_linear"]), k=st.integers(1, 6),
           d=st.integers(1, 6), seed=st.integers(0, 2 ** 31),
           y=st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.5, -4.0, 0.3, -2.7, 1e-300]),
           kink=st.booleans())
    def test_zero_sigma_rows_are_point_subgradients(self, kind_name, k, d, seed, y, kink):
        # lockstep gives OGA's rows sigma = 0 in the closed-form call: there
        # the hinge form takes its s_z = 0 branch, -y x 1{mu_z > 0}, and the
        # squared form -2 (y - s) x, both with the point subgradient's bits
        kind = LossKind.hinge() if kind_name == "hinge" else SQL
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(k, d)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        sigma = rng.uniform(1e-3, 2.0, size=(k, d))
        zero = rng.random(k) < 0.5
        zero[rng.integers(k)] = True
        sigma[zero] = 0.0
        x = rng.normal(size=d)
        kink = kink and y in (1.0, -1.0, 0.5, -4.0)
        if kink:
            # row 0 on the hinge's kink: y (m . x) = 1 exactly, so mu_z = 0
            x[0], m[0] = 2.0, 0.0
            m[0, 0] = 0.5 / y
        with np.errstate(over="ignore"):
            g_m, g_sigma = expected_grad_xy(kind, m, sigma, x, y)
            stacked = point_grad_xy(kind, m[zero], x, y)
            for j in range(k):
                if zero[j]:
                    assert_same_bits(g_m[j], point_grad_xy(kind, m[j], x, y), str(j))
                else:
                    one_m, one_sigma = expected_grad_xy(kind, m[j], sigma[j], x, y)
                    assert_same_bits(g_m[j], one_m, str(j))
                    assert_same_bits(g_sigma[j], one_sigma, str(j))
        assert_same_bits(g_m[zero], stacked)
        if kink and kind_name == "hinge" and zero[0]:
            assert not g_m[0].any()  # zero at the kink

    @settings(max_examples=100, deadline=None)
    @given(kind_name=st.sampled_from(["hinge", "squared_linear", "squared_nn"]),
           k=st.integers(1, 6), d_in=st.integers(1, 4), seed=st.integers(0, 2 ** 31))
    def test_point_and_monte_carlo_grad_rows(self, kind_name, k, d_in, seed):
        kind = {"hinge": LossKind.hinge(), "squared_linear": SQL,
                "squared_nn": LossKind.squared_nn(1 + seed % 5)}[kind_name]
        d = kind.param_dim(d_in)
        rng = np.random.default_rng(seed)
        thetas, sigma = rng.normal(size=(k, d)), rng.uniform(0.1, 2.0, size=(k, d))
        x, y = rng.normal(size=d_in), float(rng.choice([-1.0, 1.0]))
        eps = rng.normal(size=(5, d))
        rows = point_grad_xy(kind, thetas, x, y)
        for j in range(k):
            assert rows[j].tobytes() == point_grad_xy(kind, thetas[j], x, y).tobytes()
        if kind_name == "squared_nn":
            _, g_m, g_sigma = mc_grad_eps(kind, thetas, sigma, x, y, eps)
            for j in range(k):
                _, want_m, want_sigma = mc_grad_eps(kind, thetas[j], sigma[j], x, y, eps)
                assert g_m[j].tobytes() == want_m.tobytes()
                assert g_sigma[j].tobytes() == want_sigma.tobytes()
