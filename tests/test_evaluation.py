"""Regret accounting, comparators against grid/analytic oracles, bound
formulas, online-to-batch conversion, and the strong-convexity constant."""

import numpy as np
import pytest

from onlinevi.data import (CLASSIFICATION, REGRESSION, Dataset, gen_iid_regression,
                           gen_toy_classification)
from onlinevi.errors import DataError, DomainError
from onlinevi.evaluation import (
    BoundInputs,
    alpha_estimate,
    best_in_hindsight,
    build_ledger,
    ewa_bound,
    generalization_estimate,
    jensen_holdout_audit,
    ogael_bound,
    ogael_kl_bound,
    online_to_batch,
    regret,
    sva_bound,
    svb_bounds,
)
from onlinevi.family import BoxConstraints, GaussianPrior, MeanFieldGaussian, kl_divergence
from onlinevi.losses import LossKind, point_loss_series
from onlinevi.rng import CounterRng

HINGE = LossKind.hinge()
SQL = LossKind.squared_linear()


class TestLedger:
    def test_series(self):
        led = build_ledger([1.0, 0.0, 2.0])
        np.testing.assert_allclose(led.cumulative, [1.0, 1.0, 3.0])
        np.testing.assert_allclose(led.averages, [1.0, 0.5, 1.0])

    def test_all_zero(self):
        led = build_ledger([0.0, 0.0])
        assert led.total == 0.0 and led.final_average == 0.0

    def test_single_step(self):
        assert build_ledger([0.7]).final_average == pytest.approx(0.7)

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            build_ledger([1.0, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            build_ledger([])


class TestBestInHindsight:
    def test_single_hinge_example_reaches_zero(self):
        data = Dataset([[1.0, 0.0]], [1.0], CLASSIFICATION, "one")
        box = BoxConstraints.symmetric(2)
        comp = best_in_hindsight(data, HINGE, box, restarts=5, iters=300, seed=0)
        assert comp.cumulative_loss_star == pytest.approx(0.0, abs=1e-6)

    def test_one_dim_least_squares(self):
        data = Dataset([[1.0], [1.0]], [1.0, 3.0], REGRESSION, "two")
        box = BoxConstraints.symmetric(1)
        comp = best_in_hindsight(data, SQL, box, restarts=5, iters=300, seed=0)
        assert comp.theta_star[0] == pytest.approx(2.0, abs=1e-3)
        assert comp.cumulative_loss_star == pytest.approx(2.0, abs=1e-3)

    def test_squared_linear_analytic_instances(self):
        # unconstrained least-squares optimum lies inside the wide box, so the
        # solver value must be within 1e-3 relative of the analytic optimum
        rng = CounterRng(30, "bih-sql")
        for trial in range(5):
            d, n = 3, 120
            feats = rng.normals(n * d).reshape(n, d)
            theta = 2.0 * rng.normals(d)
            targs = feats @ theta + 0.5 * rng.normals(n)
            data = Dataset(feats, targs, REGRESSION, "instance")
            box = BoxConstraints.symmetric(d)
            comp = best_in_hindsight(data, SQL, box, restarts=5, iters=500,
                                     seed=trial)
            ls, *_ = np.linalg.lstsq(feats, targs, rcond=None)
            best = float(np.sum((targs - feats @ ls) ** 2))
            assert comp.cumulative_loss_star <= best * (1.0 + 1e-3) + 1e-9
            assert comp.cumulative_loss_star >= best - 1e-9

    def test_toy_hinge_vs_grid_oracle(self):
        # two-stage dense grid search over [-20, 20]^2 as the oracle
        ds = gen_toy_classification(1000, seed=2)
        box = BoxConstraints.symmetric(2)
        comp = best_in_hindsight(ds, HINGE, box, restarts=10, iters=1000, seed=0)

        def grid_best(lo0, hi0, lo1, hi1, res):
            g0 = np.linspace(lo0, hi0, res)
            g1 = np.linspace(lo1, hi1, res)
            best_val, best_pt = np.inf, None
            for a in g0:
                thetas = np.stack([np.full(res, a), g1], axis=1)
                scores = ds.features @ thetas.T
                losses = np.maximum(0.0, 1.0 - ds.targets[:, None] * scores).sum(axis=0)
                idx = int(np.argmin(losses))
                if losses[idx] < best_val:
                    best_val, best_pt = float(losses[idx]), (a, g1[idx])
            return best_val, best_pt

        coarse_val, (a0, a1) = grid_best(-20, 20, -20, 20, 81)
        span = 40.0 / 80.0
        fine_val, _ = grid_best(a0 - span, a0 + span, a1 - span, a1 + span, 81)
        oracle = min(coarse_val, fine_val)
        assert abs(comp.cumulative_loss_star - oracle) / oracle <= 1e-2

    def test_rejects_empty(self):
        # an empty stream is rejected at the Dataset boundary
        with pytest.raises(DataError):
            best_in_hindsight(Dataset(np.empty((0, 2)), [], CLASSIFICATION, "empty"),
                              HINGE, BoxConstraints.symmetric(2))

    def test_nn_search_is_labeled_local(self):
        kind = LossKind.squared_nn(3)
        ds = gen_iid_regression(60, np.array([1.0, -1.0]), 0.3, seed=8)
        box = BoxConstraints.symmetric(kind.param_dim(2), m_abs=5.0)
        comp = best_in_hindsight(ds, kind, box, restarts=2, iters=150, seed=0)
        assert comp.diagnostics["method"] == "local"
        # the local search must at least beat the all-zeros network
        zero_val = float(np.sum(point_loss_series(kind, np.zeros(box.d),
                                                  ds.features, ds.targets)))
        assert comp.cumulative_loss_star <= zero_val + 1e-9

    def test_nn_batch_grad_matches_per_example_mean(self):
        from onlinevi.losses import nn_batch_mean_grad, point_grad, DataExample
        kind = LossKind.squared_nn(4)
        rng = CounterRng(34, "nn-batch")
        theta = rng.normals(kind.param_dim(3))
        feats = rng.normals(60).reshape(20, 3)
        targs = rng.normals(20)
        batch = nn_batch_mean_grad(kind, theta, feats, targs)
        manual = np.mean([point_grad(kind, theta, DataExample(feats[i], targs[i]))
                          for i in range(20)], axis=0)
        np.testing.assert_allclose(batch, manual, rtol=1e-12, atol=1e-12)


class TestRegret:
    def test_arithmetic(self):
        led = build_ledger([4.0, 6.0])

        class Comp:
            cumulative_loss_star = 7.0
            diagnostics = {"horizon": 2}
        assert regret(led, Comp()) == 3.0

    def test_zero_when_equal(self):
        led = build_ledger([1.0, 1.0])

        class Comp:
            cumulative_loss_star = 2.0
            diagnostics = {"horizon": 2}
        assert regret(led, Comp()) == 0.0

    def test_recomputation_idempotent(self):
        losses = CounterRng(31, "regret").uniforms(50)
        a = build_ledger(losses)
        b = build_ledger(a.losses)
        assert a.total == b.total
        np.testing.assert_array_equal(a.averages, b.averages)


class TestBoundFormulas:
    def test_ewa_values(self):
        assert ewa_bound(BoundInputs(T=8, eta=1.0, B=1.0, kl_term=0.0)) == 1.0
        got = ewa_bound(BoundInputs(T=8, eta=1.0, B=1.0, kl_term=np.log(4.0)))
        assert got == pytest.approx(2.3862944, abs=1e-7)

    def test_ewa_optimal_eta_by_scan(self):
        b, t, kl = 2.0, 500, np.log(41.0)
        eta_star = np.sqrt(8.0 * kl / (b * b * t))
        best = ewa_bound(BoundInputs(T=t, eta=eta_star, B=b, kl_term=kl))
        for eta in np.linspace(0.1 * eta_star, 10 * eta_star, 301):
            assert best <= ewa_bound(BoundInputs(T=t, eta=float(eta), B=b,
                                                 kl_term=kl)) + 1e-12

    def test_sva_values(self):
        assert sva_bound(BoundInputs(T=1, eta=1.0, L=1.0, alpha=1.0, kl_term=0.0)) == 1.0
        got = sva_bound(BoundInputs(T=100, eta=0.5, L=2.0, alpha=4.0, kl_term=3.0))
        assert got == 56.0

    def test_sva_convex_in_eta(self):
        inputs = lambda eta: BoundInputs(T=50, eta=eta, L=1.5, alpha=0.7, kl_term=2.0)
        etas = np.linspace(0.01, 2.0, 200)
        vals = np.array([sva_bound(inputs(float(e))) for e in etas])
        second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second_diff >= -1e-9)

    def test_svb_values(self):
        convex, strong = svb_bounds(BoundInputs(T=2, D=1.0, L=1.0))
        assert convex == pytest.approx(2.0)
        assert strong is None
        _, strong = svb_bounds(BoundInputs(T=1, D=1.0, L=1.0, H=1.0))
        assert strong == pytest.approx(1.0)

    def test_svb_box_diameter(self):
        box = BoxConstraints.symmetric(2, m_abs=20.0, sigma_hi=1.0)
        convex, _ = svb_bounds(BoundInputs(T=2, D=box.diameter(), L=1.0))
        assert box.diameter() == pytest.approx(56.586, abs=1e-3)

    def test_ogael_values(self):
        assert ogael_bound(BoundInputs(T=1, eta=1.0, L=1.0, dist_sq=0.0)) == 1.0
        assert ogael_bound(BoundInputs(T=50, eta=0.1, L=2.0, dist_sq=4.0)) == \
            pytest.approx(60.0)

    def test_ogael_kl_variant(self):
        got = ogael_kl_bound(BoundInputs(T=50, eta=0.1, L=2.0, alpha=0.5, kl_term=4.0))
        assert got == pytest.approx(0.1 * 4 * 50 + 0.5 * 4.0 / 0.2)

    def test_missing_constant_rejected(self):
        with pytest.raises(DomainError):
            ewa_bound(BoundInputs(T=8, eta=1.0, kl_term=0.0))


class TestTheorem1OnGrids:
    def test_holds_for_every_tested_combination(self):
        # deterministic inequality across (eta, grid, stream) combinations
        from onlinevi.learners import EwaGridConfig, diagonal_lattice, run_online
        for stream_seed in (0, 5):
            ds = gen_toy_classification(300, seed=stream_seed)
            for count in (11, 41):
                experts = diagonal_lattice(-20.0, 20.0, count, 2)
                losses = np.maximum(
                    0.0, 1.0 - ds.targets[:, None] * (ds.features @ experts.T))
                b_max = float(losses.max())
                best = float(losses.sum(axis=0).min())
                kl = float(np.log(count))
                for eta in (0.5 * np.sqrt(8 * kl / (b_max ** 2 * ds.T)),
                            np.sqrt(8 * kl / (b_max ** 2 * ds.T)),
                            2e-3):
                    cfg = EwaGridConfig(eta=float(eta), experts=experts)
                    led = build_ledger(run_online(cfg, ds, HINGE, seed=0).losses)
                    bound = ewa_bound(BoundInputs(T=ds.T, eta=float(eta),
                                                  B=b_max, kl_term=kl))
                    assert led.total - best <= bound


class TestOnlineToBatch:
    def test_constant_predictions(self):
        preds = np.tile([2.0, -1.0], (7, 1))
        np.testing.assert_allclose(online_to_batch(preds), [2.0, -1.0])

    def test_two_point_average(self):
        np.testing.assert_allclose(online_to_batch(np.array([[0.0], [2.0]])), [1.0])

    def test_resummation_oracle(self):
        preds = CounterRng(32, "otb").normals(400).reshape(100, 4)
        theta_bar = online_to_batch(preds)
        manual = np.zeros(4)
        for row in preds:
            manual += row
        manual /= 100.0
        assert np.max(np.abs(theta_bar - manual)) <= 1e-12


class TestGeneralizationEstimate:
    def test_identical_examples(self):
        # loss 0.3 per example: (y - theta x)^2 with theta=0, y=sqrt(0.3)
        y = np.sqrt(0.3)
        holdout = Dataset([[1.0]] * 5, [y] * 5, REGRESSION, "identical")
        mean, se = generalization_estimate(np.zeros(1), holdout, SQL)
        assert mean == pytest.approx(0.3, rel=1e-12)
        assert se == 0.0

    def test_known_generator_risk(self):
        theta_star = np.array([1.0, -2.0, 0.5])
        ds = gen_iid_regression(20000, theta_star, noise_sd=0.5, seed=9)
        mean, se = generalization_estimate(theta_star, ds, SQL)
        assert abs(mean - 0.25) <= 3.0 * se

    def test_single_example_se_zero(self):
        holdout = Dataset([[1.0]], [1.0], REGRESSION, "single")
        mean, se = generalization_estimate(np.zeros(1), holdout, SQL)
        assert se == 0.0


class TestJensenAudit:
    def test_holds_on_random_runs(self):
        preds = CounterRng(33, "jh").normals(60).reshape(20, 3)
        holdout = gen_iid_regression(50, np.array([1.0, 0.0, -1.0]), 0.3, seed=3)
        assert jensen_holdout_audit(preds, holdout, SQL)


def _fd_min_hessian_eig(s: float, m: float, sigma: float) -> float:
    """Smallest eigenvalue of the central finite-difference Hessian of the
    one-coordinate KL(N(m, sigma^2) || N(0, s^2)) in (m, sigma): the oracle
    for the exact alpha."""
    prior_1d = GaussianPrior(s, 1).gaussian()

    def kl(m, sigma):
        return kl_divergence(MeanFieldGaussian([m], [sigma]), prior_1d)

    h_m = 1e-4 * max(1.0, abs(m))
    h_s = 1e-4 * sigma
    f0 = kl(m, sigma)
    a = (kl(m + h_m, sigma) - 2.0 * f0 + kl(m - h_m, sigma)) / h_m ** 2
    b = (kl(m, sigma + h_s) - 2.0 * f0 + kl(m, sigma - h_s)) / h_s ** 2
    c = (kl(m + h_m, sigma + h_s) - kl(m + h_m, sigma - h_s)
         - kl(m - h_m, sigma + h_s) + kl(m - h_m, sigma - h_s)) / (4.0 * h_m * h_s)
    return float(0.5 * (a + b) - np.sqrt(0.25 * (a - b) ** 2 + c * c))


class TestAlphaEstimate:
    PRIOR = GaussianPrior(1.0, 1)

    def test_analytic_hessian_case(self):
        # KL Hessian per coordinate is diag(1/s^2, 1/s^2 + 1/sigma^2): the
        # minimum eigenvalue at every (m, sigma) is 1/s^2
        for s in (0.5, 1.0, 3.0):
            assert alpha_estimate(GaussianPrior(s, 3)) == 1.0 / s ** 2
        assert alpha_estimate(self.PRIOR) == 1.0

    def test_matches_finite_difference_hessian(self):
        rng = CounterRng(35, "alpha-fd")
        for s in (0.5, 1.0, 3.0):
            alpha = alpha_estimate(GaussianPrior(s, 1))
            for m, u in zip(-5.0 + 10.0 * rng.uniforms(20), rng.uniforms(20)):
                sigma = 0.1 + 2.9 * u
                fd = _fd_min_hessian_eig(s, float(m), float(sigma))
                assert abs(fd - alpha) <= 1e-6 * alpha, (s, m, sigma, fd)

    def test_widening_never_increases(self):
        # the minimum of the finite-difference eigenvalue over a grid on a
        # box is the same exact alpha for a narrow and a wide box
        def grid_min(m_lo, m_hi, s_lo, s_hi):
            return min(_fd_min_hessian_eig(1.0, m, sigma)
                       for m in np.linspace(m_lo, m_hi, 11)
                       for sigma in np.linspace(s_lo, s_hi, 11))

        a_narrow = grid_min(-1.0, 1.0, 0.5, 1.0)
        a_wide = grid_min(-5.0, 5.0, 0.25, 2.0)
        assert a_wide <= a_narrow + 1e-6
        alpha = alpha_estimate(self.PRIOR)
        assert abs(a_narrow - alpha) <= 1e-6 and abs(a_wide - alpha) <= 1e-6
