"""Regret accounting, comparators against grid/analytic oracles, bound
formulas, online-to-batch conversion, and the strong-convexity constant."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onlinevi import evaluation
from onlinevi import losses as losses_mod
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
from onlinevi.losses import LossKind, expert_loss_matrix, mean_loss_and_grad, point_loss_series
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

    def test_network_evaluations_share_one_workspace(self, monkeypatch):
        # one search allocates the network's per-row arrays once, and has
        # the bits of a search whose evaluations allocate their own
        kind = LossKind.squared_nn(4)
        data = gen_iid_regression(300, np.array([1.0, -0.5]), 0.3, seed=5)
        box = BoxConstraints.symmetric(kind.param_dim(2))
        allocated = []
        allocate = losses_mod._nn_buffers
        monkeypatch.setattr(losses_mod, "_nn_buffers",
                            lambda *shape: allocated.append(shape) or allocate(*shape))
        shared = best_in_hindsight(data, kind, box, restarts=2, iters=50, seed=1)
        assert shared.diagnostics["evaluations"] > 2 and allocated == [(300, 4)]
        assert losses_mod._workspace is None
        allocated.clear()
        monkeypatch.setattr(evaluation, "nn_workspace",
                            lambda n, width: contextlib.nullcontext())
        own = best_in_hindsight(data, kind, box, restarts=2, iters=50, seed=1)
        assert len(allocated) == own.diagnostics["evaluations"]
        assert own.theta_star.tobytes() == shared.theta_star.tobytes()
        assert own.cumulative_loss_star == shared.cumulative_loss_star

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

    def test_nn_search_matches_the_column_mean_kernel(self, monkeypatch):
        """The squared-nn comparator, origin end point and two random starts,
        gives the same theta_star and total bit for bit as with the
        comparator's kernel replaced by the formula that summed the gradient
        columns with ``mean(axis=0)`` (copied here)."""
        kind = LossKind.squared_nn(5)
        ds = gen_iid_regression(80, np.array([1.0, -0.5]), 0.3, seed=3)
        box = BoxConstraints.symmetric(kind.param_dim(2), m_abs=3.0)
        comp = best_in_hindsight(ds, kind, box, restarts=2, iters=120, seed=7)
        calls = []

        def column_mean_kernel(kind, theta, features, targets):
            calls.append(1)
            hw, d_in, n = kind.hidden_width, features.shape[1], features.shape[0]
            w1 = theta[: hw * d_in].reshape(hw, d_in)
            b1 = theta[hw * d_in: hw * d_in + hw]
            w2 = theta[hw * d_in + hw: hw * d_in + 2 * hw]
            pre = features @ w1.T + b1
            hidden = np.maximum(pre, 0.0)
            f = hidden @ w2 + theta[-1]
            dloss = -2.0 * (targets - f)
            gate = dloss[:, None] * (pre > 0.0) * w2[None, :]
            grad = np.concatenate([((gate.T @ features) / n).reshape(-1), gate.mean(axis=0),
                                   (hidden * dloss[:, None]).mean(axis=0), [dloss.mean()]])
            return float(np.mean(np.square(targets - f))), grad

        monkeypatch.setattr(evaluation, "mean_loss_and_grad", column_mean_kernel)
        oracle = best_in_hindsight(ds, kind, box, restarts=2, iters=120, seed=7)
        assert len(calls) == comp.diagnostics["evaluations"]
        assert np.array_equal(comp.theta_star.view(np.int64),
                              oracle.theta_star.view(np.int64))
        assert comp.cumulative_loss_star == oracle.cumulative_loss_star
        assert not np.array_equal(comp.theta_star, np.zeros(box.d))

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


class TestNetworkSearch:
    """The squared_nn comparator: spectral projected gradient from small
    random starts, each start ending when it stalls, and the end point of a
    start at the origin."""

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_leaves_the_origin(self, width):
        kind = LossKind.squared_nn(width)
        ds = gen_iid_regression(100, np.array([1.0, -0.5]), 0.3, seed=width)
        box = BoxConstraints.symmetric(kind.param_dim(2), m_abs=5.0)
        # at the origin w2 = 0 and ReLU'(0) = 0, so only b2 has a gradient
        _, g = mean_loss_and_grad(kind, np.zeros(box.d), ds.features, ds.targets)
        assert np.all(g[:-1] == 0.0) and g[-1] != 0.0
        comp = best_in_hindsight(ds, kind, box, restarts=0, iters=200, seed=1)
        assert not np.array_equal(comp.theta_star, np.zeros(box.d))
        assert comp.cumulative_loss_star < float(np.sum(ds.targets ** 2))

    @pytest.mark.parametrize("m_abs", [0.1, 5.0])
    def test_the_origin_end_point_is_one_evaluation(self, m_abs):
        # from the origin only b2 moves; the search from there ends at b2 =
        # mean(y), clipped to the box, which is the candidate evaluated once
        kind = LossKind.squared_nn(3)
        base = gen_iid_regression(60, np.array([1.0, -0.5]), 0.3, seed=4)
        ds = Dataset(base.features, base.targets + 3.0, REGRESSION, "shifted")
        box = BoxConstraints.symmetric(kind.param_dim(2), m_abs=m_abs)
        comp = best_in_hindsight(ds, kind, box, restarts=0, iters=200, seed=1)
        expected = np.zeros(box.d)
        expected[-1] = np.clip(np.mean(ds.targets), -m_abs, m_abs)
        assert np.array_equal(comp.theta_star, expected)
        assert comp.diagnostics["evaluations"] == 1

        def value_and_grad(theta):
            return mean_loss_and_grad(kind, theta, ds.features, ds.targets)

        theta, value = evaluation._spg_minimize(
            value_and_grad, lambda t: t.clip(box.m_lo, box.m_hi), [np.zeros(box.d)], 200)
        assert np.all(theta[:-1] == 0.0)
        assert value_and_grad(expected)[0] <= value

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 40), d_in=st.integers(1, 3), width=st.integers(1, 4),
           m_abs=st.sampled_from([0.1, 1.0, 5.0, 20.0]), restarts=st.integers(0, 2),
           iters=st.integers(0, 60), seed=st.integers(0, 2 ** 31))
    def test_never_above_the_origin(self, n, d_in, width, m_abs, restarts, iters, seed):
        kind = LossKind.squared_nn(width)
        ds = gen_iid_regression(n, np.linspace(-1.0, 1.0, d_in), 0.5, seed=seed)
        box = BoxConstraints.symmetric(kind.param_dim(d_in), m_abs=m_abs)
        comp = best_in_hindsight(ds, kind, box, restarts=restarts, iters=iters, seed=seed)
        origin = float(np.sum(point_loss_series(kind, np.zeros(box.d),
                                                ds.features, ds.targets)))
        assert comp.cumulative_loss_star <= origin
        assert np.all((box.m_lo <= comp.theta_star) & (comp.theta_star <= box.m_hi))

    def test_two_calls_same_bits(self):
        kind = LossKind.squared_nn(6)
        ds = gen_iid_regression(300, np.array([1.0, -0.5]), 0.5, seed=5)
        box = BoxConstraints.symmetric(kind.param_dim(2))
        first, second = (best_in_hindsight(ds, kind, box, restarts=2, iters=300, seed=9)
                         for _ in range(2))
        assert np.array_equal(first.theta_star.view(np.int64),
                              second.theta_star.view(np.int64))
        assert first.cumulative_loss_star == second.cumulative_loss_star
        assert first.diagnostics == second.diagnostics

    def test_stops_before_its_budget(self):
        # T = 2000 at width 16 (d_param 65), as on nn-mc: every start stalls
        # long before its iters steps.  Without the stall stop the random
        # starts take all 2000 steps, with more than one evaluation each.
        kind = LossKind.squared_nn(16)
        ds = gen_iid_regression(2000, np.array([1.0, -0.5]), 0.5, seed=1)
        box = BoxConstraints.symmetric(kind.param_dim(2))
        restarts, iters = 2, 2000
        comp = best_in_hindsight(ds, kind, box, restarts=restarts, iters=iters, seed=1)
        assert comp.diagnostics["evaluations"] < (restarts + 1) * iters / 4
        assert comp.cumulative_loss_star < 0.25 * float(np.sum(ds.targets ** 2))


def _hinge_lp_optimum(features, targets, box) -> float:
    """min over the box of the total hinge loss as the LP min sum xi with
    xi_i >= 1 - y_i x_i . theta, xi >= 0, solved by HiGHS (test oracle)."""
    from scipy.optimize import linprog
    t_len, d = features.shape
    signed = targets[:, None] * features
    res = linprog(np.concatenate([np.zeros(d), np.ones(t_len)]),
                  A_ub=np.hstack([-signed, -np.eye(t_len)]), b_ub=-np.ones(t_len),
                  bounds=list(zip(box.m_lo, box.m_hi)) + [(0.0, None)] * t_len,
                  method="highs")
    assert res.status == 0
    return float(res.fun)


def _least_squares_optimum(features, targets, box) -> float:
    """min over the box of the total squared loss, by scipy's bounded least
    squares (test oracle)."""
    from scipy.optimize import lsq_linear
    res = lsq_linear(features, targets, bounds=(box.m_lo, box.m_hi), method="bvls",
                     tol=1e-14)
    return float(np.sum((targets - features @ res.x) ** 2))


def _instance(kind, seed: int, n: int, d: int) -> Dataset:
    """A random stream whose unconstrained optimum sits near theta = 2 (1,
    -1, 1, ...): inside the default box, outside a box of half-width 1."""
    rng = CounterRng(seed, "certificate-instance")
    features = rng.normals(n * d).reshape(n, d)
    theta = 2.0 * np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    scores = features @ theta + 0.7 * rng.normals(n)
    if kind.kind == "hinge":
        return Dataset(features, np.where(scores >= 0.0, 1.0, -1.0), CLASSIFICATION, "inst")
    return Dataset(features, scores, REGRESSION, "inst")


def _optimum(kind, data, box) -> float:
    oracle = _hinge_lp_optimum if kind.kind == "hinge" else _least_squares_optimum
    return oracle(data.features, data.targets, box)


class TestCertifiedComparator:
    @pytest.mark.parametrize("kind", [HINGE, SQL], ids=["hinge", "squared-linear"])
    @pytest.mark.parametrize("m_abs", [20.0, 1.0, 0.5], ids=["inside", "face-1", "face-0.5"])
    def test_certified_against_scipy(self, kind, m_abs):
        for seed, (n, d) in enumerate([(150, 2), (200, 3), (120, 5)]):
            data = _instance(kind, seed, n, d)
            box = BoxConstraints.symmetric(d, m_abs=m_abs)
            oracle = _optimum(kind, data, box)
            comp = best_in_hindsight(data, kind, box, seed=seed)
            tol = 1e-7 * max(1.0, oracle)
            assert comp.diagnostics["method"] == "certified", (seed, m_abs)
            assert comp.lower_bound <= oracle + tol
            assert comp.cumulative_loss_star >= oracle - tol
            assert comp.gap <= evaluation._CERTIFIED_GAP * max(1.0, comp.cumulative_loss_star)
            assert np.all(comp.theta_star >= box.m_lo) and np.all(comp.theta_star <= box.m_hi)

    @pytest.mark.parametrize("kind", [HINGE, SQL], ids=["hinge", "squared-linear"])
    def test_degenerate_stream_falls_back(self, kind):
        # every row twice and a zero feature make the polish systems singular;
        # the other two features are nearly collinear, so that the projected
        # least-squares start is not optimal in the box
        rng = CounterRng(7, "degenerate")
        x0 = rng.normals(40)
        features = np.stack([x0, np.zeros(40), x0 + 0.3 * rng.normals(40)], axis=1)
        scores = 2.0 * features[:, 0] - features[:, 2] + 0.3 * rng.normals(40)
        if kind.kind == "hinge":
            data = Dataset(np.repeat(features, 2, axis=0),
                           np.repeat(np.where(scores >= 0.0, 1.0, -1.0), 2),
                           CLASSIFICATION, "degenerate")
        else:
            data = Dataset(np.repeat(features, 2, axis=0), np.repeat(scores, 2),
                           REGRESSION, "degenerate")
        box = BoxConstraints.symmetric(3, m_abs=0.5)
        comp = best_in_hindsight(data, kind, box, restarts=0, iters=0)
        assert comp.diagnostics["method"] == "projected_subgradient"
        assert np.isfinite(comp.lower_bound)
        assert comp.lower_bound <= _optimum(kind, data, box) + 1e-9
        assert comp.lower_bound <= comp.cumulative_loss_star
        assert np.all(np.abs(comp.theta_star) <= 0.5)

    @pytest.mark.parametrize("m_abs", [1e5, 1e7])
    def test_wide_boxes_certify(self, m_abs):
        # the optimum is inside the box; the Frank-Wolfe bound's rounding
        # grows with the box width, the unconstrained bound's does not
        data = _instance(SQL, 0, 300, 5)
        box = BoxConstraints.symmetric(5, m_abs=m_abs)
        oracle = _optimum(SQL, data, box)
        comp = best_in_hindsight(data, SQL, box)
        assert comp.diagnostics["method"] == "certified"
        assert comp.lower_bound <= oracle + 1e-9 * max(1.0, oracle)
        assert comp.cumulative_loss_star >= oracle - 1e-9 * max(1.0, oracle)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), m_abs=st.sampled_from([0.5, 1.0, 3.0, 20.0]))
    def test_unconstrained_bound_never_exceeds_the_optimum(self, seed, m_abs):
        data = _instance(SQL, seed, 30, 3)
        box = BoxConstraints.symmetric(3, m_abs=m_abs)
        optimum = _optimum(SQL, data, box)
        u = CounterRng(seed, "certificate-draws").uniforms(3)
        theta = box.m_lo + u * (box.m_hi - box.m_lo)
        mean, g = mean_loss_and_grad(SQL, theta, data.features, data.targets)
        chol = np.linalg.cholesky(data.features.T @ data.features)
        bound = evaluation._unconstrained_bound(chol, mean * data.T, g * data.T)
        assert bound <= optimum + 1e-9 * max(1.0, optimum)

    def test_local_search_reports_the_zero_bound(self):
        kind = LossKind.squared_nn(2)
        ds = gen_iid_regression(40, np.array([1.0, -1.0]), 0.3, seed=8)
        comp = best_in_hindsight(ds, kind, BoxConstraints.symmetric(kind.param_dim(2)),
                                 restarts=1, iters=20)
        assert comp.diagnostics["method"] == "local"
        assert comp.lower_bound == 0.0

    def test_checkpoints(self):
        assert evaluation._checkpoints(0) == {0}
        assert evaluation._checkpoints(1) == {0, 1}
        assert evaluation._checkpoints(2000) == {0, 2000} | {2 ** i for i in range(11)}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), m_abs=st.sampled_from([0.5, 1.0, 3.0, 20.0]),
           hinge=st.booleans())
    def test_bounds_never_exceed_the_optimum(self, seed, m_abs, hinge):
        # LB(alpha) at random alpha in [0, 1]^T and the Frank-Wolfe bound at a
        # random theta in the box are lower bounds on the exact optimum
        kind = HINGE if hinge else SQL
        data = _instance(kind, seed, 30, 3)
        box = BoxConstraints.symmetric(3, m_abs=m_abs)
        optimum = _optimum(kind, data, box)
        tol = 1e-9 * max(1.0, optimum)
        rng = CounterRng(seed, "certificate-draws")
        theta = box.m_lo + rng.uniforms(3) * (box.m_hi - box.m_lo)
        mean, g = mean_loss_and_grad(kind, theta, data.features, data.targets)
        fw = evaluation._frank_wolfe_bound(theta, mean * data.T, g * data.T,
                                           box.m_lo, box.m_hi)
        assert fw <= optimum + tol
        if hinge:
            signed = data.targets[:, None] * data.features
            for alpha in (rng.uniforms(data.T), np.round(rng.uniforms(data.T))):
                bound = evaluation._hinge_dual_bound(signed, box.m_lo, box.m_hi, alpha)
                assert bound <= optimum + tol

    def test_vertex_total_at_or_below_the_search(self):
        # the certified vertex is no worse than the point the search alone finds
        data = gen_toy_classification(2000, seed=3)
        box = BoxConstraints.symmetric(2)
        comp = best_in_hindsight(data, HINGE, box, restarts=2, iters=400)
        starts = [np.zeros(2), np.clip(np.linalg.lstsq(data.features, data.targets,
                                                       rcond=None)[0], -20.0, 20.0)]

        def value_and_grad(theta):
            return mean_loss_and_grad(HINGE, theta, data.features, data.targets)

        # a certify that never finds a point or a bound: the search alone
        theta, _, _ = evaluation._pgd_minimize(
            value_and_grad, lambda t: np.clip(t, -20.0, 20.0), starts, 400,
            0.5 * float(np.linalg.norm(box.m_hi - box.m_lo)),
            lambda theta: (None, np.inf, -np.inf))
        searched = float(np.sum(point_loss_series(HINGE, theta, data.features, data.targets)))
        assert comp.diagnostics["method"] == "certified"
        assert comp.cumulative_loss_star <= searched

    @pytest.mark.parametrize("loss, source", [("hinge", "source = toy\nn = 300"),
                                              ("squared-linear", "source = iid_regression\n"
                                               "theta_star = 1,-0.5\nn = 300")])
    def test_run_twice_byte_identical_comparator_csv(self, tmp_path, loss, source):
        from onlinevi.cli import main
        config = tmp_path / "exp.ini"
        config.write_text(f"[run]\nseed = 3\n\n[dataset]\n{source}\nloss = {loss}\n\n"
                          "[algorithm.oga]\n", encoding="utf-8")
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        first, second = ((out / "comparator.csv").read_bytes() for out in outs)
        assert first == second
        header, row = first.decode().splitlines()
        assert header.startswith("total_loss,avg_loss,method,lower_bound,theta_0")
        assert row.split(",")[2] == "certified"


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

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_a_column_of_negative_zeros_sums_as_numpy_does(self, length):
        # the sum starts from 0.0, as numpy's does: a column of -0.0 has the
        # mean 0.0, whatever the blocks
        preds = np.zeros((5, 3))
        preds[:, 1] = -0.0
        preds[:, 2] = np.arange(5.0)
        mean = evaluation.DecisionMean()
        for start in range(0, 5, length):
            mean.take(start, preds[start:start + length])
        assert mean.theta_bar().tobytes() == preds.mean(axis=0).tobytes()
        assert not np.signbit(mean.theta_bar()[1])
        assert online_to_batch(preds).tobytes() == mean.theta_bar().tobytes()

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


def _tiled_mean(kind, preds, x, y):
    """The mean loss of the (T, d) decisions on each holdout row, from the
    row sums of their tiled (H, T) loss matrix."""
    row_sums = np.zeros(len(y))
    evaluation._add_loss_row_sums(kind, preds, x, y, row_sums)
    return row_sums / len(preds)


def _allowance(preds, x, y):
    """``_jensen_allowance`` of the (T, d) decisions."""
    return evaluation._jensen_allowance(np.max(np.abs(preds), axis=0), len(preds), x, y)


class TestJensenAudit:
    def test_holds_on_random_runs(self):
        preds = CounterRng(33, "jh").normals(60).reshape(20, 3)
        holdout = gen_iid_regression(50, np.array([1.0, 0.0, -1.0]), 0.3, seed=3)
        assert jensen_holdout_audit(preds, holdout, SQL)

    @staticmethod
    def _cases():
        """(kind, (T, d) predictions, holdout) on regression and on
        classification, plus a tie: every prediction the same point."""
        preds = CounterRng(34, "jh-blocks").normals(1200).reshape(400, 3)
        regression = gen_iid_regression(301, np.array([1.0, 0.0, -1.0]), 0.3, seed=4)
        signs = np.where(CounterRng(35, "jh-labels").uniforms(301) < 0.5, -1.0, 1.0)
        classification = Dataset(regression.features, signs, CLASSIFICATION, "signs")
        tie = np.tile(preds[:1], (400, 1))
        return [(SQL, preds, regression), (HINGE, preds, classification),
                (SQL, tie, regression), (HINGE, tie, classification)]

    @pytest.mark.parametrize("block_values, blocks", [
        (1, 150), (12000, 11), (40000, 4), (400 * 301, 1), (2 ** 20, 1),
        # the module's own block size, unpatched
        pytest.param(None, 4, id="default-4")])
    def test_row_means_bitwise_equal_to_one_matrix(self, monkeypatch, block_values, blocks):
        if block_values is not None:
            monkeypatch.setattr(evaluation, "_AUDIT_BLOCK_VALUES", block_values)
        calls = []
        monkeypatch.setattr(evaluation, "expert_loss_matrix",
                            lambda *args: calls.append(args) or expert_loss_matrix(*args))
        for kind, preds, holdout in self._cases():
            x, y = holdout.features, holdout.targets
            # the oracle: one (H, T) matrix
            oracle = expert_loss_matrix(kind, preds, x, y).mean(axis=1)
            calls.clear()
            blocked = _tiled_mean(kind, preds, x, y)
            assert len(calls) == blocks
            assert min(len(args[2]) for args in calls) >= 2
            assert np.array_equal(blocked, oracle)
            at_bar = point_loss_series(kind, preds.mean(axis=0), x, y)
            allowance = _allowance(preds, x, y)
            assert jensen_holdout_audit(preds, holdout, kind) == \
                bool(np.all(at_bar <= oracle + allowance))

    def test_every_block_is_computed_in_one_tile(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "expert_loss_matrix",
                            lambda *args: calls.append(args) or expert_loss_matrix(*args))
        kind, preds, holdout = self._cases()[0]
        _tiled_mean(kind, preds, holdout.features, holdout.targets)
        tiles = [args[4] for args in calls]
        assert len(tiles) == 4
        assert all(tile.base is tiles[0].base and tile.flags.c_contiguous for tile in tiles)
        assert tiles[0].base.size <= max(evaluation._AUDIT_BLOCK_VALUES, 2 * preds.shape[0])

    def test_every_case_holds_ties_included(self):
        for kind, preds, holdout in self._cases():
            assert jensen_holdout_audit(preds, holdout, kind), kind.kind

    @pytest.mark.parametrize("multiple, holds", [(0.5, True), (2.0, False)])
    def test_gap_beyond_the_allowance_fails(self, monkeypatch, multiple, holds):
        # the comparison itself: the loss at theta_bar raised on one row by a
        # multiple of that row's allowance over the averaged side
        for kind, preds, holdout in self._cases()[2:]:
            x, y = holdout.features, holdout.targets
            averaged = _tiled_mean(kind, preds, x, y)
            excess = averaged + multiple * _allowance(preds, x, y)
            monkeypatch.setattr(evaluation, "point_loss_series",
                                lambda *args: np.where(np.arange(len(y)) == 5, excess,
                                                       point_loss_series(*args)))
            assert jensen_holdout_audit(preds, holdout, kind) == holds

    def test_squared_linear_builds_no_loss_matrix(self, monkeypatch):
        # squared-linear's averaged side comes from the decisions' moments;
        # hinge, which has no such identity, keeps the tiled matrix
        calls = []
        monkeypatch.setattr(evaluation, "expert_loss_matrix",
                            lambda *args: calls.append(args) or expert_loss_matrix(*args))
        for kind, preds, holdout in self._cases():
            calls.clear()
            assert jensen_holdout_audit(preds, holdout, kind)
            assert (len(calls) > 0) == (kind is HINGE), kind.kind

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(t=st.integers(1, 400), h=st.integers(2, 300), d=st.integers(1, 6),
           scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6]), tie=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(t=1, h=2, d=1, scale=1.0, tie=False, seed=0)
    @example(t=400, h=300, d=6, scale=1e6, tie=True, seed=1)
    @example(t=400, h=300, d=6, scale=1e6, tie=False, seed=2)
    def test_squared_linear_moments_agree_with_the_tiled_matrix(self, t, h, d, scale, tie,
                                                                 seed):
        # the tiled (H, T) matrix is the oracle: the audit's boolean is the
        # one the matrix gives, and the two averaged sides differ by less
        # than the allowance, which bounds the rounding of either
        preds = scale * CounterRng(seed, "jh-moments").normals(t * d).reshape(t, d)
        if tie:
            preds = np.tile(preds[:1], (t, 1))
        holdout = gen_iid_regression(h, np.linspace(-1.0, 1.0, d), 0.3, seed=seed)
        x, y = holdout.features, holdout.targets
        theta_bar = preds.mean(axis=0)
        tiled = _tiled_mean(SQL, preds, x, y)
        audit = evaluation.JensenAudit(SQL, holdout)
        audit.take(0, preds)
        moments = audit.averaged()
        allowance = _allowance(preds, x, y)
        at_bar = point_loss_series(SQL, theta_bar, x, y)
        assert jensen_holdout_audit(preds, holdout, SQL) == \
            bool(np.all(at_bar <= tiled + allowance))
        assert np.all(np.abs(moments - tiled) <= allowance)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kind_name=st.sampled_from(["hinge", "squared_linear"]), t=st.integers(1, 300),
           h=st.integers(2, 120), d=st.integers(1, 5),
           scale=st.sampled_from([1e-150, 1e-8, 1.0, 1e8, 1e150]),
           shape=st.sampled_from(["spread", "tie", "near-constant"]),
           length=st.sampled_from(["1", "2", "7", "T-1", "T"]), seed=st.integers(0, 2 ** 16))
    @example(kind_name="squared_linear", t=300, h=120, d=5, scale=1e150, shape="near-constant",
             length="7", seed=1)
    @example(kind_name="hinge", t=300, h=120, d=5, scale=1e-150, shape="tie", length="2", seed=2)
    def test_the_streamed_audit_is_the_two_pass_audit(self, kind_name, t, h, d, scale, shape,
                                                      length, seed):
        # the audit handed the decisions in blocks against two passes over
        # the (T, d) array: theta_bar, then the (H, T) loss matrix; Jensen's
        # inequality holds on both within the allowance, and the two
        # averaged sides differ by less than it
        kind = HINGE if kind_name == "hinge" else SQL
        rng = CounterRng(seed, "jh-stream")
        preds = scale * rng.normals(t * d).reshape(t, d)
        if shape == "tie":
            preds = np.tile(preds[:1], (t, 1))
        elif shape == "near-constant":
            preds = preds[:1] * (1.0 + 1e-12 * rng.normals(t * d).reshape(t, d))
        holdout = gen_iid_regression(h, np.linspace(-1.0, 1.0, d), 0.3, seed=seed)
        if kind is HINGE:
            signs = np.where(rng.uniforms(h) < 0.5, -1.0, 1.0)
            holdout = Dataset(holdout.features, signs, CLASSIFICATION, "signs")
        x, y = holdout.features, holdout.targets
        theta_bar = preds.mean(axis=0)
        averaged = expert_loss_matrix(kind, preds, x, y).mean(axis=1)
        allowance = _allowance(preds, x, y)
        two_pass = bool(np.all(point_loss_series(kind, theta_bar, x, y) <= averaged + allowance))
        n = {"1": 1, "2": 2, "7": 7, "T-1": max(1, t - 1), "T": t}[length]
        audit = evaluation.JensenAudit(kind, holdout)
        for start in range(0, t, n):
            audit.take(start, preds[start:start + n])
        assert audit.holds() == two_pass and two_pass
        assert np.all(np.abs(audit.averaged() - averaged) <= allowance)
        whole = evaluation.DecisionMean()
        whole.take(0, preds)
        assert audit.count == t
        assert audit.theta_bar().tobytes() == whole.theta_bar().tobytes()
        assert audit.reach.tobytes() == np.max(np.abs(preds), axis=0).tobytes()
        if d >= 2:
            assert audit.theta_bar().tobytes() == theta_bar.tobytes()


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
