"""Acceptance criteria.

Each test prints one ``[criterion N] PASS/FAIL`` line and asserts at the
stated tolerance.  Deterministic bound inequalities (criteria 3, 4, 5) are
strict mathematical checks; criterion 6 is informational by design;
criterion 7 is statistical with a 3-standard-error band.

Pinned choices (documented here, not tuned per run): toy stream seed 0;
run seed 0; NGVI alpha = 0.02 (the shipped default); the "41-expert grid
over [-20, 20]" is the diagonal lattice a_k * (1, 1); the trend check for
criterion 8 is a net relative increase of at most 1% over the last 10% of
steps.
"""

import time

import numpy as np
import pytest
from conftest import fd_expected_grad, golden_section, rel_vec_error

from onlinevi.cli import main, sample_gradcheck_instance
from onlinevi.data import gen_iid_regression, gen_toy_classification
from onlinevi.evaluation import (
    BoundInputs,
    alpha_estimate,
    best_in_hindsight,
    build_ledger,
    ewa_bound,
    generalization_estimate,
    jensen_holdout_audit,
    ogael_bound,
    online_to_batch,
    sva_bound,
    svb_bounds,
)
from onlinevi.family import (
    SIGMA_FLOOR,
    BoxConstraints,
    GaussianPrior,
    MeanFieldGaussian,
    kl_divergence,
    natural_to_standard,
)
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
    run_online,
    sva_step,
    svb_step,
)
from onlinevi.losses import (
    LossKind,
    expected_grad_xy,
    expected_loss_grad,
    expected_loss_series,
    lipschitz_constant,
)
from onlinevi.rng import CounterRng

HINGE = LossKind.hinge()
SQL = LossKind.squared_linear()
BOX2 = BoxConstraints.symmetric(2)
PRIOR2 = GaussianPrior(1.0, 2)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def toy10k():
    return gen_toy_classification(10000, seed=0)


@pytest.fixture(scope="module")
def toy10k_comparator(toy10k):
    return best_in_hindsight(toy10k, HINGE, BOX2, restarts=20, iters=2000, seed=0)


@pytest.fixture(scope="module")
def paper_schedule_runs(toy10k):
    """The five experiment algorithms with the shipped default schedules."""
    t_len = toy10k.T
    eta = 1.0 / np.sqrt(t_len)
    configs = {
        "sva": SvaConfig(eta=eta, prior=PRIOR2, box=BOX2),
        "svb": SvbConfig(schedule=InvSigmaSqrtT(), prior=PRIOR2, box=BOX2),
        "ngvi": NgviConfig(eta=1.0, alpha=0.02, prior=PRIOR2, box=BOX2),
        "oga": OgaConfig(eta=eta, box=BOX2),
        "ogael": OgaElConfig(eta=eta, prior=PRIOR2, box=BOX2),
    }
    return {name: build_ledger(run_online(cfg, toy10k, HINGE, seed=0).losses)
            for name, cfg in configs.items()}


class TestCriterion01GradientSuite:
    def test_analytic_gradients_match_finite_differences(self):
        start = time.perf_counter()
        worst = {}
        for kind in (HINGE, SQL):
            rng = CounterRng(101, f"acceptance-c1-{kind.kind}")
            errs = []
            for _ in range(100):
                q, ex = sample_gradcheck_instance(kind, rng)
                grad = expected_loss_grad(kind, q, ex)
                analytic = np.concatenate([grad.g_m, grad.g_sigma])
                oracle = fd_expected_grad(kind, q, ex, step=1e-5)
                errs.append(rel_vec_error(analytic, oracle))
            worst[kind.kind] = max(errs)
        elapsed = time.perf_counter() - start
        ok = all(err <= 1e-5 for err in worst.values()) and elapsed < 10.0
        _report(1, ok, f"max rel err {worst} over 100 instances/kind, "
                       f"{elapsed:.1f}s (< 10s)")
        assert worst["hinge"] <= 1e-5
        assert worst["squared_linear"] <= 1e-5
        assert elapsed < 10.0


class TestCriterion02UpdateEqualsArgmin:
    def test_sva_svb_closed_forms_minimize_objectives(self):
        start = time.perf_counter()
        rng = CounterRng(102, "acceptance-c2")
        worst_sva = worst_svb = 0.0
        for _ in range(200):
            eta = 0.05 + 0.95 * rng.uniforms(1)[0]
            s = 0.5 + 1.5 * rng.uniforms(1)[0]
            m_t = float(rng.normals(1)[0])
            sig_t = 0.3 + 1.7 * rng.uniforms(1)[0]
            g_m = float(rng.normals(1)[0])
            g_sig = float(rng.normals(1)[0])
            g_acc = float(rng.normals(1)[0])

            # SVA solves: sum_i mu.grad_i + KL(q_mu, prior)/eta
            cfg = SvaConfig(eta=eta, prior=GaussianPrior(s, 1))
            m, sigma, _ = sva_step(np.array([m_t]), np.array([g_acc]), np.array([g_m]),
                                   np.array([g_sig]), cfg)
            past_m_grad = -m_t / (eta * s * s)
            m_star = golden_section(
                lambda m: m * (past_m_grad + g_m) + m * m / (2 * eta * s * s),
                -100.0, 100.0)
            acc = g_acc + g_sig
            s_star = golden_section(
                lambda sig: sig * acc + (sig ** 2 / (2 * s * s) - np.log(sig)) / eta,
                1e-8, 100.0)
            worst_sva = max(worst_sva, abs(m[0] - m_star), abs(sigma[0] - s_star))

            # SVB solves: mu.grad_t + KL(q_mu, q_t)/eta
            cfg_b = SvbConfig(schedule=FixedEta(eta), prior=GaussianPrior(s, 1))
            m_b, sigma_b = svb_step(np.array([m_t]), np.array([sig_t]), np.array([g_m]),
                                    np.array([g_sig]), 1, cfg_b)
            m_star_b = golden_section(
                lambda m: m * g_m + (m - m_t) ** 2 / (2 * eta * sig_t ** 2),
                -100.0, 100.0)
            s_star_b = golden_section(
                lambda sig: sig * g_sig + (sig ** 2 / (2 * sig_t ** 2)
                                           - np.log(sig)) / eta,
                1e-8, 100.0)
            worst_svb = max(worst_svb, abs(m_b[0] - m_star_b), abs(sigma_b[0] - s_star_b))
        elapsed = time.perf_counter() - start
        ok = worst_sva <= 1e-4 and worst_svb <= 1e-4 and elapsed < 30.0
        _report(2, ok, f"max |closed-form - argmin|: sva {worst_sva:.2e}, "
                       f"svb {worst_svb:.2e} over 200 instances, {elapsed:.1f}s (< 30s)")
        assert worst_sva <= 1e-4
        assert worst_svb <= 1e-4
        assert elapsed < 30.0


class TestCriterion03Theorem1Deterministic:
    def test_grid_ewa_regret_below_bound(self):
        start = time.perf_counter()
        ds = gen_toy_classification(2000, seed=0)
        experts = diagonal_lattice(-20.0, 20.0, 41, 2)
        expert_losses = np.maximum(
            0.0, 1.0 - ds.targets[:, None] * (ds.features @ experts.T))
        b_max = float(expert_losses.max())
        t_len = ds.T
        eta = float(np.sqrt(8.0 * np.log(41.0) / (b_max ** 2 * t_len)))
        ledger = build_ledger(run_online(EwaGridConfig(eta=eta, experts=experts),
                                         ds, HINGE, seed=0).losses)
        best_expert = float(expert_losses.sum(axis=0).min())
        emp_regret = ledger.total - best_expert
        bound = ewa_bound(BoundInputs(T=t_len, eta=eta, B=b_max,
                                      kl_term=float(np.log(41.0))))
        elapsed = time.perf_counter() - start
        ok = emp_regret < bound and elapsed < 5.0
        _report(3, ok, f"regret {emp_regret:.2f} < bound {bound:.2f} "
                       f"(B={b_max:.2f}, eta={eta:.5f}), {elapsed:.1f}s (< 5s)")
        assert emp_regret < bound  # strict
        assert elapsed < 5.0


class TestCriterion04Theorem3Deterministic:
    def test_svb_schedule_meets_convex_bound(self, toy10k):
        start = time.perf_counter()
        lip = lipschitz_constant(HINGE, toy10k, BOX2)
        diam = BOX2.diameter()
        comparator = best_in_hindsight(toy10k, HINGE, BOX2, restarts=20,
                                       iters=2000, seed=0)
        cfg = SvbConfig(schedule=Thm3ConvexSchedule(D=diam, L=lip),
                        prior=PRIOR2, box=BOX2)
        ledger = build_ledger(run_online(cfg, toy10k, HINGE, seed=0).losses)
        bound, _ = svb_bounds(BoundInputs(T=toy10k.T, D=diam, L=lip))
        rhs = comparator.cumulative_loss_star + bound
        elapsed = time.perf_counter() - start
        ok = ledger.total <= rhs and elapsed < 20.0
        _report(4, ok, f"sum loss {ledger.total:.1f} <= hindsight "
                       f"{comparator.cumulative_loss_star:.1f} + DL*sqrt(2T) "
                       f"{bound:.1f} (D={diam:.2f}, L={lip:.2f}), "
                       f"{elapsed:.1f}s (< 20s)")
        assert ledger.total <= rhs
        assert elapsed < 20.0


class TestCriterion05Theorem4Deterministic:
    def test_ogael_meets_bound_on_probe_set(self):
        ds = gen_toy_classification(2000, seed=0)
        t_len = ds.T
        lip = lipschitz_constant(HINGE, ds, BOX2)
        mu1 = PRIOR2.gaussian().mu_vector()
        sigma_lo = np.maximum(BOX2.sigma_lo, SIGMA_FLOOR)
        # sup ||mu - mu_1|| over the box, coordinatewise corner maximum
        sup_m = np.maximum(np.abs(BOX2.m_lo), np.abs(BOX2.m_hi))
        sup_s = np.maximum(np.abs(sigma_lo - 1.0), np.abs(BOX2.sigma_hi - 1.0))
        dist = float(np.sqrt(np.sum(sup_m ** 2) + np.sum(sup_s ** 2)))
        eta = dist / (lip * np.sqrt(t_len))
        ledger = build_ledger(run_online(
            OgaElConfig(eta=eta, prior=PRIOR2, box=BOX2), ds, HINGE, seed=0).losses)
        rng = CounterRng(105, "acceptance-c5-probes")
        holds = True
        worst_ratio = -np.inf
        for _ in range(50):
            m = BOX2.m_lo + rng.uniforms(2) * (BOX2.m_hi - BOX2.m_lo)
            s = sigma_lo + rng.uniforms(2) * (BOX2.sigma_hi - sigma_lo)
            probe = MeanFieldGaussian(m, s)
            expected_total = float(np.sum(expected_loss_series(
                HINGE, probe, ds.features, ds.targets)))
            dist_sq = float(np.sum((probe.mu_vector() - mu1) ** 2))
            bound = ogael_bound(BoundInputs(T=t_len, eta=eta, L=lip,
                                            dist_sq=dist_sq))
            holds = holds and (ledger.total - expected_total <= bound)
            worst_ratio = max(worst_ratio, (ledger.total - expected_total) / bound)
        _report(5, holds, f"all 50 probes hold (worst slack ratio "
                          f"{worst_ratio:.3f}, eta={eta:.5f})")
        assert holds


class TestCriterion06Theorem2Informational:
    def test_sva_bound_reported_with_empirical_alpha(self, toy10k, toy10k_comparator,
                                                     paper_schedule_runs):
        t_len = toy10k.T
        eta = 1.0 / np.sqrt(t_len)
        lip = lipschitz_constant(HINGE, toy10k, BOX2)
        alpha = alpha_estimate(PRIOR2)
        q_star = MeanFieldGaussian(toy10k_comparator.theta_star, np.full(2, 0.01))
        kl = kl_divergence(q_star, PRIOR2.gaussian())
        expected_total = float(np.sum(expected_loss_series(
            HINGE, q_star, toy10k.features, toy10k.targets)))
        bound = sva_bound(BoundInputs(T=t_len, eta=eta, L=lip,
                                      alpha=alpha, kl_term=kl))
        emp = paper_schedule_runs["sva"].total - expected_total
        slack_ratio = emp / bound
        violated = emp > bound
        detail = (f"empirical {emp:.1f} vs bound {bound:.1f}, slack ratio "
                  f"{slack_ratio:.4f}, alpha={alpha:.4f} (1/prior_s^2)")
        if violated:
            detail += " [FLAGGED: bound violated]"
        # informational: the criterion requires only that the check runs and
        # logs its slack ratio; a violation is flagged, not failed
        ran = np.isfinite(bound) and np.isfinite(emp) and alpha == 1.0 / PRIOR2.s ** 2
        _report(6, ran, detail)
        assert ran


class TestCriterion07Theorem5Statistical:
    def test_online_to_batch_risk_and_jensen(self):
        theta_star = np.array([1.0, -2.0, 3.0, 0.5, -1.0])
        box = BoxConstraints.symmetric(5)
        t_len = 2000
        risks, avgs = [], []
        jensen_all = True
        for seed in range(50):
            ds = gen_iid_regression(t_len, theta_star, 0.5, seed=seed)
            holdout = gen_iid_regression(1000, theta_star, 0.5, seed=10_000 + seed)
            trace = run_online(OgaConfig(eta=1.0 / np.sqrt(t_len), box=box),
                               ds, SQL, seed=seed)
            ledger = build_ledger(trace.losses)
            theta_bar = online_to_batch(trace.predictions)
            mean, _ = generalization_estimate(theta_bar, holdout, SQL)
            risks.append(mean)
            avgs.append(ledger.final_average)
            jensen_all = jensen_all and jensen_holdout_audit(trace.predictions,
                                                             holdout, SQL)
        risks, avgs = np.array(risks), np.array(avgs)
        se_combined = float(np.sqrt(risks.std(ddof=1) ** 2 / 50
                                    + avgs.std(ddof=1) ** 2 / 50))
        stat_ok = risks.mean() <= avgs.mean() + 3.0 * se_combined
        ok = stat_ok and jensen_all
        _report(7, ok, f"mean holdout risk {risks.mean():.4f} <= mean avg loss "
                       f"{avgs.mean():.4f} + 3se {3 * se_combined:.4f}; "
                       f"per-seed Jensen holds on all 50 seeds: {jensen_all}")
        assert stat_ok
        assert jensen_all


class TestCriterion08QualitativeReproduction:
    def test_all_algorithms_near_comparator_with_settled_series(
            self, toy10k, toy10k_comparator, paper_schedule_runs):
        comp_avg = toy10k_comparator.average_loss_star
        t_len = toy10k.T
        window = t_len // 10
        failures = []
        details = []
        plateau_steps = {}
        for name, ledger in paper_schedule_runs.items():
            finite = bool(np.all(np.isfinite(ledger.averages)))
            rel_gap = abs(ledger.final_average - comp_avg) / comp_avg
            tail = ledger.averages[-window:]
            net_drift = (tail[-1] - tail[0]) / tail[0]
            trend_ok = net_drift <= 0.01  # pinned trend tolerance: <= 1% net rise
            above = np.nonzero(ledger.averages > 1.1 * ledger.final_average)[0]
            plateau_steps[name] = int(above[-1]) + 2 if above.size else 1
            if not (finite and rel_gap <= 0.20 and trend_ok):
                failures.append(name)
            details.append(f"{name}: gap {rel_gap:+.1%}, drift {net_drift:+.1e}")
        fastest = min(plateau_steps, key=plateau_steps.get)
        ngvi_note = (f"fastest to plateau: {fastest} "
                     f"(steps {plateau_steps}) [reported, not asserted]")
        ok = not failures
        _report(8, ok, "; ".join(details) + f"; comparator {comp_avg:.4f}; "
                + ngvi_note)
        assert not failures, f"outside 20% band or rising trend: {failures}"


class TestCriterion09NgviRecursionUnrolled:
    def test_recursion_matches_geometric_sum_everywhere(self):
        ds = gen_toy_classification(500, seed=0)
        cfg = NgviConfig(eta=1.0, alpha=1.0, prior=PRIOR2, box=BOX2)
        beta = 1.0 / (1.0 / cfg.alpha + 1.0 / cfg.eta)
        lam_prior = cfg.prior.natural()
        lam1_0, lam2_0 = lam_prior.lambda1, lam_prior.lambda2
        m, sigma = np.zeros(2), np.full(2, PRIOR2.s)
        lam = (lam1_0, lam2_0)
        grads = []
        worst = 0.0
        for step, (x, y) in enumerate(zip(ds.features, ds.targets.tolist()), start=1):
            g_mu = expectation_grad(*expected_grad_xy(HINGE, m, sigma, x, y), m, sigma)
            grads.append(g_mu)
            lam = ngvi_step(lam, *g_mu, lam_prior, step, cfg)[:2]
            m, sigma = natural_to_standard(*lam)
            t = len(grads)
            weights = beta * (1.0 - beta) ** (t - np.arange(1, t + 1))
            unrolled1 = lam1_0 - cfg.eta * np.sum(
                weights[:, None] * np.stack([g[0] for g in grads]), axis=0)
            unrolled2 = lam2_0 - cfg.eta * np.sum(
                weights[:, None] * np.stack([g[1] for g in grads]), axis=0)
            for got, want in ((lam[0], unrolled1), (lam[1], unrolled2)):
                worst = max(worst, float(np.max(
                    np.abs(got - want) / np.maximum(np.abs(want), 1e-12))))
        ok = worst <= 1e-10
        _report(9, ok, f"max relative deviation over 500 steps: {worst:.2e} "
                       f"(tol 1e-10)")
        assert worst <= 1e-10


CRITERION10_CONFIG = """
[run]
seed = 3
comparator_restarts = 5
comparator_iters = 400

[dataset]
source = toy
n = 800
loss = hinge

[algorithm.sva]
eta = auto

[algorithm.svb]
schedule = inv_sigma_sqrt_t

[algorithm.ngvi]
eta = 1
alpha = 0.02

[algorithm.oga]
eta = auto

[algorithm.ogael]
eta = auto

[algorithm.ewagrid]
experts = diagonal:41
"""


class TestCriterion10Determinism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(CRITERION10_CONFIG, encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        names = ["sva", "svb", "ngvi", "oga", "ogael", "ewagrid", "comparator"]
        identical = all((out_a / f"{n}.csv").read_bytes()
                        == (out_b / f"{n}.csv").read_bytes() for n in names)
        _report(10, identical, f"{len(names)} CSV artifacts byte-identical "
                               f"across reruns")
        assert identical
