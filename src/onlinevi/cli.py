"""Command-line harness: run experiments, emit loss series and summaries,
check gradients and theoretical bounds.

Verbs:

    onlinevi run       --config exp.ini --out results/
    onlinevi gen-toy   --n 10000 --seed 1 --out toy.csv
    onlinevi gradcheck --loss hinge --trials 100 --tol 1e-5 --seed 0
    onlinevi bounds    --run results/ --theorem all

Exit codes: 0 success, 1 check failure, 2 configuration error, 3 runtime
error.  No command reads entropy, clocks, or the environment for anything
that affects numeric outputs; series files are byte-stable across reruns.

The config file is line-oriented ``key = value`` INI with one
``[algorithm.<name>]`` section per learner; see the README for the full
grammar and defaults (the shipped defaults are the experiments' settings:
eta = 1/sqrt(T) for oga/ogael/sva, eta_t = 1/(sigma_t^2 sqrt(t)) for svb,
eta = 1 for ngvi, means 0 and variances 1 at initialization).
"""

from __future__ import annotations

import argparse
import configparser
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import ConfigError, DataError, DomainError, InvalidPrecisionError, OnlineViError
from .evaluation import (
    BoundInputs,
    ComparatorResult,
    alpha_estimate,
    best_in_hindsight,
    build_ledger,
    ewa_bound,
    generalization_estimate,
    jensen_holdout_audit,
    ogael_bound,
    online_to_batch,
    regret,
    sva_bound,
    svb_bounds,
)
from .family import SIGMA_FLOOR, BoxConstraints, GaussianPrior, MeanFieldGaussian, kl_divergence
from .learners import (
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
    algorithm_tag,
    diagonal_lattice,
    product_lattice,
    run_online,
)
from .losses import (
    DataExample,
    LossKind,
    expected_loss,
    expected_loss_grad,
    expected_loss_series,
    expert_loss_matrix,
    lipschitz_constant,
    point_loss_many,
)
from .losses import _point_grad_many  # package-internal MC plumbing
from .losses import point_loss_series  # noqa: F401  (a name the benchmark's tracer wraps)
from .rng import CounterRng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_LOSS_NAMES = {
    "hinge": LossKind.hinge,
    "squared-linear": LossKind.squared_linear,
    "squared_linear": LossKind.squared_linear,
}


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for binary64."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class AlgoSpec:
    name: str
    tag: str
    options: dict


@dataclass
class ExperimentConfig:
    seed: int
    horizon: int | None
    mc_samples: int
    holdout_fraction: float
    prior_s: float
    box_m_abs: float
    box_sigma_hi: float
    box_sigma_lo: float
    comparator_restarts: int
    comparator_iters: int
    dataset: dict
    algorithms: list[AlgoSpec] = field(default_factory=list)


def _get(section, key, default=None):
    if key in section:
        return section[key].strip()
    return default


def _get_bool(section, key, default: bool) -> bool:
    raw = _get(section, key)
    if raw is None:
        return default
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def load_experiment(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "run" not in parser or "dataset" not in parser:
        raise ConfigError("config needs [run] and [dataset] sections")
    run = parser["run"]
    if "seed" not in run:
        raise ConfigError("[run] seed is required (no entropy from the environment)")
    try:
        seed = int(run["seed"])
        horizon = int(run["horizon"]) if "horizon" in run else None
        mc_samples = int(_get(run, "mc_samples", "32"))
        holdout_fraction = float(_get(run, "holdout_fraction", "0"))
        prior_s = float(_get(run, "prior_s", "1"))
        box_m_abs = float(_get(run, "box_m_abs", "20"))
        box_sigma_hi = float(_get(run, "box_sigma_hi", "1"))
        box_sigma_lo = float(_get(run, "box_sigma_lo", "0"))
        comparator_restarts = int(_get(run, "comparator_restarts", "20"))
        comparator_iters = int(_get(run, "comparator_iters", "2000"))
    except ValueError as exc:
        raise ConfigError(f"[run]: {exc}") from None
    if horizon is not None and horizon <= 0:
        raise ConfigError("horizon must be a positive step count")
    if mc_samples < 1:
        raise ConfigError("mc_samples must be >= 1")
    if not (0.0 <= holdout_fraction < 1.0):
        raise ConfigError("holdout_fraction must be in [0, 1)")

    dataset = dict(parser["dataset"])
    algorithms = []
    for section in parser.sections():
        if not section.startswith("algorithm."):
            continue
        name = section[len("algorithm."):]
        options = dict(parser[section])
        tag = options.pop("algo", name).strip().lower()
        if tag not in ("sva", "svb", "ngvi", "oga", "ogael", "ewagrid"):
            raise ConfigError(f"[{section}]: unknown algorithm tag {tag!r}")
        algorithms.append(AlgoSpec(name=name, tag=tag, options=options))
    if not algorithms:
        raise ConfigError("at least one [algorithm.<name>] section is required")
    return ExperimentConfig(
        seed=seed, horizon=horizon, mc_samples=mc_samples,
        holdout_fraction=holdout_fraction, prior_s=prior_s,
        box_m_abs=box_m_abs, box_sigma_hi=box_sigma_hi, box_sigma_lo=box_sigma_lo,
        comparator_restarts=comparator_restarts, comparator_iters=comparator_iters,
        dataset=dataset, algorithms=algorithms)


def _loss_kind(dataset: dict) -> LossKind:
    raw = dataset.get("loss", "").strip().lower()
    if raw in _LOSS_NAMES:
        return _LOSS_NAMES[raw]()
    if raw in ("squared-nn", "squared_nn"):
        width = int(dataset.get("hidden_width", "16"))
        return LossKind.squared_nn(width)
    raise ConfigError(f"[dataset] loss must be hinge, squared-linear or squared-nn, got {raw!r}")


def _load_dataset(cfg: ExperimentConfig) -> data_mod.Dataset:
    ds_cfg = cfg.dataset
    source = ds_cfg.get("source", "").strip().lower()
    data_seed = int(ds_cfg.get("data_seed", cfg.seed))
    if source == "toy":
        n = int(ds_cfg.get("n", "10000"))
        ds = data_mod.gen_toy_classification(n, data_seed)
    elif source in ("iid_regression", "iid-regression"):
        theta_star = [float(v) for v in ds_cfg.get("theta_star", "1").split(",")]
        noise_sd = float(ds_cfg.get("noise_sd", "0.5"))
        n = int(ds_cfg.get("n", "2000"))
        ds = data_mod.gen_iid_regression(n, theta_star, noise_sd, data_seed)
    elif source == "csv":
        if "path" not in ds_cfg:
            raise ConfigError("[dataset] csv source needs path")
        label_raw = ds_cfg.get("label", "")
        if not label_raw:
            raise ConfigError("[dataset] csv source needs label (name or #index)")
        label = int(label_raw[1:]) if label_raw.startswith("#") else label_raw
        schema = data_mod.CsvSchema(
            label=label,
            positive_label=ds_cfg.get("positive_label") or None,
            delimiter=ds_cfg.get("delimiter", ","),
            has_header=_get_bool(ds_cfg, "has_header", True),
        )
        ds = data_mod.load_csv(ds_cfg["path"], schema, name=ds_cfg.get("name"))
    else:
        raise ConfigError(f"[dataset] source must be toy, iid_regression or csv, got {source!r}")

    subsample_raw = ds_cfg.get("subsample", "").strip()
    subsample = int(subsample_raw) if subsample_raw else None
    if subsample is None and ds.T > data_mod.DEFAULT_SUBSAMPLE_CAP:
        # desk-scale policy: oversized datasets (Cover Type) run subsampled
        subsample = data_mod.DEFAULT_SUBSAMPLE_CAP
    stream_cfg = data_mod.StreamConfig(
        seed=data_seed,
        permute=_get_bool(ds_cfg, "permute", True),
        standardize=_get_bool(ds_cfg, "standardize", False),
        subsample=subsample,
    )
    return data_mod.prepare_stream(ds, stream_cfg)


@dataclass
class RunContext:
    """Everything a run (or a bounds recheck) derives from the config."""

    cfg: ExperimentConfig
    kind: LossKind
    stream: data_mod.Dataset
    holdout: data_mod.Dataset | None
    box: BoxConstraints
    prior: GaussianPrior
    resolved: list  # (AlgoSpec, LearnerConfig, meta dict)

    @property
    def horizon(self) -> int:
        return self.stream.T


def _positive(spec: AlgoSpec, key: str, default: str | None = None,
              allow_auto: bool = False) -> float | None:
    """The positive number under ``key`` in an ``[algorithm.<name>]``
    section; None for ``auto`` where that is allowed."""
    where = f"[algorithm.{spec.name}] {key}"
    raw = spec.options.get(key, default)
    if raw is None:
        raise ConfigError(f"{where} is required")
    raw = raw.strip().lower()
    if allow_auto and raw == "auto":
        return None
    try:
        value = float(raw)
    except ValueError:
        expected = "a positive number or auto" if allow_auto else "a positive number"
        raise ConfigError(f"{where}: expected {expected}, got {raw!r}") from None
    if not (np.isfinite(value) and value > 0.0):
        raise ConfigError(f"{where} must be positive and finite, got {raw!r}")
    return value


def _resolve_algorithm(spec: AlgoSpec, cfg: ExperimentConfig, kind: LossKind,
                       stream: data_mod.Dataset, box: BoxConstraints,
                       prior: GaussianPrior):
    opts = spec.options
    t_len = stream.T
    auto_eta = 1.0 / np.sqrt(t_len)

    def eta_value(default: float) -> float:
        eta = _positive(spec, "eta", "auto", allow_auto=True)
        return default if eta is None else eta

    meta: dict = {}
    if spec.tag == "sva":
        eta = eta_value(auto_eta)
        project = _get_bool(opts, "project", True)
        config = SvaConfig(eta=eta, prior=prior, box=box, project=project)
        meta["eta"] = eta
    elif spec.tag == "svb":
        name = opts.get("schedule", "inv_sigma_sqrt_t").strip().lower().replace("-", "_")
        if name == "inv_sigma_sqrt_t":
            schedule = InvSigmaSqrtT()
        elif name == "fixed":
            schedule = FixedEta(_positive(spec, "eta"))
        elif name == "thm3_convex":
            d_val = _positive(spec, "d", "auto", allow_auto=True)
            l_val = _positive(spec, "l", "auto", allow_auto=True)
            if d_val is None:
                d_val = box.diameter()
            if l_val is None:
                l_val = lipschitz_constant(kind, stream, box)
            schedule = Thm3ConvexSchedule(D=d_val, L=l_val)
            meta.update(D=d_val, L=l_val)
        elif name == "thm3_strong":
            schedule = Thm3StrongSchedule(H=_positive(spec, "h"))
        else:
            raise ConfigError(f"[algorithm.{spec.name}] unknown schedule {name!r}")
        config = SvbConfig(schedule=schedule, prior=prior, box=box)
        meta["schedule"] = schedule.describe()
    elif spec.tag == "ngvi":
        eta = _positive(spec, "eta", "1")
        # default mixing step matches the usual natural-gradient step sizes;
        # large alpha makes the iterate jitter at the per-example noise scale
        alpha = _positive(spec, "alpha", "0.02")
        config = NgviConfig(eta=eta, alpha=alpha, prior=prior, box=box)
        meta.update(eta=eta, alpha=alpha)
    elif spec.tag == "oga":
        eta = eta_value(auto_eta)
        config = OgaConfig(eta=eta, box=box)
        meta["eta"] = eta
    elif spec.tag == "ogael":
        eta = eta_value(auto_eta)
        config = OgaElConfig(eta=eta, prior=prior, box=box)
        meta["eta"] = eta
    elif spec.tag == "ewagrid":
        experts_raw = opts.get("experts", "diagonal:41").strip().lower()
        form, _, count = experts_raw.partition(":")
        count = count.strip() or ("41" if form == "diagonal" else "5")
        if form not in ("diagonal", "product") or not count.isdecimal() or int(count) < 1:
            raise ConfigError(f"[algorithm.{spec.name}] experts must be diagonal:<k> or "
                              f"product:<per-axis> with a count >= 1, got {experts_raw!r}")
        lattice = diagonal_lattice if form == "diagonal" else product_lattice
        experts = lattice(float(np.min(box.m_lo)), float(np.max(box.m_hi)), int(count), box.d)
        eta = _positive(spec, "eta", "auto", allow_auto=True)
        losses = expert_loss_matrix(kind, experts, stream.features, stream.targets)
        b_max = float(np.max(losses))
        meta["B"] = b_max
        if eta is None:
            k = experts.shape[0]
            eta = float(np.sqrt(8.0 * np.log(k) / (max(b_max, 1e-12) ** 2 * t_len)))
        config = EwaGridConfig(eta=eta, experts=experts)
        meta["eta"] = eta
        meta["experts"] = experts_raw
    else:  # pragma: no cover - tags validated at parse time
        raise ConfigError(f"unknown tag {spec.tag}")
    return spec, config, meta


def materialize(cfg: ExperimentConfig) -> RunContext:
    kind = _loss_kind(cfg.dataset)
    full = _load_dataset(cfg)
    if cfg.horizon is not None:
        full = full.head(cfg.horizon)
    holdout = None
    if cfg.holdout_fraction > 0.0:
        n_holdout = int(round(cfg.holdout_fraction * full.T))
        if n_holdout >= full.T or full.T - n_holdout < 1:
            raise ConfigError("holdout_fraction leaves no stream rows")
        if n_holdout > 0:
            stream = full.head(full.T - n_holdout)
            holdout = data_mod.Dataset(full.features[full.T - n_holdout:],
                                       full.targets[full.T - n_holdout:],
                                       full.task, full.name, note="holdout split")
        else:
            stream = full
    else:
        stream = full
    d_param = kind.param_dim(stream.d)
    box = BoxConstraints.symmetric(d_param, cfg.box_m_abs, cfg.box_sigma_hi,
                                   cfg.box_sigma_lo)
    prior = GaussianPrior(cfg.prior_s, d_param)
    resolved = [_resolve_algorithm(spec, cfg, kind, stream, box, prior)
                for spec in cfg.algorithms]
    return RunContext(cfg=cfg, kind=kind, stream=stream, holdout=holdout,
                      box=box, prior=prior, resolved=resolved)


# ---------------------------------------------------------------------------
# bound checking shared by `run` and `bounds`


def _point_mass_comparator(theta_star: np.ndarray, box: BoxConstraints) -> MeanFieldGaussian:
    """Near-point-mass comparator q = N(theta*, 0.01^2 I): the tightest
    interpretable distributional comparator with finite KL."""
    sigma = np.full(theta_star.size, 0.01)
    sigma = np.clip(sigma, np.maximum(box.sigma_lo, SIGMA_FLOOR), box.sigma_hi)
    return MeanFieldGaussian(theta_star, sigma)


def bound_records(ctx: RunContext, totals: dict, comparator, theorem: str = "all") -> list[dict]:
    """One record per (algorithm, applicable theorem).

    Theorems 1, 3 and 4 are deterministic inequalities; Theorem 2 uses the
    empirical strong-convexity estimate and is informational only.
    """
    want = lambda n: theorem in ("all", str(n))
    records = []
    t_len = ctx.horizon
    lipschitz = None
    if ctx.kind.convex:
        lipschitz = lipschitz_constant(ctx.kind, ctx.stream, ctx.box)

    for spec, config, meta in ctx.resolved:
        if spec.name not in totals:
            continue
        total = totals[spec.name]
        tag = algorithm_tag(config)

        if tag == "ewagrid" and want(1) and ctx.kind.convex:
            # the grid bound's Jensen step at the prediction needs convexity
            losses = expert_loss_matrix(ctx.kind, config.experts, ctx.stream.features,
                                        ctx.stream.targets)
            best_expert = float(np.min(losses.sum(axis=0)))
            b_max = float(np.max(losses))
            kl = float(np.log(config.experts.shape[0]))
            bound = ewa_bound(BoundInputs(T=t_len, eta=config.eta, B=b_max, kl_term=kl))
            emp = total - best_expert
            records.append({
                "theorem": 1, "algorithm": spec.name, "empirical_regret": emp,
                "bound": bound, "slack_ratio": emp / bound, "holds": emp <= bound,
                "deterministic": True,
                "notes": f"vs best of {config.experts.shape[0]} experts, B={b_max:.6g}",
            })

        if tag == "sva" and want(2) and ctx.kind.convex and comparator is not None:
            sigma_lo = np.maximum(ctx.box.sigma_lo, 0.01)
            alpha_box = BoxConstraints(ctx.box.m_lo, ctx.box.m_hi, sigma_lo,
                                       np.maximum(ctx.box.sigma_hi, sigma_lo))
            alpha_hat = alpha_estimate(ctx.prior, alpha_box, resolution=11)
            q_star = _point_mass_comparator(comparator.theta_star, ctx.box)
            kl = kl_divergence(q_star, ctx.prior.gaussian())
            expected_total = float(np.sum(expected_loss_series(
                ctx.kind, q_star, ctx.stream.features, ctx.stream.targets)))
            bound = sva_bound(BoundInputs(T=t_len, eta=config.eta, L=lipschitz,
                                          alpha=alpha_hat.value, kl_term=kl))
            emp = total - expected_total
            records.append({
                "theorem": 2, "algorithm": spec.name, "empirical_regret": emp,
                "bound": bound, "slack_ratio": emp / bound, "holds": emp <= bound,
                "deterministic": False,
                "notes": (f"informational: alpha_hat={alpha_hat.value:.6g} "
                          f"({alpha_hat.flag}), comparator sigma=0.01"),
            })

        if tag == "svb" and want(3) and isinstance(config.schedule, Thm3ConvexSchedule) \
                and comparator is not None:
            bound, _ = svb_bounds(BoundInputs(T=t_len, D=config.schedule.D,
                                              L=config.schedule.L))
            emp = total - comparator.cumulative_loss_star
            records.append({
                "theorem": 3, "algorithm": spec.name, "empirical_regret": emp,
                "bound": bound, "slack_ratio": emp / bound, "holds": emp <= bound,
                "deterministic": True,
                "notes": f"D={config.schedule.D:.6g}, L={config.schedule.L:.6g}",
            })

        if tag == "ogael" and want(4) and ctx.kind.convex:
            probes = _theorem4_probes(ctx, 50)
            mu1 = ctx.prior.gaussian().mu_vector()
            worst_ratio = -np.inf
            worst_bound = None
            holds = True
            for q in probes:
                expected_total = float(np.sum(expected_loss_series(
                    ctx.kind, q, ctx.stream.features, ctx.stream.targets)))
                dist_sq = float(np.sum((q.mu_vector() - mu1) ** 2))
                bound = ogael_bound(BoundInputs(T=t_len, eta=config.eta, L=lipschitz,
                                                dist_sq=dist_sq))
                ratio = (total - expected_total) / bound
                if ratio > worst_ratio:
                    worst_ratio, worst_bound = ratio, bound
                holds = holds and (total - expected_total <= bound)
            records.append({
                "theorem": 4, "algorithm": spec.name, "empirical_regret": None,
                "bound": worst_bound, "slack_ratio": worst_ratio, "holds": holds,
                "deterministic": True,
                "notes": f"worst of {len(probes)} box probes",
            })
    return records


def _theorem4_probes(ctx: RunContext, count: int) -> list[MeanFieldGaussian]:
    rng = CounterRng(ctx.cfg.seed, "thm4-probes")
    sigma_lo = np.maximum(ctx.box.sigma_lo, SIGMA_FLOOR)
    probes = []
    for _ in range(count):
        u_m = rng.uniforms(ctx.box.d)
        u_s = rng.uniforms(ctx.box.d)
        m = ctx.box.m_lo + u_m * (ctx.box.m_hi - ctx.box.m_lo)
        sigma = sigma_lo + u_s * (ctx.box.sigma_hi - sigma_lo)
        probes.append(MeanFieldGaussian(m, sigma))
    return probes


# ---------------------------------------------------------------------------
# commands


def _ms_since(start: float) -> float:
    return round((time.perf_counter() - start) * 1000.0, 3)


def cmd_run(config_path: str, out_dir: str) -> int:
    start = time.perf_counter()
    cfg = load_experiment(config_path)
    ctx = materialize(cfg)
    # wall time per phase, in ms; "write" covers comparator.csv and the series CSVs
    phases = {"load": _ms_since(start), "learners": {}, "write": 0.0}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    comparator = best_in_hindsight(
        ctx.stream, ctx.kind, ctx.box,
        restarts=cfg.comparator_restarts, iters=cfg.comparator_iters, seed=cfg.seed)
    phases["comparator"] = _ms_since(start)
    start = time.perf_counter()
    _write_comparator_csv(out / "comparator.csv", comparator, ctx.horizon)
    phases["write"] = round(phases["write"] + _ms_since(start), 3)

    totals: dict = {}
    algo_summaries: dict = {}
    for spec, config, meta in ctx.resolved:
        start = time.perf_counter()
        trace = run_online(config, ctx.stream, ctx.kind,
                           mc_samples=cfg.mc_samples, seed=cfg.seed)
        wall_ms = (time.perf_counter() - start) * 1000.0
        ledger = build_ledger(trace)
        totals[spec.name] = ledger.total
        entry = {
            "final_avg_loss": ledger.final_average,
            "regret": regret(ledger, comparator),
            "bound": None,
            "slack_ratio": None,
            "theorem": None,
            "steps_to_plateau": _steps_to_plateau(ledger),
            "wall_ms": round(wall_ms, 3),
        }
        entry.update({k: v for k, v in meta.items() if k != "experts"})
        if trace.in_box is not None and not bool(np.all(trace.in_box)):
            entry["box_violations"] = int(np.sum(~trace.in_box))
        if trace.halvings is not None:
            halved = np.flatnonzero(trace.halvings) + 1
            entry["ngvi_halvings"] = {
                "count": int(trace.halvings.sum()),
                "first_step": int(halved[0]) if halved.size else None,
                "last_step": int(halved[-1]) if halved.size else None,
            }
        if ctx.holdout is not None:
            theta_bar = online_to_batch(trace)
            mean, se = generalization_estimate(theta_bar, ctx.holdout, ctx.kind)
            entry["holdout_risk"] = {"mean": mean, "se": se}
            if ctx.kind.convex:
                entry["holdout_jensen_ok"] = jensen_holdout_audit(
                    trace.predictions, ctx.holdout, ctx.kind)
        algo_summaries[spec.name] = entry
        phases["learners"][spec.name] = _ms_since(start)
        start = time.perf_counter()
        _write_series_csv(out / f"{spec.name}.csv", ledger)
        phases["write"] = round(phases["write"] + _ms_since(start), 3)

    start = time.perf_counter()
    records = bound_records(ctx, totals, comparator)
    phases["bounds"] = _ms_since(start)
    for record in records:
        entry = algo_summaries[record["algorithm"]]
        entry["bound"] = record["bound"]
        entry["slack_ratio"] = record["slack_ratio"]
        entry["theorem"] = record["theorem"]
        entry["bound_holds"] = record["holds"]
        entry["bound_notes"] = record["notes"]

    # which algorithm settles first (reported, never asserted)
    fastest = min(algo_summaries, key=lambda k: algo_summaries[k]["steps_to_plateau"])
    summary = {
        "fastest_to_plateau": fastest,
        "dataset": {
            "name": ctx.stream.name,
            "T": ctx.horizon,
            "d": ctx.stream.d,
            "task": ctx.stream.task,
            "seed": cfg.seed,
            "standardize": _get_bool(cfg.dataset, "standardize", False),
        },
        "comparator": {
            "value": comparator.average_loss_star,
            "total": comparator.cumulative_loss_star,
            "method": comparator.diagnostics["method"],
        },
        "algorithms": algo_summaries,
        "phases_ms": phases,
        "config": {
            "prior_s": cfg.prior_s,
            "box_m_abs": cfg.box_m_abs,
            "box_sigma_hi": cfg.box_sigma_hi,
            "box_sigma_lo": cfg.box_sigma_lo,
            "mc_samples": cfg.mc_samples,
            "holdout_fraction": cfg.holdout_fraction,
            "loss": ctx.kind.kind,
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    shutil.copyfile(config_path, out / "config.ini")
    print(f"wrote {len(ctx.resolved)} series + comparator + summary to {out}")
    return EXIT_OK


def _steps_to_plateau(ledger) -> int:
    """First step after which the average cumulative loss stays within 10%
    of its final value."""
    above = np.nonzero(ledger.averages > 1.1 * ledger.final_average)[0]
    return int(above[-1]) + 2 if above.size else 1


def _write_series_csv(path: Path, ledger) -> None:
    lines = ["t,instant_loss,cum_loss,avg_cum_loss"]
    for i in range(ledger.horizon):
        lines.append(f"{i + 1},{_fmt(ledger.losses[i])},{_fmt(ledger.cumulative[i])},"
                     f"{_fmt(ledger.averages[i])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_comparator_csv(path: Path, comparator, horizon: int) -> None:
    d = comparator.theta_star.size
    header = "total_loss,avg_loss,method," + ",".join(f"theta_{j}" for j in range(d))
    row = ",".join([
        _fmt(comparator.cumulative_loss_star),
        _fmt(comparator.cumulative_loss_star / horizon),
        comparator.diagnostics["method"],
        *[_fmt(v) for v in comparator.theta_star],
    ])
    path.write_text(header + "\n" + row + "\n", encoding="utf-8", newline="\n")


def _read_series_csv(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != "t,instant_loss,cum_loss,avg_cum_loss":
        raise DataError(f"{path}: not a series file")
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def cmd_gen_toy(n: int, seed: int, out_path: str) -> int:
    ds = data_mod.gen_toy_classification(n, seed)
    lines = ["x1,x2,y"]
    for i in range(ds.T):
        lines.append(f"{_fmt(ds.features[i, 0])},{_fmt(ds.features[i, 1])},"
                     f"{int(ds.targets[i])}")
    Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"wrote {ds.T} rows to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradient checking


def _fd_expected_grad(kind: LossKind, q: MeanFieldGaussian, ex: DataExample,
                      step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the closed-form expected loss in
    (m, sigma); the oracle for the analytic gradients."""
    d = q.d
    grad = np.zeros(2 * d)
    for j in range(d):
        for which in (0, 1):
            m_plus, s_plus = q.m.copy(), q.sigma.copy()
            m_minus, s_minus = q.m.copy(), q.sigma.copy()
            if which == 0:
                m_plus[j] += step
                m_minus[j] -= step
            else:
                s_plus[j] += step
                s_minus[j] -= step
            f_plus = expected_loss(kind, MeanFieldGaussian(m_plus, s_plus), ex)
            f_minus = expected_loss(kind, MeanFieldGaussian(m_minus, s_minus), ex)
            grad[which * d + j] = (f_plus - f_minus) / (2.0 * step)
    return grad


def sample_gradcheck_instance(kind: LossKind, rng: CounterRng, d_max: int = 5):
    """Random (q, example) pair with the hinge margin kept within 4 sd of
    zero so the gradients stay in a numerically checkable range."""
    while True:
        d = 1 + int(rng.integers(1, d_max)[0])
        x = rng.normals(d)
        if np.linalg.norm(x) < 0.3:
            continue
        if kind.kind == "hinge":
            y = 1.0 if rng.uniforms(1)[0] < 0.5 else -1.0
        else:
            y = float(rng.normals(1)[0])
        m = 0.7 * rng.normals(d)
        sigma = 0.5 + 0.7 * rng.uniforms(d)
        q = MeanFieldGaussian(m, sigma)
        ex = DataExample(x, y)
        if kind.kind == "hinge":
            mu_z = 1.0 - y * float(m @ x)
            s_z = float(np.sqrt(np.sum((sigma * x) ** 2)))
            if abs(mu_z / s_z) > 4.0:
                continue
        return q, ex


def relative_grad_error(analytic: np.ndarray, oracle: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(oracle)), 1e-8)
    return float(np.linalg.norm(analytic - oracle)) / denom


def cmd_gradcheck(loss: str, trials: int, tol: float, seed: int,
                  mc_samples: int = 100000) -> int:
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = CounterRng(seed, "gradcheck")
    if loss in _LOSS_NAMES:
        kind = _LOSS_NAMES[loss]()
        worst = 0.0
        for _ in range(trials):
            q, ex = sample_gradcheck_instance(kind, rng)
            grad = expected_loss_grad(kind, q, ex)
            analytic = np.concatenate([grad.g_m, grad.g_sigma])
            worst = max(worst, relative_grad_error(analytic, _fd_expected_grad(kind, q, ex)))
        print(f"gradcheck {loss}: max relative error {worst:.3e} over {trials} trials "
              f"(tol {tol:g})")
        return EXIT_OK if worst <= tol else EXIT_CHECK_FAILED
    if loss in ("squared-nn", "squared_nn"):
        return _gradcheck_nn(trials, seed, mc_samples)
    raise ConfigError(f"unknown loss {loss!r}")


def _gradcheck_nn(trials: int, seed: int, mc_samples: int) -> int:
    """Statistical check of the Monte-Carlo gradient: per coordinate the MC
    estimate must sit within 3 combined standard errors of a common-random-
    numbers finite difference of the MC expected loss."""
    kind = LossKind.squared_nn(4)
    rng = CounterRng(seed, "gradcheck-nn")
    fd_samples = max(1000, mc_samples // 5)
    h = 1e-3
    ok = True
    worst = 0.0
    for trial in range(trials):
        d_in = 2
        d = kind.param_dim(d_in)
        x = rng.normals(d_in)
        y = float(rng.normals(1)[0])
        q = MeanFieldGaussian(0.5 * rng.normals(d), 0.3 + 0.4 * rng.uniforms(d))
        ex = DataExample(x, y)

        eps = CounterRng(seed, f"gradcheck-nn-mc-{trial}").normals(mc_samples * d) \
            .reshape(mc_samples, d)
        thetas = q.m[None, :] + q.sigma[None, :] * eps
        grads = _point_grad_many(kind, thetas, x, y)
        per_sample = np.concatenate([grads, grads * eps], axis=1)
        g_mc = per_sample.mean(axis=0)
        se_mc = per_sample.std(axis=0, ddof=1) / np.sqrt(mc_samples)

        eps_fd = CounterRng(seed, f"gradcheck-nn-fd-{trial}").normals(fd_samples * d) \
            .reshape(fd_samples, d)
        g_fd = np.zeros(2 * d)
        se_fd = np.zeros(2 * d)
        for j in range(2 * d):
            m_p, s_p = q.m.copy(), q.sigma.copy()
            m_m, s_m = q.m.copy(), q.sigma.copy()
            if j < d:
                m_p[j] += h
                m_m[j] -= h
            else:
                s_p[j - d] += h
                s_m[j - d] -= h
            loss_p = point_loss_many(kind, m_p[None, :] + s_p[None, :] * eps_fd, ex)
            loss_m = point_loss_many(kind, m_m[None, :] + s_m[None, :] * eps_fd, ex)
            diffs = (loss_p - loss_m) / (2.0 * h)
            g_fd[j] = diffs.mean()
            se_fd[j] = diffs.std(ddof=1) / np.sqrt(fd_samples)

        margin = 3.0 * np.sqrt(se_mc ** 2 + se_fd ** 2) + 1e-6
        dev = np.abs(g_mc - g_fd)
        worst = max(worst, float(np.max(dev / margin)))
        ok = ok and bool(np.all(dev <= margin))
    print(f"gradcheck squared-nn: worst deviation {worst:.3f}x the 3-se margin "
          f"over {trials} trials")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# bounds command


def cmd_bounds(run_dir: str, theorem: str) -> int:
    run = Path(run_dir)
    config_path = run / "config.ini"
    if not config_path.exists():
        raise ConfigError(f"{run}: no config.ini (not a run directory?)")
    comparator_path = run / "comparator.csv"
    if not comparator_path.exists():
        raise ConfigError(f"{run}: no comparator.csv")
    cfg = load_experiment(config_path)
    ctx = materialize(cfg)

    lines = comparator_path.read_text(encoding="utf-8").strip().splitlines()
    cells = lines[1].split(",")
    stored = ComparatorResult(
        theta_star=np.array([float(v) for v in cells[3:]]),
        cumulative_loss_star=float(cells[0]),
        diagnostics={"horizon": ctx.horizon, "method": cells[2]},
    )

    totals = {}
    for spec, _, _ in ctx.resolved:
        series = run / f"{spec.name}.csv"
        if not series.exists():
            raise ConfigError(f"{run}: missing series file {series.name}")
        # left-to-right summation, matching the ledger exactly
        totals[spec.name] = float(np.cumsum(_read_series_csv(series))[-1])

    records = bound_records(ctx, totals, stored, theorem)
    if not records:
        raise ConfigError(f"no applicable checks for theorem={theorem} in this run "
                          "(missing constants or no matching algorithm/schedule)")
    all_deterministic_hold = True
    for r in records:
        status = "holds" if r["holds"] else "VIOLATED"
        kind_note = "deterministic" if r["deterministic"] else "informational"
        emp = "n/a" if r["empirical_regret"] is None else f"{r['empirical_regret']:.6g}"
        print(f"theorem {r['theorem']} [{kind_note}] {r['algorithm']}: "
              f"regret={emp} bound={r['bound']:.6g} "
              f"slack_ratio={r['slack_ratio']:.4g} -> {status} ({r['notes']})")
        if r["deterministic"] and not r["holds"]:
            all_deterministic_hold = False
    return EXIT_OK if all_deterministic_hold else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onlinevi",
        description="Online variational inference harness: run experiments, "
                    "emit average-cumulative-loss series, check gradients and "
                    "regret bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)

    p_gen = sub.add_parser("gen-toy", help="write the 2-d toy classification CSV")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)

    p_grad = sub.add_parser("gradcheck", help="compare analytic gradients with "
                                              "finite differences")
    p_grad.add_argument("--loss", required=True,
                        choices=["hinge", "squared-linear", "squared-nn"])
    p_grad.add_argument("--trials", type=int, default=100)
    p_grad.add_argument("--tol", type=float, default=1e-5)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--mc-samples", type=int, default=100000)

    p_bounds = sub.add_parser("bounds", help="recheck regret bounds on a run directory")
    p_bounds.add_argument("--run", required=True)
    p_bounds.add_argument("--theorem", default="all", choices=["1", "2", "3", "4", "all"])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "gen-toy":
            if args.n < 1:
                raise ConfigError("--n must be >= 1")
            return cmd_gen_toy(args.n, args.seed, args.out)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.loss, args.trials, args.tol, args.seed,
                                 args.mc_samples)
        if args.command == "bounds":
            return cmd_bounds(args.run, args.theorem)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, DataError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidPrecisionError as exc:
        step = f" at step {exc.step}" if exc.step is not None else ""
        print(f"runtime error{step}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (DomainError, OnlineViError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
