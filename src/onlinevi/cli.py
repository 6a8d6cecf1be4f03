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
from .losses import _point_loss_grad_many  # package-internal MC plumbing
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


#: The keys each section may hold (README, "Config format"); an unknown key
#: is a typo and is rejected, never ignored.  Every algorithm section also
#: takes ``algo``.
_RUN_KEYS = {"seed", "horizon", "mc_samples", "holdout_fraction", "prior_s", "box_m_abs",
             "box_sigma_hi", "box_sigma_lo", "comparator_restarts", "comparator_iters"}
_DATASET_KEYS = {"source", "loss", "hidden_width", "n", "data_seed", "theta_star", "noise_sd",
                 "path", "label", "positive_label", "delimiter", "has_header", "name",
                 "permute", "standardize", "subsample"}
_ALGORITHM_KEYS = {
    "sva": {"eta", "project"},
    "svb": {"schedule", "eta", "d", "l", "h"},
    "ngvi": {"eta", "alpha"},
    "oga": {"eta"},
    "ogael": {"eta"},
    "ewagrid": {"experts", "eta"},
}
#: The keys besides ``schedule`` that each svb schedule reads; the others
#: would be ignored, so they are rejected too.
_SVB_SCHEDULE_KEYS = {"inv_sigma_sqrt_t": set(), "fixed": {"eta"},
                      "thm3_convex": {"d", "l"}, "thm3_strong": {"h"}}

#: Cap on the values the expert grid holds: K experts of dimension d and
#: their (T, K) loss matrix, K (T + d) float64 values in at most 1 GiB.
_MAX_GRID_VALUES = 2 ** 27


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1", "on"):
        return True
    if raw.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(raw)


# (parse, accept, what is expected) for one config value
_BOOL = (_parse_bool, lambda v: True, "true or false")
_INT = (int, lambda v: True, "an integer")
_COUNT = (int, lambda v: v >= 1, "an integer >= 1")
_NONNEG_INT = (int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = (float, lambda v: np.isfinite(v) and v > 0.0, "a positive finite number")
_NONNEG = (float, lambda v: np.isfinite(v) and v >= 0.0, "a finite number >= 0")
_FRACTION = (float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
_CHAR = (str, lambda v: len(v) == 1, "one character")
_FLOATS = (lambda raw: [float(v) for v in raw.split(",")],
           lambda v: bool(np.all(np.isfinite(v))), "comma-separated finite numbers")


def _parse(where: str, raw: str, rule):
    """``raw`` parsed by ``rule``; ConfigError naming ``where`` otherwise."""
    parse, accept, expected = rule
    try:
        value = parse(raw.strip())
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise ConfigError(f"{where}: expected {expected}, got {raw!r}")
    return value


def _option(section: str, options, key: str, default, rule):
    """The value under ``key`` in ``[section]`` parsed by ``rule``, or
    ``default`` when the key is absent."""
    if key not in options:
        return default
    return _parse(f"[{section}] {key}", options[key], rule)


def _check_keys(section: str, options, known) -> None:
    unknown = sorted(set(options) - set(known))
    if unknown:
        raise ConfigError(f"[{section}] {unknown[0]}: unknown key; expected one of "
                          f"{', '.join(sorted(known))}")


def _check_svb_schedule(section: str, options) -> None:
    """Normalize ``options["schedule"]``; reject an unknown schedule and any
    key that the schedule does not read."""
    name = options.get("schedule", "inv_sigma_sqrt_t").strip().lower().replace("-", "_")
    if name not in _SVB_SCHEDULE_KEYS:
        raise ConfigError(f"[{section}] schedule: unknown schedule {name!r}; expected one of "
                          f"{', '.join(sorted(_SVB_SCHEDULE_KEYS))}")
    options["schedule"] = name
    unread = sorted(set(options) - {"schedule"} - _SVB_SCHEDULE_KEYS[name])
    if unread:
        raise ConfigError(f"[{section}] {unread[0]}: schedule {name} does not read it")


def load_experiment(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "run" not in sections or "dataset" not in sections:
        raise ConfigError("config needs [run] and [dataset] sections")
    run = sections["run"]
    _check_keys("run", run, _RUN_KEYS)
    _check_keys("dataset", sections["dataset"], _DATASET_KEYS)
    if "seed" not in run:
        raise ConfigError("[run] seed is required (no entropy from the environment)")

    def get(key, default, rule):
        return _option("run", run, key, default, rule)

    box_sigma_hi = get("box_sigma_hi", 1.0, (float, lambda v: SIGMA_FLOOR <= v < np.inf,
                                             f"a finite number >= {SIGMA_FLOOR:g}"))
    sigma_lo_rule = (float, lambda v: 0.0 <= v <= box_sigma_hi,
                     f"a number in [0, box_sigma_hi = {box_sigma_hi:g}]")

    algorithms = []
    for section, options in sections.items():
        if section in ("run", "dataset"):
            continue
        if not section.startswith("algorithm."):
            raise ConfigError(f"[{section}]: unknown section; expected [run], [dataset] "
                              "or [algorithm.<name>]")
        name = section[len("algorithm."):]
        tag = options.pop("algo", name).strip().lower()
        if tag not in _ALGORITHM_KEYS:
            raise ConfigError(f"[{section}]: unknown algorithm tag {tag!r}")
        _check_keys(section, options, {"algo"} | _ALGORITHM_KEYS[tag])
        if tag == "svb":
            _check_svb_schedule(section, options)
        algorithms.append(AlgoSpec(name=name, tag=tag, options=options))
    if not algorithms:
        raise ConfigError("at least one [algorithm.<name>] section is required")
    return ExperimentConfig(
        seed=get("seed", None, _INT), horizon=get("horizon", None, _COUNT),
        mc_samples=get("mc_samples", 32, _COUNT),
        holdout_fraction=get("holdout_fraction", 0.0, _FRACTION),
        prior_s=get("prior_s", 1.0, _POSITIVE), box_m_abs=get("box_m_abs", 20.0, _NONNEG),
        box_sigma_hi=box_sigma_hi, box_sigma_lo=get("box_sigma_lo", 0.0, sigma_lo_rule),
        comparator_restarts=get("comparator_restarts", 20, _NONNEG_INT),
        comparator_iters=get("comparator_iters", 2000, _NONNEG_INT),
        dataset=sections["dataset"], algorithms=algorithms)


def _loss_kind(dataset: dict) -> LossKind:
    raw = dataset.get("loss", "").strip().lower()
    if raw in _LOSS_NAMES:
        if "hidden_width" in dataset:
            raise ConfigError(f"[dataset] hidden_width: only loss = squared-nn reads it, "
                              f"got loss = {raw}")
        return _LOSS_NAMES[raw]()
    if raw in ("squared-nn", "squared_nn"):
        return LossKind.squared_nn(_option("dataset", dataset, "hidden_width", 16, _COUNT))
    raise ConfigError(f"[dataset] loss must be hinge, squared-linear or squared-nn, got {raw!r}")


def _load_dataset(cfg: ExperimentConfig) -> data_mod.Dataset:
    ds_cfg = cfg.dataset

    def get(key, default, rule):
        return _option("dataset", ds_cfg, key, default, rule)

    source = ds_cfg.get("source", "").strip().lower()
    data_seed = get("data_seed", cfg.seed, _INT)
    if source == "toy":
        ds = data_mod.gen_toy_classification(get("n", 10000, _COUNT), data_seed)
    elif source in ("iid_regression", "iid-regression"):
        ds = data_mod.gen_iid_regression(get("n", 2000, _COUNT),
                                         get("theta_star", [1.0], _FLOATS),
                                         get("noise_sd", 0.5, _NONNEG), data_seed)
    elif source == "csv":
        if "path" not in ds_cfg:
            raise ConfigError("[dataset] csv source needs path")
        label = ds_cfg.get("label", "")
        if not label:
            raise ConfigError("[dataset] csv source needs label (name or #index)")
        if label.startswith("#"):
            label = _parse("[dataset] label", label[1:], _INT)
        schema = data_mod.CsvSchema(
            label=label,
            positive_label=ds_cfg.get("positive_label") or None,
            delimiter=get("delimiter", ",", _CHAR),
            has_header=get("has_header", True, _BOOL),
        )
        ds = data_mod.load_csv(ds_cfg["path"], schema, name=ds_cfg.get("name"))
    else:
        raise ConfigError(f"[dataset] source must be toy, iid_regression or csv, got {source!r}")

    # an empty subsample means no explicit size, as if the key were absent
    subsample = get("subsample", None, _COUNT) if ds_cfg.get("subsample", "").strip() else None
    if subsample is None and ds.T > data_mod.DEFAULT_SUBSAMPLE_CAP:
        # desk-scale policy: oversized datasets (Cover Type) run subsampled
        subsample = data_mod.DEFAULT_SUBSAMPLE_CAP
    stream_cfg = data_mod.StreamConfig(
        seed=data_seed,
        permute=get("permute", True, _BOOL),
        standardize=get("standardize", False, _BOOL),
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
    if allow_auto and raw.strip().lower() == "auto":
        return None
    return _parse(where, raw, _POSITIVE)


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
        project = _option(f"algorithm.{spec.name}", opts, "project", True, _BOOL)
        config = SvaConfig(eta=eta, prior=prior, box=box, project=project)
        meta["eta"] = eta
    elif spec.tag == "svb":
        name = opts["schedule"]  # normalized and validated at parse time
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
        else:
            schedule = Thm3StrongSchedule(H=_positive(spec, "h"))
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
        k = int(count) if form == "diagonal" else int(count) ** box.d
        if k * (t_len + box.d) > _MAX_GRID_VALUES:
            raise ConfigError(f"[algorithm.{spec.name}] experts: {experts_raw} is {k} experts "
                              f"in dimension {box.d}; with T = {t_len} the grid and its loss "
                              f"matrix would exceed {_MAX_GRID_VALUES} values")
        lattice = diagonal_lattice if form == "diagonal" else product_lattice
        experts = lattice(float(np.min(box.m_lo)), float(np.max(box.m_hi)), int(count), box.d)
        eta = _positive(spec, "eta", "auto", allow_auto=True)
        losses = expert_loss_matrix(kind, experts, stream.features, stream.targets)
        b_max = float(np.max(losses))
        # Theorem 1's constants, from the one (T, K) matrix of the run
        meta["B"] = b_max
        meta["best_expert_total"] = float(np.min(losses.sum(axis=0)))
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

    Theorems 1, 3 and 4 are deterministic inequalities; Theorem 2 (with the
    exact alpha = 1/prior_s^2) is informational only.
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

        if spec.tag == "ewagrid" and want(1) and ctx.kind.convex:
            # the grid bound's Jensen step at the prediction needs convexity
            best_expert, b_max = meta["best_expert_total"], meta["B"]
            kl = float(np.log(config.experts.shape[0]))
            bound = ewa_bound(BoundInputs(T=t_len, eta=config.eta, B=b_max, kl_term=kl))
            emp = total - best_expert
            records.append({
                "theorem": 1, "algorithm": spec.name, "empirical_regret": emp,
                "bound": bound, "slack_ratio": emp / bound, "holds": emp <= bound,
                "deterministic": True,
                "notes": f"vs best of {config.experts.shape[0]} experts, B={b_max:.6g}",
            })

        if spec.tag == "sva" and want(2) and ctx.kind.convex and comparator is not None:
            alpha = alpha_estimate(ctx.prior)
            q_star = _point_mass_comparator(comparator.theta_star, ctx.box)
            kl = kl_divergence(q_star, ctx.prior.gaussian())
            expected_total = float(np.sum(expected_loss_series(
                ctx.kind, q_star, ctx.stream.features, ctx.stream.targets)))
            bound = sva_bound(BoundInputs(T=t_len, eta=config.eta, L=lipschitz,
                                          alpha=alpha, kl_term=kl))
            emp = total - expected_total
            records.append({
                "theorem": 2, "algorithm": spec.name, "empirical_regret": emp,
                "bound": bound, "slack_ratio": emp / bound, "holds": emp <= bound,
                "deterministic": False,
                "notes": (f"informational: alpha={alpha:.6g} (1/prior_s^2), "
                          "comparator sigma=0.01"),
            })

        if spec.tag == "svb" and want(3) and isinstance(config.schedule, Thm3ConvexSchedule) \
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

        if spec.tag == "ogael" and want(4) and ctx.kind.convex:
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
        ledger = build_ledger(trace.losses)
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
            theta_bar = online_to_batch(trace.predictions)
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
            "standardize": _option("dataset", cfg.dataset, "standardize", False, _BOOL),
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


def _read_series_csv(path: Path, horizon: int) -> np.ndarray:
    """The instant losses of a series file with ``horizon`` rows."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != "t,instant_loss,cum_loss,avg_cum_loss":
        raise DataError(f"{path}: not a series file")
    try:
        losses = np.array([float(line.split(",")[1]) for line in lines[1:]])
    except (IndexError, ValueError):
        raise DataError(f"{path}: every row needs a numeric instant_loss") from None
    if losses.size != horizon:
        raise DataError(f"{path}: {losses.size} rows, but the run has T = {horizon}")
    return losses


def _read_comparator_csv(path: Path, d: int, horizon: int) -> ComparatorResult:
    """The comparator of a ``comparator.csv`` with ``d`` coordinates."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    cells = lines[1].split(",") if len(lines) == 2 else []
    try:
        values = [float(v) for i, v in enumerate(cells) if i != 2]
    except ValueError:
        values = []
    if len(values) != 2 + d:
        raise DataError(f"{path}: expected a header and one row of total_loss, avg_loss, "
                        f"method and {d} coordinates")
    return ComparatorResult(theta_star=np.array(values[2:]), cumulative_loss_star=values[0],
                            diagnostics={"horizon": horizon, "method": cells[2]})


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
        _, grads = _point_loss_grad_many(kind, thetas, x, y)
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

    stored = _read_comparator_csv(comparator_path, ctx.box.d, ctx.horizon)

    totals = {}
    for spec, _, _ in ctx.resolved:
        series = run / f"{spec.name}.csv"
        if not series.exists():
            raise ConfigError(f"{run}: missing series file {series.name}")
        # left-to-right summation, matching the ledger exactly
        totals[spec.name] = float(np.cumsum(_read_series_csv(series, ctx.horizon))[-1])

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
