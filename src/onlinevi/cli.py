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
import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import _import_start
from . import data as data_mod
from .errors import ConfigError, DataError, DomainError, OnlineViError
from .evaluation import (
    ComparatorResult,
    DecisionMean,
    JensenAudit,
    alpha_estimate,
    best_in_hindsight,
    build_ledger,
    ewa_bound,
    generalization_estimate,
    ogael_bound,
    regret,
    sva_bound,
    svb_bounds,
)
# names the benchmark's tracer wraps; a run reads the decisions through the
# readers above instead
from .evaluation import jensen_holdout_audit, online_to_batch  # noqa: F401
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
    expert_loss_blocks,
    grid_pass,
    lockstep,
    product_lattice,
    run_online,
)
from .losses import (
    HINGE,
    SQUARED_LINEAR,
    SQUARED_NN,
    LossKind,
    box_loss_bound,
    expected_grad_xy,
    expected_loss_series,
    lipschitz_constant,
    mc_grad_eps,
    point_loss_rows,
)
from .losses import point_loss_series  # noqa: F401  (a name the benchmark's tracer wraps)
from .rng import CounterRng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

#: The loss names that the config's ``loss`` key and ``gradcheck --loss``
#: accept, each with the kind it names.
_LOSS_NAMES = {
    "hinge": HINGE,
    "squared-linear": SQUARED_LINEAR,
    "squared_linear": SQUARED_LINEAR,
    "squared-nn": SQUARED_NN,
    "squared_nn": SQUARED_NN,
}


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for binary64."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# configuration


class _Section:
    """The ``key = value`` pairs of one config section.  Every read marks
    its key; a key that nothing reads is an error (``unread``), so the keys
    a section may hold are exactly the keys the run reads from it."""

    def __init__(self, name: str, options: dict):
        self.name = name
        self.options = options
        self.read: set[str] = set()

    def raw(self, key: str, default=None):
        """The unparsed value under ``key``, or ``default`` when absent."""
        self.read.add(key)
        return self.options.get(key, default)

    def get(self, key: str, default, rule):
        """The value under ``key`` parsed by ``rule``, or ``default`` when
        the key is absent."""
        raw = self.raw(key)
        return default if raw is None else _parse(f"[{self.name}] {key}", raw, rule)

    def unread(self) -> list[str]:
        return [f"[{self.name}] {key}" for key in self.options if key not in self.read]


@dataclass
class AlgoSpec:
    name: str
    tag: str
    options: _Section


@dataclass
class ExperimentConfig:
    seed: int
    horizon: int | None
    holdout_fraction: float
    prior_s: float
    box_m_abs: float
    box_sigma_hi: float
    box_sigma_lo: float
    comparator_restarts: int
    comparator_iters: int
    run: _Section
    dataset: _Section
    algorithms: list[AlgoSpec] = field(default_factory=list)
    #: read by ``materialize``, and only for the Monte-Carlo loss squared-nn
    mc_samples: int = 32


#: Cap on the grid's work: K experts of dimension d and their losses on T
#: rows, K (T + d) float64 values, at most 1 GiB if they were held at once.
#: A run holds only the experts and one tile of losses (``row_blocks``), so
#: the cap bounds the losses a run computes, not its memory.
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
    if "seed" not in sections["run"]:
        raise ConfigError("[run] seed is required (no entropy from the environment)")
    run = _Section("run", sections["run"])
    get = run.get

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
        options = _Section(section, options)
        tag = options.raw("algo", name).strip().lower()
        if tag not in _LEARNERS:
            raise ConfigError(f"[{section}]: unknown algorithm tag {tag!r}")
        algorithms.append(AlgoSpec(name=name, tag=tag, options=options))
    if not algorithms:
        raise ConfigError("at least one [algorithm.<name>] section is required")
    return ExperimentConfig(
        seed=get("seed", None, _INT), horizon=get("horizon", None, _COUNT),
        holdout_fraction=get("holdout_fraction", 0.0, _FRACTION),
        prior_s=get("prior_s", 1.0, _POSITIVE), box_m_abs=get("box_m_abs", 20.0, _NONNEG),
        box_sigma_hi=box_sigma_hi, box_sigma_lo=get("box_sigma_lo", 0.0, sigma_lo_rule),
        comparator_restarts=get("comparator_restarts", 20, _NONNEG_INT),
        comparator_iters=get("comparator_iters", 2000, _NONNEG_INT),
        run=run, dataset=_Section("dataset", sections["dataset"]), algorithms=algorithms)


def _loss_kind(dataset: _Section) -> LossKind:
    raw = dataset.raw("loss", "").strip().lower()
    name = _LOSS_NAMES.get(raw)
    if name == SQUARED_NN:
        return LossKind.squared_nn(dataset.get("hidden_width", 16, _COUNT))
    if name is not None:
        return LossKind(name)
    raise ConfigError(f"[dataset] loss must be hinge, squared-linear or squared-nn, got {raw!r}")


def _load_dataset(cfg: ExperimentConfig) -> data_mod.Dataset:
    ds_cfg = cfg.dataset
    get = ds_cfg.get

    source = ds_cfg.raw("source", "").strip().lower()
    data_seed = get("data_seed", cfg.seed, _INT)
    if source == "toy":
        ds = data_mod.gen_toy_classification(get("n", 10000, _COUNT), data_seed)
    elif source in ("iid_regression", "iid-regression"):
        ds = data_mod.gen_iid_regression(get("n", 2000, _COUNT),
                                         get("theta_star", [1.0], _FLOATS),
                                         get("noise_sd", 0.5, _NONNEG), data_seed)
    elif source == "csv":
        path = ds_cfg.raw("path")
        if path is None:
            raise ConfigError("[dataset] csv source needs path")
        label = ds_cfg.raw("label", "")
        if not label:
            raise ConfigError("[dataset] csv source needs label (name or #index)")
        if label.startswith("#"):
            label = _parse("[dataset] label", label[1:], _INT)
        schema = data_mod.CsvSchema(
            label=label,
            positive_label=ds_cfg.raw("positive_label") or None,
            delimiter=get("delimiter", ",", _CHAR),
            has_header=get("has_header", True, _BOOL),
        )
        ds = data_mod.load_csv(path, schema, name=ds_cfg.raw("name"))
    else:
        raise ConfigError(f"[dataset] source must be toy, iid_regression or csv, got {source!r}")

    # an empty subsample means no explicit size, as if the key were absent
    subsample = get("subsample", None, _COUNT) if ds_cfg.raw("subsample", "").strip() else None
    if subsample is not None and subsample > ds.T:
        raise ConfigError(f"[dataset] subsample: {subsample} is more than the {ds.T} rows")
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
    #: the certified Lipschitz constant of the expected loss on the stream
    #: and the box; None for squared-nn, which has none
    lipschitz: float | None
    resolved: list = field(default_factory=list)  # (AlgoSpec, LearnerConfig, meta dict)

    @property
    def horizon(self) -> int:
        return self.stream.T


def _positive(spec: AlgoSpec, key: str, default: str | None = None,
              allow_auto: bool = False) -> float | None:
    """The positive number under ``key`` in an ``[algorithm.<name>]``
    section; None for ``auto`` where that is allowed."""
    where = f"[algorithm.{spec.name}] {key}"
    raw = spec.options.raw(key, default)
    if raw is None:
        raise ConfigError(f"{where} is required")
    if allow_auto and raw.strip().lower() == "auto":
        return None
    return _parse(where, raw, _POSITIVE)


def _step_size_learner(make):
    """The ``build`` of a learner with one step size ``eta``, whose ``auto``
    is 1/sqrt(T); ``make(eta, spec, ctx)`` returns its config."""
    def build(spec: AlgoSpec, ctx: RunContext):
        eta = _positive(spec, "eta", "auto", allow_auto=True) or 1.0 / np.sqrt(ctx.horizon)
        return make(eta, spec, ctx), {"eta": eta}
    return build


def _build_svb(spec: AlgoSpec, ctx: RunContext):
    name = spec.options.raw("schedule", "inv_sigma_sqrt_t").strip().lower().replace("-", "_")
    meta: dict = {}
    if name == "inv_sigma_sqrt_t":
        schedule = InvSigmaSqrtT()
    elif name == "fixed":
        schedule = FixedEta(_positive(spec, "eta"))
    elif name == "thm3_convex":
        d_val = _positive(spec, "d", "auto", allow_auto=True) or ctx.box.diameter()
        l_val = _positive(spec, "l", "auto", allow_auto=True)
        if l_val is None:
            if ctx.lipschitz is None:
                raise ConfigError(f"[algorithm.{spec.name}] l: auto needs a convex loss; "
                                  f"{ctx.kind.kind} has no certified Lipschitz constant, so "
                                  "give l a number")
            l_val = ctx.lipschitz
        floor = l_val * SIGMA_FLOOR ** 2
        if floor == 0.0 or not math.isfinite(d_val * math.sqrt(2.0) / floor):
            raise ConfigError(f"[algorithm.{spec.name}] l: L = {l_val:.6g} is so small "
                              "that the schedule's step D sqrt(2) / (L sigma^2) overflows "
                              f"a float at sigma = {SIGMA_FLOOR:g}")
        schedule = Thm3ConvexSchedule(D=d_val, L=l_val)
        meta.update(D=d_val, L=l_val)
    elif name == "thm3_strong":
        schedule = Thm3StrongSchedule(H=_positive(spec, "h"))
    else:
        raise ConfigError(f"[algorithm.{spec.name}] schedule: unknown schedule {name!r}; "
                          "expected one of fixed, inv_sigma_sqrt_t, thm3_convex, thm3_strong")
    meta["schedule"] = schedule.describe()
    return SvbConfig(schedule=schedule, prior=ctx.prior, box=ctx.box), meta


def _build_ngvi(spec: AlgoSpec, ctx: RunContext):
    # default mixing step matches the usual natural-gradient step sizes;
    # large alpha makes the iterate jitter at the per-example noise scale
    meta = {"eta": _positive(spec, "eta", "1"), "alpha": _positive(spec, "alpha", "0.02")}
    return NgviConfig(prior=ctx.prior, box=ctx.box, **meta), meta


def _build_ewagrid(spec: AlgoSpec, ctx: RunContext):
    box, stream, t_len = ctx.box, ctx.stream, ctx.horizon
    experts_raw = spec.options.raw("experts", "diagonal:41").strip().lower()
    form, _, count = experts_raw.partition(":")
    count = count.strip() or ("41" if form == "diagonal" else "5")
    if form not in ("diagonal", "product") or not count.isdecimal() or int(count) < 2:
        raise ConfigError(f"[algorithm.{spec.name}] experts must be diagonal:<k> or "
                          f"product:<per-axis> with a count >= 2 (one expert has "
                          f"nothing to weigh), got {experts_raw!r}")
    k = int(count) if form == "diagonal" else int(count) ** box.d
    if k * (t_len + box.d) > _MAX_GRID_VALUES:
        raise ConfigError(f"[algorithm.{spec.name}] experts: {experts_raw} is {k} experts "
                          f"in dimension {box.d}; with T = {t_len} the grid and its "
                          f"losses would exceed {_MAX_GRID_VALUES} values")
    lattice = diagonal_lattice if form == "diagonal" else product_lattice
    experts = lattice(float(np.min(box.m_lo)), float(np.max(box.m_hi)), int(count), box.d)
    eta = _positive(spec, "eta", "auto", allow_auto=True)
    # Theorem 1's constants, from the expert losses a tile at a time: B the
    # largest, and the best expert's total from the column totals carried
    # across the tiles (the grid's pass recomputes the tiles)
    maxima = []
    for _, losses, sums in expert_loss_blocks(ctx.kind, experts, stream.features,
                                              stream.targets):
        maxima.append(np.max(losses))
    b_max = float(np.max(maxima))
    if not math.isfinite(b_max * b_max * t_len):
        raise DataError(f"dataset {stream.name!r}: [algorithm.{spec.name}] needs B^2 T "
                        f"finite for Theorem 1 and eta = auto, but the largest expert "
                        f"loss is B = {b_max:.6g} on its {t_len} rows")
    if eta is None:
        eta = float(np.sqrt(8.0 * np.log(k) / (max(b_max, 1e-12) ** 2 * t_len)))
    meta = {"B": b_max, "best_expert_total": float(np.min(sums[-1])), "eta": eta}
    return EwaGridConfig(eta=eta, experts=experts), meta


def materialize(cfg: ExperimentConfig) -> RunContext:
    kind = _loss_kind(cfg.dataset)
    if kind.kind == SQUARED_NN:  # the one loss that draws Monte-Carlo samples
        cfg.mc_samples = cfg.run.get("mc_samples", cfg.mc_samples, _COUNT)
    full = _load_dataset(cfg)
    if cfg.horizon is not None:
        if cfg.horizon > full.T:
            raise ConfigError(f"[run] horizon: {cfg.horizon} is more than the {full.T} rows")
        full = full.head(cfg.horizon)
    stream, holdout = full, None
    if cfg.holdout_fraction > 0.0:
        n_holdout = int(round(cfg.holdout_fraction * full.T))
        if n_holdout < 1 or n_holdout >= full.T:
            raise ConfigError(f"[run] holdout_fraction: {cfg.holdout_fraction:g} of {full.T} "
                              f"rows leaves no {'holdout' if n_holdout < 1 else 'stream'} rows")
        stream, holdout = full.head(full.T - n_holdout), full.tail(n_holdout)
    d_param = kind.param_dim(stream.d)
    box = BoxConstraints.symmetric(d_param, cfg.box_m_abs, cfg.box_sigma_hi,
                                   cfg.box_sigma_lo)
    prior = GaussianPrior(cfg.prior_s, d_param)
    if not math.isfinite(box.diameter()):
        raise ConfigError(f"[run] box_m_abs: the box's diameter D overflows a float at "
                          f"box_m_abs = {cfg.box_m_abs:g}")
    lipschitz = None
    if kind.convex:
        lipschitz = lipschitz_constant(kind, stream, box)
        if lipschitz == 0.0:
            raise DataError(f"dataset {stream.name!r}: the certified Lipschitz constant is "
                            f"L = 0 there, so the {kind.kind} loss does not depend on theta "
                            "on the box")
        # the theorems' constants and every loss of a decision in the box must
        # be floats: L^2 T, and B^2 n for the largest box loss B on all n rows
        # (the totals and the holdout's spread are at most n B and n B^2)
        reach = box_loss_bound(kind, full.features, full.targets, box)
        if not (math.isfinite(lipschitz * lipschitz * stream.T)
                and math.isfinite(reach * reach * full.T)):
            raise DataError(f"dataset {stream.name!r}: its values are too large for a run in "
                            f"floats: the certified Lipschitz constant L = {lipschitz:.6g} "
                            f"and the largest loss of a decision in the box B = {reach:.6g} "
                            f"on its {full.T} rows need L^2 T and B^2 n finite; rescale "
                            "the data or set standardize = true")
    ctx = RunContext(cfg=cfg, kind=kind, stream=stream, holdout=holdout, box=box,
                     prior=prior, lipschitz=lipschitz)
    ctx.resolved = [(spec, *_LEARNERS[spec.tag].build(spec, ctx)) for spec in cfg.algorithms]
    sections = (cfg.run, cfg.dataset, *(spec.options for spec in cfg.algorithms))
    unread = [key for section in sections for key in section.unread()]
    if unread:
        raise ConfigError(f"keys that this run would ignore: {', '.join(unread)}")
    return ctx


# ---------------------------------------------------------------------------
# bound checking shared by `run` and `bounds`


#: The rounding allowance of a computed regret, per step and unit of loss:
#: 2u with u = 2^-53.  Derived in ``_regret_allowance``.
_REGRET_ROUNDING = 2.0 * 2.0 ** -53


def _regret_allowance(t_len: int, total: float, other: float, summed: bool) -> float:
    """A bound on the floating-point error of a computed regret fl(s - c),
    against the exact difference of the values it is computed from.

    s = ``total`` is a learner's total, its T = ``t_len`` nonnegative
    instant losses summed left to right.  With u = 2^-53 and gamma_n = n u /
    (1 - n u), a sum of n + 1 nonnegative terms, in any order, is off by at
    most gamma_n times the exact sum S, so |s - S| <= gamma_{T-1} S <=
    gamma_{T-1} s / (1 - gamma_{T-1}) <= 1.02 (T - 1) u s while T u <= 0.01.
    c = ``other`` is, with ``summed``, also a sum of T nonnegative terms (the
    best expert's total for Theorem 1, a probe's expected total for Theorem
    4), off by <= 1.02 (T - 1) u c likewise; without, it is taken as it
    stands (Theorem 3's comparator lower bound, a certificate computed on
    its own).  The subtraction rounds by <= u |s - c| <= u (s + |c|).
    Summed, the computed regret is off by at most 1.02 T u (s + c) with
    ``summed`` and 1.02 T u s + u |c| without; _REGRET_ROUNDING rounds the
    factor 1.02 up to 2 for the second-order terms.
    """
    return _REGRET_ROUNDING * (t_len * (total + (other if summed else 0.0)) + abs(other))


def _regret_fields(ctx: RunContext, total: float, other: float, bound: float, notes: str,
                   summed: bool | None = None) -> dict:
    """A bound record's fields for the regret ``total - other`` against
    ``bound``.  A deterministic theorem holds it to the bound plus its
    rounding allowance (``_regret_allowance`` with ``summed``), and its
    notes say when only the allowance holds it; the informational Theorem 2
    (``summed`` None) holds it to the bound as it stands."""
    emp = total - other
    fields = {"empirical_regret": emp, "bound": bound, "slack_ratio": emp / bound,
              "holds": emp <= bound, "deterministic": summed is not None, "notes": notes}
    if summed is not None:
        allowance = _regret_allowance(ctx.horizon, total, other, summed)
        fields["holds"] = emp <= bound + allowance
        if not (emp <= bound or emp > bound + allowance):
            fields["notes"] += (f"; above the bound by {emp - bound:.2g}, within the "
                                f"rounding allowance {allowance:.2g}")
    return fields


def _check_ewagrid(ctx: RunContext, config, meta: dict, total: float, comparator):
    k = config.experts.shape[0]
    bound = ewa_bound(ctx.horizon, config.eta, meta["B"], float(np.log(k)))
    return _regret_fields(ctx, total, meta["best_expert_total"], bound,
                          f"vs best of {k} experts, B={meta['B']:.6g}", summed=True)


def _check_sva(ctx: RunContext, config, meta: dict, total: float, comparator):
    alpha = alpha_estimate(ctx.prior)
    # the near-point-mass comparator N(theta*, 0.01^2 I): the tightest
    # interpretable distributional comparator with finite KL
    q_star = MeanFieldGaussian(comparator.theta_star, np.clip(
        np.full(ctx.box.d, 0.01), ctx.box.sigma_floor_lo, ctx.box.sigma_hi))
    kl = kl_divergence(q_star, ctx.prior.gaussian())
    expected_total = float(np.sum(expected_loss_series(
        ctx.kind, q_star, ctx.stream.features, ctx.stream.targets)))
    bound = sva_bound(ctx.horizon, config.eta, ctx.lipschitz, alpha, kl)
    # the box is symmetric, so every coordinate has one sigma
    return _regret_fields(ctx, total, expected_total, bound,
                          f"informational: alpha={alpha:.6g} (1/prior_s^2), "
                          f"comparator sigma={q_star.sigma[0]:g}")


def _check_svb(ctx: RunContext, config, meta: dict, total: float, comparator):
    schedule = config.schedule
    if not isinstance(schedule, Thm3ConvexSchedule):
        return None
    bound = svb_bounds(ctx.horizon, schedule.D, schedule.L)
    notes = (f"D={schedule.D:.6g}, L={schedule.L:.6g}, "
             f"vs comparator lower bound {comparator.lower_bound:.12g} "
             f"({comparator.diagnostics['method']}, gap {comparator.gap:.2g})")
    # the theorem's premise: D and L bound the box's diameter and the loss's
    # Lipschitz constant (``auto`` gives exactly these)
    failed = []
    if schedule.D < ctx.box.diameter():
        failed.append(f"D >= the box's diameter {ctx.box.diameter():.6g}")
    if schedule.L < ctx.lipschitz:
        failed.append(f"L >= the certified Lipschitz constant {ctx.lipschitz:.6g}")
    if failed:
        return _regret_fields(ctx, total, comparator.lower_bound, bound,
                              f"informational: the premise {' and '.join(failed)} fails; "
                              + notes)
    # against the comparator's lower bound, so that a pass is a proof
    return _regret_fields(ctx, total, comparator.lower_bound, bound, notes, summed=False)


def _check_ogael(ctx: RunContext, config, meta: dict, total: float, comparator):
    mu1 = ctx.prior.gaussian().mu_vector()
    probes = []
    for q in _theorem4_probes(ctx.cfg.seed, ctx.box, 50):
        expected_total = float(np.sum(expected_loss_series(
            ctx.kind, q, ctx.stream.features, ctx.stream.targets)))
        dist_sq = float(np.sum((q.mu_vector() - mu1) ** 2))
        bound = ogael_bound(ctx.horizon, config.eta, ctx.lipschitz, dist_sq)
        probes.append(_regret_fields(ctx, total, expected_total, bound, "", summed=True))
    worst = max(probes, key=lambda probe: probe["slack_ratio"])
    # probes held to their bound by the rounding allowance alone
    rounded = sum(bool(probe["notes"]) for probe in probes)
    return {**worst, "empirical_regret": None, "holds": all(probe["holds"] for probe in probes),
            "notes": (f"worst of {len(probes)} box probes"
                      + (f"; {rounded} above their bound within the rounding allowance"
                         if rounded else ""))}


def _theorem4_probes(seed: int, box: BoxConstraints, count: int) -> list[MeanFieldGaussian]:
    """``count`` Gaussians uniform over ``box`` from one draw: probe i's m,
    then its sigma, take the uniforms that draws of d at a time would."""
    u = CounterRng(seed, "thm4-probes").uniforms(2 * count * box.d).reshape(count, 2, box.d)
    sigma_lo = box.sigma_floor_lo
    m = box.m_lo + u[:, 0] * (box.m_hi - box.m_lo)
    sigma = sigma_lo + u[:, 1] * (box.sigma_hi - sigma_lo)
    return [MeanFieldGaussian(m[i], sigma[i]) for i in range(count)]


def bound_records(ctx: RunContext, totals: dict, comparator, theorem: str = "all") -> list[dict]:
    """One record per algorithm whose learner has a theorem that applies.

    Theorems 1, 3 and 4 are deterministic inequalities, each held to its
    bound up to the rounding of the computed regret (``_regret_allowance``);
    Theorem 2 (with the exact alpha = 1/prior_s^2) is informational only,
    and so is Theorem 3 when its D or L is below the box's diameter or the
    certified Lipschitz constant, the theorem's premise.
    Each assumes a convex loss (Theorem 1 for the Jensen step at the grid's
    prediction), so a squared-nn run gets no record.
    """
    if not ctx.kind.convex:
        return []
    records = []
    for spec, config, meta in ctx.resolved:
        learner = _LEARNERS[spec.tag]
        if learner.check is None or theorem not in ("all", str(learner.theorem)) \
                or spec.name not in totals:
            continue
        fields = learner.check(ctx, config, meta, totals[spec.name], comparator)
        if fields is not None:
            records.append({"theorem": learner.theorem, "algorithm": spec.name, **fields})
    return records


# ---------------------------------------------------------------------------
# the learners


@dataclass(frozen=True)
class _Learner:
    """One learner's rules: ``build(spec, ctx)`` reads the section's
    ``keys`` and returns the config and the ``meta`` its summary reports; a
    ``theorem`` that ``bounds`` checks comes with ``check(ctx, config, meta,
    total, comparator)``, its record's fields or None if nothing applies."""

    keys: tuple[str, ...]
    build: Callable
    theorem: int | None = None
    check: Callable | None = None


_LEARNERS = {
    "sva": _Learner(("eta", "project"), _step_size_learner(
        lambda eta, spec, ctx: SvaConfig(eta=eta, prior=ctx.prior, box=ctx.box,
                                         project=spec.options.get("project", True, _BOOL))),
        theorem=2, check=_check_sva),
    "svb": _Learner(("schedule", "eta", "d", "l", "h"), _build_svb,
                    theorem=3, check=_check_svb),
    "ngvi": _Learner(("eta", "alpha"), _build_ngvi),
    "oga": _Learner(("eta",), _step_size_learner(
        lambda eta, spec, ctx: OgaConfig(eta=eta, box=ctx.box))),
    "ogael": _Learner(("eta",), _step_size_learner(
        lambda eta, spec, ctx: OgaElConfig(eta=eta, prior=ctx.prior, box=ctx.box)),
        theorem=4, check=_check_ogael),
    "ewagrid": _Learner(("experts", "eta"), _build_ewagrid, theorem=1, check=_check_ewagrid),
}


# ---------------------------------------------------------------------------
# commands


def _ms_since(start: float) -> float:
    return round((time.perf_counter() - start) * 1000.0, 3)


def cmd_run(config_path: str, out_dir: str) -> int:
    """Run the config into ``out_dir``, atomically: everything is written
    into a hidden sibling directory, which takes the target's place only
    once it is complete.  A target that exists must be a directory that
    holds nothing but what a run writes (``_check_target``); it is replaced
    whole.  A failed run leaves no new directory and the old one as it was."""
    start = time.perf_counter()
    import_ms = round((start - _import_start) * 1000.0, 3)
    cfg = load_experiment(config_path)
    ctx = materialize(cfg)
    load_ms = _ms_since(start)
    # absolute, so that "." or "a/.." still has a parent and a name
    out = Path(os.path.abspath(out_dir))
    _check_target(out)
    made = [p for p in (out.parent, *out.parent.parents) if not p.exists()]
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", suffix=".partial", dir=out.parent))
    old = stage.with_name(stage.name + ".old")
    done = False
    try:
        # mkdtemp makes the directory owner-only; give it a plain mkdir's mode
        mask = os.umask(0)
        os.umask(mask)
        stage.chmod(0o777 & ~mask)
        _run_into(stage, ctx, config_path, {"import": import_ms, "load": load_ms})
        if out.exists():
            out.rename(old)
        try:
            stage.rename(out)
        except OSError:
            if old.exists():
                old.rename(out)
            raise
        done = True
    finally:
        if not done:
            shutil.rmtree(stage, ignore_errors=True)
            for path in made:  # nearest first; each is empty again
                with contextlib.suppress(OSError):
                    path.rmdir()
    shutil.rmtree(old, ignore_errors=True)
    print(f"wrote {len(ctx.resolved)} series + comparator + summary to {out_dir}")
    return EXIT_OK


def _check_target(out: Path) -> None:
    """ConfigError unless ``out`` is absent or a directory holding only
    files a run writes: ``config.ini``, ``summary.json`` and ``*.csv``."""
    if not out.exists():
        return
    if not out.is_dir():
        raise ConfigError(f"--out {out} exists and is not a directory")
    for entry in out.iterdir():
        if not (entry.is_file() and (entry.name in ("config.ini", "summary.json")
                                     or entry.suffix == ".csv")):
            raise ConfigError(f"--out {out} holds {entry.name}, which a run does not "
                              "write; it is replaced only if it holds a run's files alone")


def _run_into(out: Path, ctx: RunContext, config_path: str, phases: dict) -> None:
    """Every output file of a run, written into the directory ``out``;
    ``phases`` holds the wall times of the phases before it, in ms."""
    cfg = ctx.cfg
    # wall time per phase, in ms; "write" covers comparator.csv and the series
    # CSVs, "finish" each section's work after the pass but its write
    phases.update(write=0.0, finish=0.0)

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
    # the readers of each section's decisions: none without a holdout, else
    # the Jensen audit on a convex loss, which keeps theta_bar too, or theta_bar
    readers = {spec.name: [JensenAudit(ctx.kind, ctx.holdout) if ctx.kind.convex
                           else DecisionMean()]
               for spec, _, _ in ctx.resolved if ctx.holdout is not None}
    # the grids first, which walk nothing, then one pass of every other section
    grids = [s for s in ctx.resolved if isinstance(s[1], EwaGridConfig)]
    walkers = [s for s in ctx.resolved if not isinstance(s[1], EwaGridConfig)]
    _finish(grids, [None] * len(grids), readers, 0.0, ctx, comparator, out, phases, totals,
            algo_summaries)
    start = time.perf_counter()
    walks = lockstep([config for _, config, _ in walkers], ctx.stream, ctx.kind,
                     mc_samples=cfg.mc_samples, seed=cfg.seed,
                     names=[spec.name for spec, _, _ in walkers],
                     readers=[readers.get(spec.name, ()) for spec, _, _ in walkers])
    pass_ms = (time.perf_counter() - start) * 1000.0
    phases["pass"] = round(pass_ms, 3)
    _finish(walkers, walks, readers, pass_ms, ctx, comparator, out, phases, totals,
            algo_summaries)
    algo_summaries = {spec.name: algo_summaries[spec.name] for spec, _, _ in ctx.resolved}

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
            "standardize": cfg.dataset.get("standardize", False, _BOOL),
        },
        "comparator": {
            "value": comparator.average_loss_star,
            "total": comparator.cumulative_loss_star,
            "method": comparator.diagnostics["method"],
            "lower_bound": comparator.lower_bound,
            "gap": comparator.gap,
            "evaluations": comparator.diagnostics["evaluations"],
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


def _finish(sections: list, walks: list, readers: dict, pass_ms: float, ctx: RunContext,
            comparator, out: Path, phases: dict, totals: dict, algo_summaries: dict) -> None:
    """Each section's summary entry and series file, from the trace of the
    pass that walked it and from its readers in ``readers`` (a run with a
    holdout); a grid, whose walk is None, makes its pass here.  A section's
    ``wall_ms`` is ``pass_ms``, the wall time of the pass that walked it (0
    for a grid), plus the section's own work here, which
    ``phases["finish"]`` sums."""
    for (spec, config, meta), walk in zip(sections, walks):
        start = time.perf_counter()
        if walk is None:
            walk = grid_pass(config, ctx.stream, ctx.kind, readers.get(spec.name, ()))
        # the pass's trace, checked against the stream; one call per section,
        # which the benchmark's tracer times
        trace = run_online(config, ctx.stream, ctx.kind, walk=walk)
        with np.errstate(over="ignore", invalid="ignore"):
            overflow = np.flatnonzero(~np.isfinite(np.cumsum(trace.losses)))
        if overflow.size:
            raise DomainError(f"step {overflow[0] + 1} ({spec.name}): the cumulative point "
                              "loss is not finite")
        ledger = build_ledger(trace.losses)
        totals[spec.name] = ledger.total
        entry = {
            "final_avg_loss": ledger.final_average,
            "regret": regret(ledger, comparator),
            "bound": None,
            "slack_ratio": None,
            "theorem": None,
            "steps_to_plateau": _steps_to_plateau(ledger),
        }
        entry.update(meta)
        if trace.in_box is not None and not bool(np.all(trace.in_box)):
            entry["box_violations"] = int(np.sum(~trace.in_box))
        if trace.final_sigma is not None:
            entry["final_sigma"] = {"min": float(trace.final_sigma.min()),
                                    "max": float(trace.final_sigma.max())}
        if trace.halvings is not None:
            halved = np.flatnonzero(trace.halvings) + 1
            entry["ngvi_halvings"] = {
                "count": int(trace.halvings.sum()),
                "first_step": int(halved[0]) if halved.size else None,
                "last_step": int(halved[-1]) if halved.size else None,
            }
        if ctx.holdout is not None:
            (reader,) = readers[spec.name]
            theta_bar = reader.theta_bar()
            with np.errstate(over="ignore", invalid="ignore"):
                mean, se = generalization_estimate(theta_bar, ctx.holdout, ctx.kind)
            if not (math.isfinite(mean) and math.isfinite(se)):
                raise DomainError(f"step {ctx.horizon} ({spec.name}): the holdout risk of the "
                                  "mean decision is not finite")
            entry["holdout_risk"] = {"mean": mean, "se": se}
            if ctx.kind.convex:
                entry["holdout_jensen_ok"] = reader.holds()
        own_ms = (time.perf_counter() - start) * 1000.0
        entry["wall_ms"] = round(pass_ms + own_ms, 3)
        phases["finish"] = round(phases["finish"] + own_ms, 3)
        algo_summaries[spec.name] = entry
        start = time.perf_counter()
        _write_series_csv(out / f"{spec.name}.csv", ledger)
        phases["write"] = round(phases["write"] + _ms_since(start), 3)


def _steps_to_plateau(ledger) -> int:
    """First step after which the average cumulative loss stays within 10%
    of its final value."""
    above = np.nonzero(ledger.averages > 1.1 * ledger.final_average)[0]
    return int(above[-1]) + 2 if above.size else 1


#: Rows of a series file formatted per write: the Python floats and
#: strings of one block at a time, whatever the horizon.
_SERIES_BLOCK = 4096


def _write_series_csv(path: Path, ledger) -> None:
    columns = (ledger.losses, ledger.cumulative, ledger.averages)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write("t,instant_loss,cum_loss,avg_cum_loss\n")
        for start in range(0, ledger.horizon, _SERIES_BLOCK):
            stop = min(start + _SERIES_BLOCK, ledger.horizon)
            # "%.17g" writes what `_fmt` does, one format call per row
            rows = zip(range(start + 1, stop + 1), *(c[start:stop].tolist() for c in columns))
            out.write("".join(["%d,%.17g,%.17g,%.17g\n" % row for row in rows]))


def _write_comparator_csv(path: Path, comparator, horizon: int) -> None:
    d = comparator.theta_star.size
    header = "total_loss,avg_loss,method,lower_bound," + ",".join(
        f"theta_{j}" for j in range(d))
    row = ",".join([
        _fmt(comparator.cumulative_loss_star),
        _fmt(comparator.cumulative_loss_star / horizon),
        comparator.diagnostics["method"],
        _fmt(comparator.lower_bound),
        *[_fmt(v) for v in comparator.theta_star],
    ])
    path.write_text(header + "\n" + row + "\n", encoding="utf-8", newline="\n")


def _read_series_csv(path: Path, horizon: int) -> np.ndarray:
    """The instant losses of a series file with ``horizon`` rows."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != "t,instant_loss,cum_loss,avg_cum_loss":
        raise DataError(f"{path}: not a series file")
    losses = _bulk_instant_losses(lines[1:])
    if losses is None:
        # the cell-by-cell reading decides what the bulk parse refused
        try:
            losses = np.array([float(line.split(",")[1]) for line in lines[1:]])
        except (IndexError, ValueError):
            raise DataError(f"{path}: every row needs a numeric instant_loss") from None
    if losses.size != horizon:
        raise DataError(f"{path}: {losses.size} rows, but the run has T = {horizon}")
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise DataError(f"{path}: row t = {bad[0] + 1} has the instant_loss "
                        f"{losses[bad[0]]}, which is not finite")
    return losses


def _bulk_instant_losses(rows: list[str]) -> np.ndarray | None:
    """The second cell of every row, parsed in one call of numpy's C reader
    (``float()``'s correctly rounded conversion), or None where it refuses a
    row.  It skips an empty row where the cell-by-cell reading rejects one,
    so a parse with fewer values than rows is refused too."""
    if not rows:
        return None
    try:
        losses = np.loadtxt(rows, delimiter=",", usecols=1, comments=None, ndmin=1)
    except ValueError:
        return None
    return losses if losses.size == len(rows) else None


def _read_comparator_csv(path: Path, d: int, horizon: int) -> ComparatorResult:
    """The comparator of a ``comparator.csv`` with ``d`` coordinates."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    cells = lines[1].split(",") if len(lines) == 2 else []
    try:
        values = [float(v) for i, v in enumerate(cells) if i != 2]
    except ValueError:
        values = []
    if len(values) != 3 + d:
        raise DataError(f"{path}: expected a header and one row of total_loss, avg_loss, "
                        f"method, lower_bound and {d} coordinates")
    names = ["total_loss", "avg_loss", "lower_bound", *(f"theta_{j}" for j in range(d))]
    for name, value in zip(names, values):
        if not np.isfinite(value):
            raise DataError(f"{path}: {name} is {value}, which is not finite")
    return ComparatorResult(theta_star=np.array(values[3:]), cumulative_loss_star=values[0],
                            lower_bound=values[2],
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


def _central_differences(loss, m: np.ndarray, sigma: np.ndarray, step: float) -> np.ndarray:
    """Central differences of ``loss(m, sigma)`` in each coordinate of m,
    then of sigma: a (2d, ...) array whose rows have the shape that
    ``loss`` returns, row j being (loss(mu + step e_j) - loss(mu - step
    e_j)) / (2 step) at mu = (m, sigma)."""
    d = m.size
    mu = np.concatenate([m, sigma])
    rows = []
    for j in range(2 * d):
        plus, minus = mu.copy(), mu.copy()
        plus[j] += step
        minus[j] -= step
        rows.append((loss(plus[:d], plus[d:]) - loss(minus[:d], minus[d:])) / (2.0 * step))
    return np.array(rows)


def sample_gradcheck_instance(kind: LossKind, rng: CounterRng, d_max: int = 5):
    """Random (m, sigma, x, y) with the hinge margin kept within 4 sd of
    zero so the gradients stay in a numerically checkable range."""
    while True:
        d = 1 + int(rng.integers(1, d_max)[0])
        x = rng.normals(d)
        if np.linalg.norm(x) < 0.3:
            continue
        if kind.kind == HINGE:
            y = 1.0 if rng.uniforms(1)[0] < 0.5 else -1.0
        else:
            y = float(rng.normals(1)[0])
        m = 0.7 * rng.normals(d)
        sigma = 0.5 + 0.7 * rng.uniforms(d)
        if kind.kind == HINGE:
            mu_z = 1.0 - y * float(m @ x)
            s_z = float(np.sqrt(np.sum((sigma * x) ** 2)))
            if abs(mu_z / s_z) > 4.0:
                continue
        return m, sigma, x, y


def cmd_gradcheck(loss: str, trials: int, tol: float, seed: int,
                  mc_samples: int = 100000) -> int:
    """Check ``expected_grad_xy`` (hinge, squared-linear) against central
    differences of the closed-form expected loss, or ``mc_grad_eps``
    (squared-nn) statistically; exit 1 when a check fails."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    name = _LOSS_NAMES.get(loss)
    if name is None:
        raise ConfigError(f"unknown loss {loss!r}")
    if name == SQUARED_NN:
        if mc_samples < 2:
            # a standard error needs two samples
            raise ConfigError("--mc-samples must be >= 2")
        return _gradcheck_nn(trials, seed, mc_samples)
    kind = LossKind(name)
    rng = CounterRng(seed, "gradcheck")
    errors = []
    for _ in range(trials):
        m, sigma, x, y = sample_gradcheck_instance(kind, rng)
        analytic = np.concatenate(expected_grad_xy(kind, m, sigma, x, y))
        row = x[None, :], np.array([y])
        oracle = _central_differences(
            lambda mj, sj: expected_loss_series(kind, MeanFieldGaussian(mj, sj), *row)[0],
            m, sigma, 1e-5)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(oracle), 1e-8)
        errors.append(np.linalg.norm(analytic - oracle) / denom)
    worst = float(np.max(errors))  # a NaN error is the worst, and fails
    print(f"gradcheck {loss}: max relative error {worst:.3e} over {trials} trials "
          f"(tol {tol:g})")
    return EXIT_OK if worst <= tol else EXIT_CHECK_FAILED


def _gradcheck_nn(trials: int, seed: int, mc_samples: int) -> int:
    """Statistical check of the Monte-Carlo gradient: per coordinate the
    mean of ``mc_grad_eps``'s one-sample estimates must sit within 3
    combined standard errors of a common-random-numbers finite difference
    of the Monte-Carlo loss."""
    kind = LossKind.squared_nn(4)
    rng = CounterRng(seed, "gradcheck-nn")
    fd_samples = max(1000, mc_samples // 5)
    h = 1e-3
    d_in = 2
    d = kind.param_dim(d_in)
    ok = True
    worst = 0.0
    for trial in range(trials):
        x = rng.normals(d_in)
        y = float(rng.normals(1)[0])
        m, sigma = 0.5 * rng.normals(d), 0.3 + 0.4 * rng.uniforms(d)

        # a (mc_samples, 1, d) eps gives each sample its own estimate
        eps = CounterRng(seed, f"gradcheck-nn-mc-{trial}").normals(mc_samples * d) \
            .reshape(mc_samples, 1, d)
        per_sample = np.concatenate(mc_grad_eps(kind, m, sigma, x, y, eps)[1:], axis=1)
        g_mc = per_sample.mean(axis=0)
        se_mc = per_sample.std(axis=0, ddof=1) / np.sqrt(mc_samples)

        eps_fd = CounterRng(seed, f"gradcheck-nn-fd-{trial}").normals(fd_samples * d) \
            .reshape(fd_samples, d)
        diffs = _central_differences(
            lambda mj, sj: point_loss_rows(kind, mj + sj * eps_fd, x, y), m, sigma, h)
        g_fd = diffs.mean(axis=1)
        se_fd = diffs.std(axis=1, ddof=1) / np.sqrt(fd_samples)

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
        checked = ", ".join(f"{tag} (theorem {learner.theorem})"
                            for tag, learner in _LEARNERS.items() if learner.check)
        which = "" if theorem == "all" else f" {theorem}"
        why = (f"no section has a checked theorem{which}; the checked tags are {checked}, "
               "svb's only with schedule = thm3_convex" if ctx.kind.convex
               else f"the {ctx.kind.kind} loss is not convex, and every theorem needs "
                    "a convex loss")
        raise ConfigError(f"no applicable checks for theorem={theorem} in this run ({why})")
    all_deterministic_hold = True
    for r in records:
        # only a deterministic record above its bound is a violation
        status = "holds" if r["holds"] else "VIOLATED" if r["deterministic"] else "above"
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
    except (DomainError, OnlineViError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
