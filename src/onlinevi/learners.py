"""Online update rules behind one predict-observe-update loop.

Algorithms (all over the mean-field Gaussian family unless noted):

    SVA       follow-the-regularized-leader on linearized expected losses
              with a KL-to-prior regularizer; closed form
                  m'     = m - eta s^2 g_m
                  g_acc' = g_acc + g_sigma
                  sigma' = h(eta s g_acc' / 2) * s
    SVB       per-step linearized objective regularized by KL to the
              previous approximation; closed form (projected)
                  m'     = Pi_Mm[ m - eta sigma^2 g_m ]
                  sigma' = Pi_Ms[ sigma * h(eta sigma g_sigma / 2) ]
    NGVI      natural-parameter recursion
                  lambda' = (1-beta) lambda + beta lambda_prior
                            - eta beta grad_mu,   1/beta = 1/alpha + 1/eta
    OGA       projected online gradient descent on theta (benchmark)
    OGA-EL    gradient step directly on mu = (m, sigma)
    EWA grid  multiplicative weights over a finite expert set; exact
              tempered Bayes on that support

with h(x) = sqrt(1 + x^2) - x.

Each update is an array kernel (``sva_step``, ``svb_step``, ``ngvi_step``,
``oga_step``, ``ogael_step``): a pure function from the current arrays
(m, sigma and the learner's auxiliary state) and a gradient to the next
arrays.  ``lockstep`` validates its inputs once, then walks the rows of
``Dataset.features`` / ``Dataset.targets`` once and advances all its
learners at each step: their states are rows of stacked (k, d) arrays,
one gradient call serves every row, and each learner class updates its
own rows with its kernel's formula.  The loop does only the sequential
work: record the decisions, compute the gradients, update, record each
state row's box membership, and check once for the whole stack that the
gradients and the new states are finite with sigma > 0.  It records only
what a trace reads, never the states.  ``run_online`` gives one learner's
Trace, from its walk in a pass with others or from a pass of its own,
and adds the point losses at all T decisions in one vectorized pass.
The kernels' formulas and ``lockstep`` are the only implementation of
the learners, and a learner's trace has the same bits whatever company
it walks in.  The grid's weights depend only on the data, so it walks
nothing: ``lockstep`` walks only the other learners and rejects a grid,
and ``run_online`` gives the grid's T predictions from the (T, K)
expert-loss matrix in one vectorized pass.  A run owns its arrays and
runs are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence, Union

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, DomainError, InvalidPrecisionError
from .family import (
    SIGMA_FLOOR,
    BoxConstraints,
    GaussianPrior,
    NaturalParams,
    h_map,
    natural_to_standard,
)
from .losses import (
    MC_STREAM,
    SQUARED_NN,
    LossKind,
    expected_grad_xy,
    expert_loss_matrix,
    mc_grad_eps,
    point_grad_xy,
    point_loss_rows,
)
from .rng import step_normals

# Not called here any more; the benchmark's tracer (perfbench/tracer.py)
# still resolves these names in this namespace.
from .family import from_natural, project_box, to_natural  # noqa: F401,E402
from .rng import derive_seed  # noqa: F401,E402
from .losses import (  # noqa: F401,E402
    expected_loss_grad,
    mc_expected_loss_and_grad,
    point_grad,
    point_loss,
    point_loss_many,
)


class _PositiveFields:
    """Rejects, at construction, a field named in ``_POSITIVE`` that is not
    a positive finite number, so that no learner runs with a step size of
    0, a negative one, inf or NaN."""

    _POSITIVE: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self._POSITIVE:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{type(self).__name__}.{name} must be a positive finite "
                                  f"number, got {value!r}")


# ---------------------------------------------------------------------------
# step-size schedules for SVB (eta_{t,j} as a vector over coordinates)


@dataclass(frozen=True)
class FixedEta(_PositiveFields):
    _POSITIVE = ("eta",)
    eta: float

    def rate(self, t: int, sigma: np.ndarray) -> np.ndarray:
        return np.full_like(sigma, self.eta)

    def describe(self) -> str:
        return f"fixed eta={self.eta:g}"


@dataclass(frozen=True)
class InvSigmaSqrtT:
    """The experiments' default eta_{t,j} = 1 / (sigma_{t,j}^2 sqrt(t))."""

    def rate(self, t: int, sigma: np.ndarray) -> np.ndarray:
        return 1.0 / (sigma ** 2 * math.sqrt(t))

    def describe(self) -> str:
        return "eta_t = 1/(sigma_t^2 sqrt(t))"


@dataclass(frozen=True)
class Thm3ConvexSchedule(_PositiveFields):
    """eta_{t,j} = D sqrt(2) / (L sqrt(t) sigma_{t,j}^2); the m-step then
    equals m - (D sqrt(2)/(L sqrt(t))) g_m independent of sigma."""

    _POSITIVE = ("D", "L")
    D: float
    L: float

    def rate(self, t: int, sigma: np.ndarray) -> np.ndarray:
        return (self.D * math.sqrt(2.0)) / (self.L * math.sqrt(t) * sigma ** 2)

    def describe(self) -> str:
        return f"eta_tj = D*sqrt(2)/(L*sqrt(t)*sigma^2), D={self.D:g}, L={self.L:g}"


@dataclass(frozen=True)
class Thm3StrongSchedule(_PositiveFields):
    """eta_{t,j} = 2 / (H t sigma_{t,j}^2) for H-strongly-convex losses."""

    _POSITIVE = ("H",)
    H: float

    def rate(self, t: int, sigma: np.ndarray) -> np.ndarray:
        return 2.0 / (self.H * t * sigma ** 2)

    def describe(self) -> str:
        return f"eta_tj = 2/(H*t*sigma^2), H={self.H:g}"


SvbSchedule = Union[FixedEta, InvSigmaSqrtT, Thm3ConvexSchedule, Thm3StrongSchedule]


# ---------------------------------------------------------------------------
# per-algorithm configs (only the fields the algorithm uses)


@dataclass(frozen=True)
class SvaConfig(_PositiveFields):
    _POSITIVE = ("eta",)
    eta: float
    prior: GaussianPrior
    box: BoxConstraints | None = None
    project: bool = True  # False = exact-paper mode (no projection)


@dataclass(frozen=True)
class SvbConfig:
    schedule: SvbSchedule
    prior: GaussianPrior
    box: BoxConstraints | None = None


#: eta halvings one NGVI step may take to stay in the family before it aborts
MAX_STEP_RETRIES = 10


@dataclass(frozen=True)
class NgviConfig(_PositiveFields):
    _POSITIVE = ("eta", "alpha")
    eta: float
    alpha: float
    prior: GaussianPrior
    # NGVI is never projected (no lambda-space projection is defined); a box
    # here only marks trace rows that leave it.
    box: BoxConstraints | None = None


@dataclass(frozen=True)
class OgaConfig(_PositiveFields):
    _POSITIVE = ("eta",)
    eta: float
    box: BoxConstraints | None = None


@dataclass(frozen=True)
class OgaElConfig(_PositiveFields):
    _POSITIVE = ("eta",)
    eta: float
    prior: GaussianPrior
    box: BoxConstraints | None = None


@dataclass(frozen=True, eq=False)
class EwaGridConfig(_PositiveFields):
    _POSITIVE = ("eta",)
    eta: float
    experts: np.ndarray  # (K, d)

    def __post_init__(self):
        super().__post_init__()
        experts = np.array(self.experts, dtype=float)
        if experts.ndim != 2 or experts.shape[0] < 2:
            raise DomainError("experts must be a (K, d) array with K >= 2: one expert has "
                              "nothing to weigh")
        experts.setflags(write=False)
        object.__setattr__(self, "experts", experts)


LearnerConfig = Union[SvaConfig, SvbConfig, NgviConfig, OgaConfig, OgaElConfig,
                      EwaGridConfig]


# ---------------------------------------------------------------------------
# expert lattices for the grid


def diagonal_lattice(lo: float, hi: float, count: int, d: int) -> np.ndarray:
    """count experts a_k * (1, ..., 1) with a_k equally spaced on [lo, hi]."""
    return np.repeat(np.linspace(lo, hi, count)[:, None], d, axis=1)


def product_lattice(lo: float, hi: float, per_axis: int, d: int) -> np.ndarray:
    """Full per_axis^d lattice over the cube [lo, hi]^d."""
    axes = [np.linspace(lo, hi, per_axis)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# update kernels
#
# Each ``*_step`` kernel is its ``_*_update`` formula on one learner's
# arrays with that learner's parameters, then the projection onto the
# learner's box (``_projection_box``).  ``lockstep`` calls the same
# formulas on the rows (k, d) of all the learners of one class at once, the
# parameters then being (k, 1) columns, and clips the whole stack to its
# rows' boxes afterwards; every operation is elementwise or along a row, so
# each row gets the bits it would get on its own.


def _projection_box(config: LearnerConfig) -> BoxConstraints | None:
    """The box every update of the learner is clipped to, if any."""
    if isinstance(config, NgviConfig) or (isinstance(config, SvaConfig) and not config.project):
        return None  # NGVI has no lambda-space projection
    return config.box


def _project(config: LearnerConfig, m: np.ndarray,
             sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    box = _projection_box(config)
    return (m, sigma) if box is None else box.clip(m, sigma)


def _sva_update(m, accum, g_m, g_sigma, eta, s):
    m = m - eta * s * s * g_m
    accum = accum + g_sigma
    return m, s * h_map(0.5 * eta * s * accum), accum


def sva_step(m: np.ndarray, accum: np.ndarray, g_m: np.ndarray, g_sigma: np.ndarray,
             config: SvaConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m, sigma, accum = _sva_update(m, accum, g_m, g_sigma, config.eta, config.prior.s)
    return (*_project(config, m, sigma), accum)


def _svb_update(m, sigma, g_m, g_sigma, eta):
    m = m - eta * sigma ** 2 * g_m
    return m, sigma * h_map(0.5 * eta * sigma * g_sigma)


def svb_step(m: np.ndarray, sigma: np.ndarray, g_m: np.ndarray, g_sigma: np.ndarray,
             t: int, config: SvbConfig) -> tuple[np.ndarray, np.ndarray]:
    return _project(config, *_svb_update(m, sigma, g_m, g_sigma,
                                         config.schedule.rate(t, sigma)))


def expectation_grad(g_m: np.ndarray, g_sigma: np.ndarray, m: np.ndarray,
                     sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule from (m, sigma) gradients to expectation coordinates
    (mu1, mu2) = (m, m^2 + sigma^2), for sigma > 0:

        g_var = g_sigma / (2 sigma)
        dL/dmu1 = g_m - 2 m g_var,   dL/dmu2 = g_var
    """
    g_var = g_sigma / (2.0 * sigma)
    return g_m - 2.0 * m * g_var, g_var


def _ngvi_update(lam, g_mu1, g_mu2, lam_prior, eta, alpha):
    """The recursion with eta halved, row by row, until lambda2 < 0 on the
    whole row; returns (lambda1, lambda2, halvings): None if no row needed
    a halving, else the halvings per row as a (k, 1) column, with
    MAX_STEP_RETRIES + 1 on a row that no halving brought back."""
    halvings = None
    for _ in range(MAX_STEP_RETRIES + 1):
        beta = 1.0 / (1.0 / alpha + 1.0 / eta)
        l1 = (1.0 - beta) * lam[0] + beta * lam_prior[0] - eta * beta * g_mu1
        l2 = (1.0 - beta) * lam[1] + beta * lam_prior[1] - eta * beta * g_mu2
        inside = l2 < 0.0
        if inside.all():
            break
        ok = inside.all(axis=-1, keepdims=True)
        eta = np.where(ok, eta, 0.5 * eta)
        halvings = ~ok + (0 if halvings is None else halvings)
    return l1, l2, halvings


def ngvi_step(lam: tuple[np.ndarray, np.ndarray], g_mu1: np.ndarray, g_mu2: np.ndarray,
              lam_prior: NaturalParams, step: int,
              config: NgviConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Natural-parameter recursion on (lambda1, lambda2); returns the new pair
    and the number of eta halvings the step needed."""
    l1, l2, halvings = _ngvi_update(lam, g_mu1, g_mu2,
                                    (lam_prior.lambda1, lam_prior.lambda2),
                                    config.eta, config.alpha)
    halvings = 0 if halvings is None else int(np.max(halvings))
    if halvings > MAX_STEP_RETRIES:
        raise InvalidPrecisionError(
            f"NGVI step {step} left the family (lambda2 >= 0) after "
            f"{MAX_STEP_RETRIES} eta halvings",
            step=step,
        )
    return l1, l2, halvings


def _oga_update(theta, g, eta):
    return theta - eta * g


def oga_step(theta: np.ndarray, g: np.ndarray, config: OgaConfig) -> np.ndarray:
    theta = _oga_update(theta, g, config.eta)
    if config.box is not None:
        theta = theta.clip(config.box.m_lo, config.box.m_hi)
    return theta


def _ogael_update(m, sigma, g_m, g_sigma, eta):
    return m - eta * g_m, np.maximum(sigma - eta * g_sigma, SIGMA_FLOOR)


def ogael_step(m: np.ndarray, sigma: np.ndarray, g_m: np.ndarray, g_sigma: np.ndarray,
               config: OgaElConfig) -> tuple[np.ndarray, np.ndarray]:
    return _project(config, *_ogael_update(m, sigma, g_m, g_sigma, config.eta))


# ---------------------------------------------------------------------------
# the online loop


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-step record of one online run (arrays indexed by step, 0-based)."""

    predictions: np.ndarray              # (T, d_pred) decision theta_hat_t
    losses: np.ndarray                   # (T,) point loss at the decision
    in_box: np.ndarray | None = None       # (T,) post-update box membership; None without a box
    final_sigma: np.ndarray | None = None  # (d,) sigma after the last step; None for oga, ewagrid
    halvings: np.ndarray | None = None     # (T,) NGVI eta halvings per step; NGVI only


def _param(values: list) -> np.ndarray:
    """One parameter of a class's rows, as a (k, 1) column."""
    return np.array(values, dtype=float)[:, None]


# The learners of one class inside ``lockstep``, as rows of the stacked
# state: ``update`` takes the rows' (m, sigma) and gradients and returns the
# next (m, sigma), sigma None for OGA, before the projection, which
# ``lockstep`` applies to the whole stack at once.  NGVI's block keeps the
# (k, T) record of its step halvings and names its rows in the error when no
# halving brings one back.


class _SvaRows:
    def __init__(self, configs: list[SvaConfig], names: list[str], d: int, t_max: int):
        self.eta = _param([c.eta for c in configs])
        self.s = _param([c.prior.s for c in configs])
        self.accum = np.zeros((len(configs), d))

    def update(self, m, sigma, g_m, g_sigma, t):
        m, sigma, self.accum = _sva_update(m, self.accum, g_m, g_sigma, self.eta, self.s)
        return m, sigma


class _SvbRows:
    def __init__(self, configs: list[SvbConfig], names: list[str], d: int, t_max: int):
        # one rate call per run of consecutive rows with equal schedules
        self.schedules, first = [], 0
        for schedule, rows in groupby(c.schedule for c in configs):
            count = len(list(rows))
            self.schedules.append((schedule, slice(first, first + count)))
            first += count

    def update(self, m, sigma, g_m, g_sigma, t):
        eta = np.concatenate([schedule.rate(t, sigma[rows]) for schedule, rows in self.schedules])
        return _svb_update(m, sigma, g_m, g_sigma, eta)


class _NgviRows:
    def __init__(self, configs: list[NgviConfig], names: list[str], d: int, t_max: int):
        self.names = names
        self.eta = _param([c.eta for c in configs])
        self.alpha = _param([c.alpha for c in configs])
        priors = [c.prior.natural() for c in configs]
        self.lam_prior = (np.array([p.lambda1 for p in priors]),
                          np.array([p.lambda2 for p in priors]))
        self.lam = self.lam_prior
        self.halvings = np.zeros((len(configs), t_max), dtype=int)

    def update(self, m, sigma, g_m, g_sigma, t):
        g_mu1, g_mu2 = expectation_grad(g_m, g_sigma, m, sigma)
        l1, l2, halvings = _ngvi_update(self.lam, g_mu1, g_mu2, self.lam_prior, self.eta,
                                        self.alpha)
        if halvings is not None:
            failed = np.flatnonzero(halvings > MAX_STEP_RETRIES)
            if failed.size:
                raise InvalidPrecisionError(
                    f"step {t} ({self.names[failed[0]]}): NGVI left the family "
                    f"(lambda2 >= 0) after {MAX_STEP_RETRIES} eta halvings", step=t)
            self.halvings[:, t - 1] = halvings[:, 0]
        self.lam = (l1, l2)
        return natural_to_standard(l1, l2)


class _OgaRows:
    def __init__(self, configs: list[OgaConfig], names: list[str], d: int, t_max: int):
        self.eta = _param([c.eta for c in configs])

    def update(self, m, sigma, g_m, g_sigma, t):
        return _oga_update(m, g_m, self.eta), None


class _OgaElRows:
    def __init__(self, configs: list[OgaElConfig], names: list[str], d: int, t_max: int):
        self.eta = _param([c.eta for c in configs])

    def update(self, m, sigma, g_m, g_sigma, t):
        return _ogael_update(m, sigma, g_m, g_sigma, self.eta)


#: The learner classes in the order of their rows: the Gaussian learners
#: first, so that their sigmas are one (k_gauss, d) block, then OGA; with
#: the name that errors give a learner the caller did not name.
_ROWS = {SvaConfig: (_SvaRows, "sva"), SvbConfig: (_SvbRows, "svb"),
         NgviConfig: (_NgviRows, "ngvi"), OgaElConfig: (_OgaElRows, "ogael"),
         OgaConfig: (_OgaRows, "oga")}


#: Normals per block of Monte-Carlo steps that ``lockstep`` draws in one
#: ``step_normals`` call (at least one step per block).
_DRAW_BLOCK_VALUES = 2 ** 15


def _step_eps(seed: int, t_max: int, samples: int, d: int):
    """The (samples, d) normals of steps 1, ..., t_max in order, row t being
    ``CounterRng(derive_seed(seed, t), MC_STREAM).normals(samples * d)``;
    drawn a block of steps at a time."""
    block = max(1, _DRAW_BLOCK_VALUES // (samples * d))
    for first in range(1, t_max + 1, block):
        count = min(block, t_max + 1 - first)
        yield from step_normals(seed, first, count, samples * d,
                                MC_STREAM).reshape(count, samples, d)


def _finite(a: np.ndarray) -> bool:
    # a - a is 0 where a is finite and NaN elsewhere, and cannot overflow
    zeros = (a - a).ravel()
    return zeros @ zeros == 0.0


@dataclass(frozen=True, eq=False)
class Walk:
    """What one learner recorded in a ``lockstep`` pass over the stream."""

    predictions: np.ndarray                # (T, d) decision before each update
    in_box: np.ndarray | None = None       # (T,) post-update box membership; None without a box
    final_sigma: np.ndarray | None = None  # (d,) sigma after the last step; None for oga
    halvings: np.ndarray | None = None     # (T,) NGVI eta halvings per step; NGVI only


def lockstep(configs: Sequence[LearnerConfig], data: Dataset, kind: LossKind, *,
             mc_samples: int = 32, seed: int = 0,
             names: Sequence[str] | None = None) -> list[Walk]:
    """Walk the rows of a dataset once and advance every learner at each
    step: each predicts, computes the gradient it needs and updates.
    Returns one Walk per config, in order ([] for no configs, without
    walking the stream).  The grid walks nothing: its weights depend only
    on the data, and ``run_online`` computes them in one pass, so an
    EwaGridConfig is a DomainError here.

    The learners' states are rows of stacked (k, d) arrays of means and
    sigmas.  One gradient call per step serves every Gaussian learner (the
    closed form, or one Monte-Carlo draw that all of them share), one more
    serves the OGA learners, and each learner class updates its own rows
    with its kernel.  Each row has the bits it would have in a pass of its
    own, so a learner's walk does not depend on the company it keeps.  The
    pass records only what a Walk holds: each learner's (T, d) decisions
    and, after each step, whether each state row lies in its config's box
    (True by construction on a projected row, whose clip's edges lie
    inside the box).

    Inputs are validated once here; each step then checks only that the
    gradients and the new states are finite with sigma > 0.  The pass fails
    at the first step where any learner fails; the error names the learner
    by ``names`` (default: its kind, e.g. ``ngvi``).  Deterministic given
    (configs, data, seed); the Monte-Carlo seed at step t is
    ``derive_seed(seed, t)`` so that all algorithms run under the same
    experiment seed share random numbers step by step (common random
    numbers).  The normals of those seeds are drawn a block of steps at a
    time in one ``step_normals`` call, bit for bit the per-step draw
    ``CounterRng(derive_seed(seed, t), MC_STREAM)``.
    """
    # contiguous rows, as DataExample copies them: the dot products of the
    # public per-example functions and of this run then round alike
    features, targets = np.ascontiguousarray(data.features), data.targets
    d = kind.param_dim(features.shape[1])
    for config in configs:
        if isinstance(config, EwaGridConfig):
            raise DomainError("the grid walks nothing: its weights depend only on the data, "
                              "and run_online computes them")
        if type(config) not in _ROWS:
            raise DomainError(f"unknown learner config {type(config).__name__}")
        if isinstance(config, OgaConfig) and config.box is None:
            raise DomainError("OGA needs a box to size theta; pass BoxConstraints")
        size = config.box.d if isinstance(config, OgaConfig) else config.prior.d
        if size != d or (config.box is not None and config.box.d != d):
            raise DimensionMismatchError(f"learner and box must have dimension {d} "
                                         f"for {kind.kind} on {features.shape[1]} features")
    if not configs:
        return []
    if names is None:
        names = [_ROWS[type(config)][1] for config in configs]
    t_max = features.shape[0]
    order = sorted(range(len(configs)), key=lambda i: list(_ROWS).index(type(configs[i])))
    k = len(order)
    k_gauss = sum(not isinstance(configs[i], OgaConfig) for i in order)
    # One state array: the k means (OGA's theta last), then the k_gauss
    # sigmas.  Row j's sigma is row k + j.
    state = np.zeros((k + k_gauss, d))
    means, m_gauss, m_oga, sigma = state[:k], state[:k_gauss], state[k_gauss:k], state[k:]
    sigma[:] = np.array([float(configs[i].prior.s) for i in order[:k_gauss]])[:, None]
    # each class's rows: its block, and views of its means and sigmas
    blocks, first = [], 0
    for cls, rows in groupby(order, key=lambda i: type(configs[i])):
        rows = list(rows)
        block = _ROWS[cls][0]([configs[i] for i in rows], [names[i] for i in rows], d, t_max)
        mine = slice(first, first + len(rows))
        blocks.append((block, mine, state[mine], sigma[mine]))
        first += len(rows)
    # the projection of the whole stack: each row's box, or none; and the
    # box each row's membership is checked against, or none
    projections = [_projection_box(configs[i]) for i in order]
    lo, hi = _row_edges(projections, k_gauss, d, "sigma_floor_lo")
    box_lo, box_hi = _row_edges([configs[i].box for i in order], k_gauss, d, "sigma_lo")
    project = any(box is not None for box in projections)
    # the decision before each step, learner-major, so that each learner's
    # (T, d) record is contiguous; and each state row's box membership after
    # it, column k + j for row j's sigma (always in for OGA, which has none)
    record = np.zeros((k, t_max, d))
    member = np.ones((t_max, 2 * k), dtype=bool)

    if kind.kind == SQUARED_NN and k_gauss:
        if mc_samples < 1:
            raise DomainError("mc_samples must be >= 1")
        eps_rows = _step_eps(seed, t_max, mc_samples, d)

        def gaussian_grad(m, s, x, y):
            return mc_grad_eps(kind, m, s, x, y, next(eps_rows))[1:]
    else:
        def gaussian_grad(m, s, x, y):
            return expected_grad_xy(kind, m, s, x, y)

    def fail(step, bad_rows, what):
        # a state row below k is a mean, and row k + j the sigma of row j
        name = names[min(order[r - k if r >= k else r] for r in np.flatnonzero(bad_rows))]
        raise DomainError(f"step {step} ({name}): {what}")

    for i, (x, y) in enumerate(zip(features, targets.tolist())):
        step = i + 1
        record[:, i] = means
        if not k_gauss:
            g_m, g_sigma = point_grad_xy(kind, m_oga, x, y), sigma
        else:
            g_m, g_sigma = gaussian_grad(m_gauss, sigma, x, y)
            if k > k_gauss:
                g_m = np.concatenate([g_m, point_grad_xy(kind, m_oga, x, y)])
        if not (_finite(g_m) and _finite(g_sigma)):
            fail(step, ~np.isfinite(np.concatenate([g_m, g_sigma])).all(axis=1),
                 "the gradient is not finite")
        for block, rows, m_rows, sigma_rows in blocks:
            m_rows[:], new_sigma = block.update(m_rows, sigma_rows, g_m[rows], g_sigma[rows],
                                                step)
            if new_sigma is not None:
                sigma_rows[:] = new_sigma
        if project:
            state.clip(lo, hi, out=state)
        ((state >= box_lo) & (state <= box_hi)).all(axis=1, out=member[i, :k + k_gauss])
        if not (_finite(state) and (not k_gauss or sigma.min() > 0.0)):
            fail(step, ~(np.isfinite(state) & ((np.arange(k + k_gauss) < k)[:, None]
                                               | (state > 0.0))).all(axis=1),
                 "the updated state is not finite with sigma > 0")

    walks = [None] * k
    for block, rows, _, _ in blocks:
        for j, row in enumerate(range(rows.start, rows.stop)):
            box = configs[order[row]].box
            walks[order[row]] = Walk(
                predictions=record[row],
                in_box=None if box is None else member[:, row] & member[:, k + row],
                final_sigma=sigma[row].copy() if row < k_gauss else None,
                halvings=block.halvings[j] if isinstance(block, _NgviRows) else None)
    return walks


def _row_edges(boxes: list, k_gauss: int, d: int,
               sigma_lo_attr: str) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) edges of a state stack whose rows have ``boxes``: a
    box's m_lo / m_hi on its mean row, and its ``sigma_lo_attr`` /
    sigma_hi on the sigma row of the first ``k_gauss`` rows; -inf / inf
    on the rows of no box."""
    free = np.full(d, -np.inf), np.full(d, np.inf)
    rows = [free if box is None else (box.m_lo, box.m_hi) for box in boxes]
    rows += [free if box is None else (getattr(box, sigma_lo_attr), box.sigma_hi)
             for box in boxes[:k_gauss]]
    return tuple(np.array(edge) for edge in zip(*rows))


def run_online(config: LearnerConfig, data: Dataset, kind: LossKind, *,
               mc_samples: int = 32, seed: int = 0, expert_losses: np.ndarray | None = None,
               walk: Walk | None = None) -> Trace:
    """Run one algorithm over the rows of a dataset: predict, compute the
    gradient the algorithm needs, update.

    The steps are a ``lockstep`` pass: ``walk`` passes in this learner's
    Walk when the caller has already made the pass with others, and by
    default the learner walks alone.  From the walk, one pass of
    ``point_loss_rows`` gives the point loss at every decision.

    For the grid, ``expert_losses`` may pass in the (T, K) matrix
    ``expert_loss_matrix(kind, config.experts, data.features, data.targets)``
    when the caller has already built it.
    """
    features, targets = np.ascontiguousarray(data.features), data.targets
    if isinstance(config, EwaGridConfig):
        return _run_ewa_grid(config, kind, expert_losses, features, targets)
    if walk is None:
        (walk,) = lockstep([config], data, kind, mc_samples=mc_samples, seed=seed)
    elif walk.predictions.shape != (features.shape[0], kind.param_dim(features.shape[1])):
        raise DimensionMismatchError(f"the walk has shape {walk.predictions.shape}, not "
                                     "(T, d) of this stream and loss")
    return Trace(predictions=walk.predictions,
                 losses=point_loss_rows(kind, walk.predictions, features, targets),
                 in_box=walk.in_box, final_sigma=walk.final_sigma, halvings=walk.halvings)


def _run_ewa_grid(config: EwaGridConfig, kind: LossKind, expert_losses: np.ndarray | None,
                  features: np.ndarray, targets: np.ndarray) -> Trace:
    """The grid's weights depend only on the data, never on its own
    predictions, so all T steps are one pass over the (T, K) expert-loss
    matrix: log w_t = -eta sum_{s<t} l_s up to normalization, the closed
    form of the multiplicative-weights recursion log w_{t+1} = log w_t -
    eta l_t from uniform weights."""
    d = kind.param_dim(features.shape[1])
    if config.experts.shape[1] != d:
        raise DimensionMismatchError(f"experts have dimension {config.experts.shape[1]}, "
                                     f"{kind.kind} needs {d}")
    shape = (features.shape[0], config.experts.shape[0])
    if expert_losses is None:
        expert_losses = expert_loss_matrix(kind, config.experts, features, targets)
    elif expert_losses.shape != shape:
        raise DimensionMismatchError(f"expert losses have shape {expert_losses.shape}; "
                                     f"{shape[0]} rows and {shape[1]} experts need {shape}")
    if not np.all(np.isfinite(expert_losses)):
        raise DomainError("expert losses must be finite")
    weights = np.zeros_like(expert_losses)
    np.cumsum(expert_losses[:-1], axis=0, out=weights[1:])
    weights *= -config.eta
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=1, keepdims=True)
    predictions = weights @ config.experts
    return Trace(predictions=predictions,
                 losses=point_loss_rows(kind, predictions, features, targets))
