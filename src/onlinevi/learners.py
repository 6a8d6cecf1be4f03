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
arrays.  ``run_online`` validates its inputs once, then advances one
learner over the rows of ``Dataset.features`` / ``Dataset.targets`` with
those kernels.  The loop does only the sequential work: record the
decision, compute the gradient, update, and check that the gradient and
the new state are finite with sigma > 0.  What depends only on the
recorded decisions and states, the point losses and box membership, is
computed after the loop in one vectorized pass.  The kernels and
``run_online`` are the only implementation of the learners.  The grid's
weights depend only on the data, so its T predictions come from the (T, K)
expert-loss matrix in one vectorized pass.  A run owns its arrays and runs
are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

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


# ---------------------------------------------------------------------------
# step-size schedules for SVB (eta_{t,j} as a vector over coordinates)


@dataclass(frozen=True)
class FixedEta:
    eta: float

    def rate(self, t: int, sigma: np.ndarray) -> np.ndarray:
        return np.full_like(sigma, self.eta)

    def describe(self) -> str:
        return f"fixed eta={self.eta:g}"


@dataclass(frozen=True)
class InvSigmaSqrtT:
    """The experiments' default eta_{t,j} = 1 / (sigma_{t,j}^2 sqrt(t))."""

    def rate(self, t: int, sigma: np.ndarray) -> np.ndarray:
        return 1.0 / (sigma ** 2 * np.sqrt(t))

    def describe(self) -> str:
        return "eta_t = 1/(sigma_t^2 sqrt(t))"


@dataclass(frozen=True)
class Thm3ConvexSchedule:
    """eta_{t,j} = D sqrt(2) / (L sqrt(t) sigma_{t,j}^2); the m-step then
    equals m - (D sqrt(2)/(L sqrt(t))) g_m independent of sigma."""

    D: float
    L: float

    def rate(self, t: int, sigma: np.ndarray) -> np.ndarray:
        return (self.D * np.sqrt(2.0)) / (self.L * np.sqrt(t) * sigma ** 2)

    def describe(self) -> str:
        return f"eta_tj = D*sqrt(2)/(L*sqrt(t)*sigma^2), D={self.D:g}, L={self.L:g}"


@dataclass(frozen=True)
class Thm3StrongSchedule:
    """eta_{t,j} = 2 / (H t sigma_{t,j}^2) for H-strongly-convex losses."""

    H: float

    def rate(self, t: int, sigma: np.ndarray) -> np.ndarray:
        return 2.0 / (self.H * t * sigma ** 2)

    def describe(self) -> str:
        return f"eta_tj = 2/(H*t*sigma^2), H={self.H:g}"


SvbSchedule = Union[FixedEta, InvSigmaSqrtT, Thm3ConvexSchedule, Thm3StrongSchedule]


# ---------------------------------------------------------------------------
# per-algorithm configs (only the fields the algorithm uses)


@dataclass(frozen=True)
class SvaConfig:
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
class NgviConfig:
    eta: float
    alpha: float
    prior: GaussianPrior
    # NGVI is never projected (no lambda-space projection is defined); a box
    # here only marks trace rows that leave it.
    box: BoxConstraints | None = None


@dataclass(frozen=True)
class OgaConfig:
    eta: float
    box: BoxConstraints | None = None


@dataclass(frozen=True)
class OgaElConfig:
    eta: float
    prior: GaussianPrior
    box: BoxConstraints | None = None


@dataclass(frozen=True, eq=False)
class EwaGridConfig:
    eta: float
    experts: np.ndarray  # (K, d)

    def __post_init__(self):
        experts = np.array(self.experts, dtype=float)
        if experts.ndim != 2 or experts.shape[0] < 1:
            raise DomainError("experts must be a nonempty (K, d) array")
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


def sva_step(m: np.ndarray, accum: np.ndarray, g_m: np.ndarray, g_sigma: np.ndarray,
             config: SvaConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s = config.prior.s
    m = m - config.eta * s * s * g_m
    accum = accum + g_sigma
    sigma = s * h_map(0.5 * config.eta * s * accum)
    if config.box is not None and config.project:
        m, sigma = config.box.clip(m, sigma)
    return m, sigma, accum


def svb_step(m: np.ndarray, sigma: np.ndarray, g_m: np.ndarray, g_sigma: np.ndarray,
             t: int, config: SvbConfig) -> tuple[np.ndarray, np.ndarray]:
    eta = config.schedule.rate(t, sigma)
    m = m - eta * sigma ** 2 * g_m
    sigma = sigma * h_map(0.5 * eta * sigma * g_sigma)
    if config.box is not None:
        m, sigma = config.box.clip(m, sigma)
    return m, sigma


def expectation_grad(g_m: np.ndarray, g_sigma: np.ndarray, m: np.ndarray,
                     sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule from (m, sigma) gradients to expectation coordinates
    (mu1, mu2) = (m, m^2 + sigma^2), for sigma > 0:

        g_var = g_sigma / (2 sigma)
        dL/dmu1 = g_m - 2 m g_var,   dL/dmu2 = g_var
    """
    g_var = g_sigma / (2.0 * sigma)
    return g_m - 2.0 * m * g_var, g_var


def ngvi_step(lam: tuple[np.ndarray, np.ndarray], g_mu1: np.ndarray, g_mu2: np.ndarray,
              lam_prior: NaturalParams, step: int,
              config: NgviConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Natural-parameter recursion on (lambda1, lambda2); returns the new pair
    and the number of eta halvings the step needed."""
    eta = config.eta
    for halvings in range(MAX_STEP_RETRIES + 1):
        beta = 1.0 / (1.0 / config.alpha + 1.0 / eta)
        l1 = (1.0 - beta) * lam[0] + beta * lam_prior.lambda1 - eta * beta * g_mu1
        l2 = (1.0 - beta) * lam[1] + beta * lam_prior.lambda2 - eta * beta * g_mu2
        if (l2 < 0.0).all():
            return l1, l2, halvings
        eta *= 0.5
    raise InvalidPrecisionError(
        f"NGVI step {step} left the family (lambda2 >= 0) after "
        f"{MAX_STEP_RETRIES} eta halvings",
        step=step,
    )


def oga_step(theta: np.ndarray, g: np.ndarray, config: OgaConfig) -> np.ndarray:
    theta = theta - config.eta * g
    if config.box is not None:
        theta = theta.clip(config.box.m_lo, config.box.m_hi)
    return theta


def ogael_step(m: np.ndarray, sigma: np.ndarray, g_m: np.ndarray, g_sigma: np.ndarray,
               config: OgaElConfig) -> tuple[np.ndarray, np.ndarray]:
    m = m - config.eta * g_m
    sigma = np.maximum(sigma - config.eta * g_sigma, SIGMA_FLOOR)
    if config.box is not None:
        m, sigma = config.box.clip(m, sigma)
    return m, sigma


# ---------------------------------------------------------------------------
# the online loop


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-step record of one online run (arrays indexed by step, 0-based)."""

    predictions: np.ndarray              # (T, d_pred) decision theta_hat_t
    losses: np.ndarray                   # (T,) point loss at the decision
    in_box: np.ndarray | None = None     # (T,) post-update box membership, if tracked
    sigmas: np.ndarray | None = None     # (T, d) post-update sigma; None for oga, ewagrid
    halvings: np.ndarray | None = None   # (T,) NGVI eta halvings per step; NGVI only

    @property
    def horizon(self) -> int:
        return self.losses.size


# The array state of one learner inside run_online: ``m`` is the decision
# (theta for OGA), ``sigma`` is None for OGA, ``update`` advances one step
# with the learner's kernel, and ``projected`` means every update lands in
# the box, so box membership needs no check.


class _Sva:
    def __init__(self, config: SvaConfig):
        self.config = config
        self.m, self.sigma = _prior_arrays(config.prior)
        self.accum = np.zeros(config.prior.d)
        self.projected = config.box is not None and config.project

    def update(self, g_m, g_sigma, t):
        self.m, self.sigma, self.accum = sva_step(self.m, self.accum, g_m, g_sigma, self.config)


class _Svb:
    def __init__(self, config: SvbConfig):
        self.config = config
        self.m, self.sigma = _prior_arrays(config.prior)
        self.projected = config.box is not None

    def update(self, g_m, g_sigma, t):
        self.m, self.sigma = svb_step(self.m, self.sigma, g_m, g_sigma, t, self.config)


class _Ngvi:
    projected = False  # no lambda-space projection is defined

    def __init__(self, config: NgviConfig):
        self.config = config
        self.m, self.sigma = _prior_arrays(config.prior)
        self.lam_prior = config.prior.natural()
        self.lam = (self.lam_prior.lambda1, self.lam_prior.lambda2)
        self.halvings = 0

    def update(self, g_m, g_sigma, t):
        g_mu1, g_mu2 = expectation_grad(g_m, g_sigma, self.m, self.sigma)
        l1, l2, self.halvings = ngvi_step(self.lam, g_mu1, g_mu2, self.lam_prior, t,
                                          self.config)
        self.lam = (l1, l2)
        self.m, self.sigma = natural_to_standard(l1, l2)


class _Oga:
    projected = True
    sigma = None

    def __init__(self, config: OgaConfig):
        if config.box is None:
            raise DomainError("OGA needs a box to size theta; pass BoxConstraints")
        self.config = config
        self.m = np.zeros(config.box.d)

    def update(self, g, _, t):
        self.m = oga_step(self.m, g, self.config)


class _OgaEl:
    def __init__(self, config: OgaElConfig):
        self.config = config
        self.m, self.sigma = _prior_arrays(config.prior)
        self.projected = config.box is not None

    def update(self, g_m, g_sigma, t):
        self.m, self.sigma = ogael_step(self.m, self.sigma, g_m, g_sigma, self.config)


_LEARNERS = {SvaConfig: _Sva, SvbConfig: _Svb, NgviConfig: _Ngvi, OgaConfig: _Oga,
             OgaElConfig: _OgaEl}


def _prior_arrays(prior: GaussianPrior) -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(prior.d), np.full(prior.d, float(prior.s))


#: Normals per block of Monte-Carlo steps that ``run_online`` draws in one
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
    zeros = a - a
    return zeros @ zeros == 0.0


def run_online(config: LearnerConfig, data: Dataset, kind: LossKind, *,
               mc_samples: int = 32, seed: int = 0,
               expert_losses: np.ndarray | None = None) -> Trace:
    """Run one algorithm over the rows of a dataset: predict, compute the
    gradient the algorithm needs, update.

    Inputs are validated once here; each step then checks only that the
    gradient and the new state are finite with sigma > 0.  After the loop,
    one pass of ``point_loss_rows`` gives the point loss at every decision,
    and one pass of ``BoxConstraints.contains_arrays`` the box membership
    of every post-update state.  Deterministic given (config, data, seed);
    the Monte-Carlo seed at step t is ``derive_seed(seed, t)`` so that all
    algorithms run under the same experiment seed share random numbers step
    by step (common random numbers).  The normals of those seeds are drawn
    a block of steps at a time in one ``step_normals`` call, bit for bit the
    per-step draw ``CounterRng(derive_seed(seed, t), MC_STREAM)``.

    For the grid, ``expert_losses`` may pass in the (T, K) matrix
    ``expert_loss_matrix(kind, config.experts, data.features, data.targets)``
    when the caller has already built it.
    """
    # contiguous rows, as DataExample copies them: the dot products of the
    # public per-example functions and of this run then round alike
    features, targets = np.ascontiguousarray(data.features), data.targets
    d = kind.param_dim(features.shape[1])
    if isinstance(config, EwaGridConfig):
        if config.experts.shape[1] != d:
            raise DimensionMismatchError(f"experts have dimension {config.experts.shape[1]}, "
                                         f"{kind.kind} needs {d}")
        if expert_losses is None:
            expert_losses = expert_loss_matrix(kind, config.experts, features, targets)
        elif expert_losses.shape != (features.shape[0], config.experts.shape[0]):
            raise DimensionMismatchError(f"expert losses have shape {expert_losses.shape}; "
                                         f"{features.shape[0]} rows and "
                                         f"{config.experts.shape[0]} experts need "
                                         f"({features.shape[0]}, {config.experts.shape[0]})")
        return _run_ewa_grid(config, kind, expert_losses, features, targets)
    if type(config) not in _LEARNERS:
        raise DomainError(f"unknown learner config {type(config).__name__}")
    box = config.box
    learner = _LEARNERS[type(config)](config)
    if learner.m.size != d or (box is not None and box.d != d):
        raise DimensionMismatchError(f"learner and box must have dimension {d} "
                                     f"for {kind.kind} on {features.shape[1]} features")

    if isinstance(config, OgaConfig):
        def gradient(m, sigma, x, y, step):
            return point_grad_xy(kind, m, x, y), None
    elif kind.kind == SQUARED_NN:
        if mc_samples < 1:
            raise DomainError("mc_samples must be >= 1")
        eps_rows = _step_eps(seed, features.shape[0], mc_samples, d)

        def gradient(m, sigma, x, y, step):
            return mc_grad_eps(kind, m, sigma, x, y, next(eps_rows))[1:]
    else:
        def gradient(m, sigma, x, y, step):
            return expected_grad_xy(kind, m, sigma, x, y)

    t_max = features.shape[0]
    predictions = np.zeros((t_max, d))
    sigmas = None if learner.sigma is None else np.zeros((t_max, d))
    halvings = np.zeros(t_max, dtype=int) if isinstance(learner, _Ngvi) else None

    for i, (x, y) in enumerate(zip(features, targets.tolist())):
        step = i + 1
        m = learner.m
        predictions[i] = m
        g_m, g_sigma = gradient(m, learner.sigma, x, y, step)
        if not (_finite(g_m) and (g_sigma is None or _finite(g_sigma))):
            raise DomainError(f"step {step}: the gradient is not finite")
        learner.update(g_m, g_sigma, step)
        m, sigma = learner.m, learner.sigma
        if not (_finite(m) and (sigma is None or (_finite(sigma) and sigma.min() > 0.0))):
            raise DomainError(f"step {step}: the updated state is not finite with sigma > 0")
        if sigmas is not None:
            sigmas[i] = sigma
        if halvings is not None:
            halvings[i] = learner.halvings

    in_box = None
    if box is not None:
        # the state after update t is the decision at t + 1, or the final state
        in_box = np.full(t_max, True) if learner.projected else box.contains_arrays(
            np.vstack([predictions[1:], learner.m]), sigmas)
    return Trace(predictions=predictions,
                 losses=point_loss_rows(kind, predictions, features, targets),
                 in_box=in_box, sigmas=sigmas, halvings=halvings)


def _run_ewa_grid(config: EwaGridConfig, kind: LossKind, expert_losses: np.ndarray,
                  features: np.ndarray, targets: np.ndarray) -> Trace:
    """The grid's weights depend only on the data, never on its own
    predictions, so all T steps are one pass over the (T, K) expert-loss
    matrix: log w_t = -eta sum_{s<t} l_s up to normalization, the closed
    form of the multiplicative-weights recursion log w_{t+1} = log w_t -
    eta l_t from uniform weights."""
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
