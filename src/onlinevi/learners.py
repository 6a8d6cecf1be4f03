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

``lockstep`` is the only implementation of the walking learners.  It
validates its inputs once, then walks the rows of ``Dataset.features`` /
``Dataset.targets`` once and advances all its learners at each step.
Their states are rows of one stacked array, the k means and then k
sigmas, and their gradients rows of one buffer of the same layout.  The
OGA rows' sigmas stay 0, outside the live rows that the step and the
checks see: on the convex losses one closed-form call then serves every
row, since with sigma = 0 it gives the point subgradient bit for bit; on
squared-nn one Monte-Carlo draw, shared by all Gaussian rows, and one
point call for the OGA rows.  A step (``_Step``) shares the formulas the
classes have in common.  The means of SVA, SVB, OGA-EL and OGA all move
as m - c g_m, in one multiply-subtract; the sigmas of SVA and SVB are
both base * h(a v), in one h-map into a buffer.  Whatever does not change
from step to step is computed once per pass as constant rows: SVA's
(eta s) s and (eta/2) s, NGVI's beta terms, and each SVB schedule's
eta_t = num / (c tau_t sigma^2) from num and a (T, rows, 1) table of
c tau_t.  NGVI's recursion runs in place, in buffers, in one loop of
attempts: a row that leaves the family has its eta halved and its lambda'
recomputed from the same lambda, and the step counts its halvings.  Every
operation is elementwise or along a row, in the order of products of the
formulas above, so each row has the bits it would have alone, and a
learner's trace does not depend on the company it walks in.  The loop
does only the sequential work: record the decisions, compute the
gradients, update, clip to the boxes, record each state row's box
membership, and check once for the whole stack that the gradients and
the new states are finite with sigma > 0.  It never records the states.

A pass streams its decisions.  It walks the stream in blocks of B steps,
B k d being about ``losses.TILE_VALUES``, and keeps the k learners'
decisions in one reused (k, B, d) buffer.  At the end of each block it
computes their point losses (``point_loss_rows``, the bits of one call over
all T) and hands each learner's rows to that learner's readers: objects
with a ``take(start, block)`` that keep (T,) records or O(d^2) sums, such
as ``evaluation.DecisionMean`` (theta_bar) and ``evaluation.JensenAudit``.
So a pass holds O(k B d + k T) values, and no decision array of T rows
unless a ``Decisions`` reader keeps one: ``run_online``, one learner in a
pass of its own, does, so that its Trace has the (T, d) decisions.  The
grid's weights depend only on the data, so it walks nothing: ``lockstep``
walks only the other learners and rejects a grid, and ``grid_pass`` gives
the grid's T predictions from its expert losses, a tile of rows at a time
(``expert_loss_blocks``), without holding the (T, K) matrix, and hands
each tile's predictions to readers as ``lockstep`` does.  A run owns its
arrays and runs are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .data import Dataset
from .errors import DimensionMismatchError, DomainError, InvalidPrecisionError
from .family import SIGMA_FLOOR, BoxConstraints, GaussianPrior, h_map
from .losses import (
    MC_STREAM,
    SQUARED_NN,
    TILE_VALUES,
    LossKind,
    expected_grad_xy,
    expert_loss_matrix,
    mc_grad_eps,
    point_grad_xy,
    point_loss_rows,
    row_blocks,
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
#
# Every schedule's ``terms`` is (num, c, tau): eta_{t,j} = num / (c tau_t
# sigma_{t,j}^2) with tau_t = sqrt(t) (SQRT_T) or t (LINEAR_T), or the fixed
# eta_{t,j} = num / c (FIXED).  ``lockstep`` makes (k, 1) parameter columns
# of them and orders SVB's rows by tau, in that order.

SQRT_T, LINEAR_T, FIXED = 0, 1, 2


@dataclass(frozen=True)
class FixedEta(_PositiveFields):
    _POSITIVE = ("eta",)
    eta: float

    @property
    def terms(self) -> tuple[float, float, int]:
        return self.eta, 1.0, FIXED

    def describe(self) -> str:
        return f"fixed eta={self.eta:g}"


@dataclass(frozen=True)
class InvSigmaSqrtT:
    """The experiments' default eta_{t,j} = 1 / (sigma_{t,j}^2 sqrt(t))."""

    @property
    def terms(self) -> tuple[float, float, int]:
        return 1.0, 1.0, SQRT_T

    def describe(self) -> str:
        return "eta_t = 1/(sigma_t^2 sqrt(t))"


@dataclass(frozen=True)
class Thm3ConvexSchedule(_PositiveFields):
    """eta_{t,j} = D sqrt(2) / (L sqrt(t) sigma_{t,j}^2); the m-step then
    equals m - (D sqrt(2)/(L sqrt(t))) g_m independent of sigma."""

    _POSITIVE = ("D", "L")
    D: float
    L: float

    @property
    def terms(self) -> tuple[float, float, int]:
        return self.D * math.sqrt(2.0), self.L, SQRT_T

    def describe(self) -> str:
        return f"eta_tj = D*sqrt(2)/(L*sqrt(t)*sigma^2), D={self.D:g}, L={self.L:g}"


@dataclass(frozen=True)
class Thm3StrongSchedule(_PositiveFields):
    """eta_{t,j} = 2 / (H t sigma_{t,j}^2) for H-strongly-convex losses."""

    _POSITIVE = ("H",)
    H: float

    @property
    def terms(self) -> tuple[float, float, int]:
        return 2.0, self.H, LINEAR_T

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
# the formulas behind the updates


def _projection_box(config: LearnerConfig) -> BoxConstraints | None:
    """The box every update of the learner is clipped to, if any."""
    if isinstance(config, NgviConfig) or (isinstance(config, SvaConfig) and not config.project):
        return None  # NGVI has no lambda-space projection
    return config.box


def expectation_grad(g_m: np.ndarray, g_sigma: np.ndarray, m: np.ndarray,
                     sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain rule from (m, sigma) gradients to expectation coordinates
    (mu1, mu2) = (m, m^2 + sigma^2), for sigma > 0:

        g_var = g_sigma / (2 sigma)
        dL/dmu1 = g_m - 2 m g_var,   dL/dmu2 = g_var
    """
    g_var = g_sigma / (2.0 * sigma)
    return g_m - 2.0 * m * g_var, g_var


def _ngvi_terms(eta, alpha, lam_prior):
    """(1 - beta, beta lambda_prior, eta beta) of the NGVI recursion at
    step size eta, 1/beta = 1/alpha + 1/eta: what a step takes from eta."""
    beta = 1.0 / (1.0 / alpha + 1.0 / eta)
    return 1.0 - beta, beta * lam_prior, eta * beta


# ---------------------------------------------------------------------------
# the online loop


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-step record of one online run (arrays indexed by step, 0-based):
    what a pass keeps of a learner, O(T), and its decisions only when a
    ``Decisions`` reader kept them."""

    losses: np.ndarray                     # (T,) point loss at the decision
    in_box: np.ndarray | None = None       # (T,) post-update box membership; None without a box
    final_sigma: np.ndarray | None = None  # (d,) sigma after the last step; None for oga, ewagrid
    halvings: np.ndarray | None = None     # (T,) NGVI eta halvings per step; NGVI only
    predictions: np.ndarray | None = None  # (T, d) decision theta_hat_t, if kept


class Decisions:
    """A reader that keeps every decision: the (T, d) array ``rows``, which
    ``run_online`` returns as ``Trace.predictions``.  A reader's ``take(start,
    block)`` is handed the (n, d) decisions of steps start + 1, ..., start +
    n, in step order, in a buffer that the next block overwrites."""

    def __init__(self, t_max: int, d: int):
        self.rows = np.empty((t_max, d))

    def take(self, start: int, block: np.ndarray) -> None:
        self.rows[start:start + block.shape[0]] = block


#: The learner classes in the order of their rows, with the name that
#: errors give a learner the caller did not name.  NGVI comes first, so
#: that the means of the other four, which all step as m - c g_m, are one
#: block, and so are the sigmas of SVA and SVB, which both step as
#: base h(a v); the Gaussian learners come before OGA, so that their
#: sigmas are one block too.
_ROWS = {NgviConfig: "ngvi", SvaConfig: "sva", SvbConfig: "svb", OgaElConfig: "ogael",
         OgaConfig: "oga"}


def _row_key(config) -> tuple[int, int]:
    """The rows in class order, SVB's by the tau of its schedule: tau_t =
    sqrt(t) first, then tau_t = t, then the fixed step sizes."""
    tau = config.schedule.terms[2] if isinstance(config, SvbConfig) else 0
    return list(_ROWS).index(type(config)), tau


def _column(values) -> np.ndarray:
    """One parameter of some rows, as a (k, 1) column."""
    return np.array(values, dtype=float).reshape(-1, 1)


class _Step:
    """One step of every learner of a ``lockstep`` pass, in place on the
    live rows of the stacked ``state`` (the k means, then the sigmas of the
    Gaussian rows; OGA's zero sigmas lie outside them), from the gradient
    rows ``grad`` of the same layout.  ``configs`` are in row order,
    ``_row_key``'s.

    What does not change from step to step is computed once, here: each
    class's parameters as constant rows, and SVB's (c tau_t) column of every
    step as a (T, rows, 1) table.  A step is then one mean step m - c g_m
    for SVA, SVB, OGA-EL and OGA, with c = (eta s) s, eta_t sigma^2, eta and
    eta; one h-map (``h_map`` into a buffer) for the sigmas of SVA and SVB,
    base h(a v) with (base, a, v) = (s, (eta/2) s, sum of g_sigma) and
    (sigma, (eta_t/2) sigma, g_sigma); OGA-EL's floored sigma step; and
    NGVI's recursion, in place: its gradient in expectation coordinates and
    its lambda' go into buffers (two for lambda, swapped at each step).  It
    is one loop of at most MAX_STEP_RETRIES + 1 attempts: while some row
    leaves the family (lambda2' >= 0), eta is halved on each such row, the
    terms recomputed and lambda' recomputed from the same lambda into the
    same buffer, so every row keeps its bits and the step its halvings
    record; a step on which no row leaves takes one attempt.  Every
    operation is elementwise or along a row, in each row's own order of
    products, so each row gets the bits it would get on its own."""

    def __init__(self, configs: list, names: list[str], state: np.ndarray, grad: np.ndarray,
                 t_max: int):
        k, d = len(configs), state.shape[1]
        ngvi, sva, svb, ogael, oga = ([c for c in configs if type(c) is cls] for cls in _ROWS)
        n, n_sva, n_svb = len(ngvi), len(sva), len(svb)
        sigma, g_sigma = state[k:], grad[k:]
        # NGVI: its rows' (m, sigma, g_m, g_sigma); lambda (two buffers), its
        # prior, the gradient in expectation coordinates and the beta terms,
        # each (2, n, d)
        self.ngvi = (state[:n], sigma[:n], grad[:n], g_sigma[:n])
        self.ngvi_names, self.halvings = names[:n], np.zeros((n, t_max), dtype=int)
        self.eta, self.alpha = _column([c.eta for c in ngvi]), _column([c.alpha for c in ngvi])
        priors = [c.prior.natural() for c in ngvi]
        self.lam_prior = np.array([[p.lambda1 for p in priors],
                                   [p.lambda2 for p in priors]]).reshape(2, n, d)
        self.lam, self.lam_next = self.lam_prior.copy(), np.empty((2, n, d))
        self.g_mu, self.ngvi_work, self.var = np.empty((2, n, d)), np.empty((2, n, d)), \
            np.empty((n, d))
        self.terms = tuple(np.broadcast_to(term, (2, n, d)).copy()
                           for term in _ngvi_terms(self.eta, self.alpha, self.lam_prior))
        # the mean step of every other row, with SVB's c filled in at each step
        self.means, self.g_means = state[n:k], grad[n:k]
        self.coef, self.work = np.empty_like(self.means), np.empty_like(self.means)
        eta, s = _column([c.eta for c in sva]), _column([c.prior.s for c in sva])
        self.coef[:n_sva] = eta * s * s
        self.coef[n_sva + n_svb:] = _column([c.eta for c in ogael + oga])
        # the h-map of SVA's and SVB's sigmas: a v goes into av, h(a v) into h
        # and base h into the sigmas; SVB's rows of base, a and v are filled
        # in at each step
        self.h_sigma = sigma[n:n + n_sva + n_svb]
        self.base, self.a, self.v, self.av, self.h = (np.zeros_like(self.h_sigma)
                                                      for _ in range(5))
        self.base[:n_sva], self.a[:n_sva] = s, 0.5 * eta * s
        self.accum, self.g_accum = self.v[:n_sva], g_sigma[n:n + n_sva]
        # SVB: eta_t = num / ((c tau_t) sigma^2) on its first rows, tau_t being
        # sqrt(t) and then t, and the fixed eta = num / c on the rest
        svb_rows = slice(n + n_sva, n + n_sva + n_svb)
        self.svb_sigma, self.g_svb = sigma[svb_rows], g_sigma[svb_rows]
        self.svb_coef = self.coef[n_sva:n_sva + n_svb]
        self.svb_base, self.svb_a, self.svb_v = (b[n_sva:] for b in (self.base, self.a, self.v))
        taus = [c.schedule.terms[2] for c in svb]
        varying, roots = n_svb - taus.count(FIXED), taus.count(SQRT_T)
        num, c = (_column([cfg.schedule.terms[i] for cfg in svb]) for i in (0, 1))
        self.num = np.repeat(num[:varying], d, axis=1)
        # (c tau_t) of step t in row t - 1; sqrt and math.sqrt both round
        # correctly, so tau_t is the same number either way
        steps = np.arange(1.0, t_max + 1.0)
        tau = np.empty((t_max, varying, 1))
        tau[:, :roots, 0], tau[:, roots:, 0] = np.sqrt(steps)[:, None], steps[:, None]
        self.c_tau = c[:varying] * tau
        self.rate, self.sq = np.empty((n_svb, d)), np.empty((n_svb, d))
        self.rate[varying:] = num[varying:] / c[varying:]
        self.varying_rate, self.varying_sq = self.rate[:varying], self.sq[:varying]
        # OGA-EL's sigma step
        ogael_rows = slice(n + n_sva + n_svb, None)
        self.ogael = (sigma[ogael_rows], g_sigma[ogael_rows],
                      np.repeat(_column([c.eta for c in ogael]), d, axis=1),
                      np.full((len(ogael), d), SIGMA_FLOOR), np.empty((len(ogael), d)))

    def __call__(self, t: int) -> None:
        if self.ngvi_names:
            self._ngvi(t)
        if self.svb_coef.size:
            sigma, sq, rate, varying_rate = self.svb_sigma, self.sq, self.rate, self.varying_rate
            np.multiply(sigma, sigma, out=sq)
            if varying_rate.size:
                np.multiply(self.c_tau[t - 1], self.varying_sq, out=varying_rate)
                np.divide(self.num, varying_rate, out=varying_rate)
            np.multiply(rate, sq, out=self.svb_coef)
            np.multiply(np.multiply(0.5, rate, out=self.svb_a), sigma, out=self.svb_a)
            self.svb_base[:] = sigma
            self.svb_v[:] = self.g_svb
        np.subtract(self.means, np.multiply(self.coef, self.g_means, out=self.work),
                    out=self.means)
        if self.h_sigma.size:
            np.add(self.accum, self.g_accum, out=self.accum)
            h_map(np.multiply(self.a, self.v, out=self.av), out=self.h)
            np.multiply(self.base, self.h, out=self.h_sigma)
        sigma, g_sigma, eta, floor, work = self.ogael
        if eta.size:
            np.subtract(sigma, np.multiply(eta, g_sigma, out=work), out=sigma)
            np.maximum(sigma, floor, out=sigma)

    def _ngvi(self, t: int) -> None:
        m, sigma, g_m, g_sigma = self.ngvi
        g_mu, g_var, new = self.g_mu, self.g_mu[1], self.lam_next
        # g_var = g_sigma / (2 sigma), g_mu1 = g_m - (2 m) g_var
        np.divide(g_sigma, np.multiply(2.0, sigma, out=g_var), out=g_var)
        np.subtract(g_m, np.multiply(np.multiply(2.0, m, out=g_mu[0]), g_var, out=g_mu[0]),
                    out=g_mu[0])
        # lambda' = (keep lambda + pull) - rate g_mu, from the same lambda on
        # every attempt; while some row leaves the family (lambda2' >= 0),
        # eta is halved on that row and the terms recomputed
        (keep, pull, rate), eta = self.terms, self.eta
        for attempt in range(MAX_STEP_RETRIES + 1):
            np.add(np.multiply(keep, self.lam, out=new), pull, out=new)
            np.subtract(new, np.multiply(rate, g_mu, out=self.ngvi_work), out=new)
            if np.maximum.reduce(new[1], axis=None) < 0.0:
                break
            ok = (new[1] < 0.0).all(axis=-1, keepdims=True)
            if attempt == MAX_STEP_RETRIES:
                raise InvalidPrecisionError(
                    f"step {t} ({self.ngvi_names[np.flatnonzero(~ok)[0]]}): NGVI left the "
                    f"family (lambda2 >= 0) after {MAX_STEP_RETRIES} eta halvings", step=t)
            self.halvings[:, t - 1] += ~ok[:, 0]
            eta = np.where(ok, eta, 0.5 * eta)
            keep, pull, rate = _ngvi_terms(eta, self.alpha, self.lam_prior)
        self.lam, self.lam_next = new, self.lam
        # (m, sigma) = (var lambda1, sqrt(var)), var = -0.5 / lambda2
        var = np.divide(-0.5, new[1], out=self.var)
        np.multiply(var, new[0], out=m)
        np.sqrt(var, out=sigma)


def _step_eps(seed: int, t_max: int, samples: int, d: int):
    """The (samples, d) normals of steps 1, ..., t_max in order, row t being
    ``CounterRng(derive_seed(seed, t), MC_STREAM).normals(samples * d)``;
    drawn a block of about ``TILE_VALUES`` normals (at least one step) at a
    time."""
    block = max(1, TILE_VALUES // (samples * d))
    for first in range(1, t_max + 1, block):
        count = min(block, t_max + 1 - first)
        yield from step_normals(seed, first, count, samples * d,
                                MC_STREAM).reshape(count, samples, d)


def lockstep(configs: Sequence[LearnerConfig], data: Dataset, kind: LossKind, *,
             mc_samples: int = 32, seed: int = 0, names: Sequence[str] | None = None,
             readers: Sequence[Sequence] | None = None) -> list[Trace]:
    """Walk the rows of a dataset once and advance every learner at each
    step: each predicts, computes the gradient it needs and updates.
    Returns one Trace per config, in order ([] for no configs, without
    walking the stream).  The grid walks nothing: its weights depend only
    on the data, and ``grid_pass`` computes them in one pass, so an
    EwaGridConfig is a DomainError here.

    The learners' states are rows of one stacked array of means and
    sigmas, and their gradients rows of one buffer of the same layout.  One
    gradient call per step fills it for every learner on the convex losses
    (the closed form, OGA's rows with sigma = 0), and on squared-nn one
    Monte-Carlo draw that all Gaussian learners share plus one point call
    for the OGA learners; ``_Step`` updates every row.  Each row has the
    bits it would have in a pass of its own, so a learner's walk does not
    depend on the company it keeps.

    The pass walks the stream in blocks of B steps, B k d being about
    ``TILE_VALUES``, and keeps the k learners' decisions in one reused (k,
    B, d) buffer.  At the end of each block it computes every learner's
    point loss at its B decisions (``point_loss_rows``: each score is a lone
    dot product, or a network forward pass per row, so each has the bits of
    one call over all T) and hands each learner's (n, d) rows to its
    ``readers`` (one sequence of readers per config, each with a
    ``take(start, block)``, such as ``Decisions``).  So a pass holds O(k B d
    + k T) values, whatever its readers keep: each Trace holds the (T,)
    point losses and, after each step, whether each state row lies in its
    config's box (True by construction on a projected row, whose clip's
    edges lie inside the box), and no decisions.

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
                              "and grid_pass computes them")
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
        names = [_ROWS[type(config)] for config in configs]
    if readers is None:
        readers = [()] * len(configs)
    t_max = features.shape[0]
    order = sorted(range(len(configs)), key=lambda i: _row_key(configs[i]))
    k = len(order)
    k_gauss = sum(not isinstance(configs[i], OgaConfig) for i in order)
    # One state array: the k means (OGA's theta last), then k sigmas, row j's
    # sigma being row k + j; OGA's k - k_gauss sigmas stay 0, so that one
    # closed-form call serves every mean row (with sigma = 0 it gives the
    # point subgradient, bit for bit).  The gradients have the same layout,
    # g_m then g_sigma.  The step, the clip and the checks see the live rows
    # alone, the means and the Gaussian rows' sigmas.
    state = np.zeros((2 * k, d))
    rows = k + k_gauss
    live, means, sigma = state[:rows], state[:k], state[k:rows]
    sigma[:] = np.array([float(configs[i].prior.s) for i in order[:k_gauss]])[:, None]
    grad = np.zeros_like(state)
    live_grad = grad[:rows]
    advance = _Step([configs[i] for i in order], [names[i] for i in order], live, live_grad,
                    t_max)
    # the projection of the live rows: each row's box, or none; and the box
    # each row's membership is checked against, or none
    projections = [_projection_box(configs[i]) for i in order]
    lo, hi = _row_edges(projections, k_gauss, d, "sigma_floor_lo")
    box_lo, box_hi = _row_edges([configs[i].box for i in order], k_gauss, d, "sigma_lo")
    project = any(box is not None for box in projections)
    # the decisions of one block of steps, learner-major, so that each
    # learner's (n, d) rows are contiguous; every learner's point losses;
    # and each state row's box membership after each step, column k + j for
    # row j's sigma (always in for OGA, which has none)
    block = max(1, TILE_VALUES // (k * d))
    record = np.empty((k, min(block, t_max), d))
    losses = np.empty((k, t_max))
    member = np.ones((t_max, 2 * k), dtype=bool)
    row_readers = [readers[i] for i in order]
    # the per-step checks: a finite array has a zero dot product with zeros,
    # one with an inf or a NaN a NaN one; and the box comparisons' buffers
    zeros, flat_state, flat_grad = np.zeros(rows * d), live.reshape(-1), live_grad.reshape(-1)
    above, below = np.empty((rows, d), bool), np.empty((rows, d), bool)

    if kind.kind != SQUARED_NN:
        sigmas, g_all = state[k:], (grad[:k], grad[k:])

        def gradient(x, y):
            expected_grad_xy(kind, means, sigmas, x, y, out=g_all)
    else:
        if mc_samples < 1 and k_gauss:
            raise DomainError("mc_samples must be >= 1")
        eps_rows = _step_eps(seed, t_max, mc_samples, d) if k_gauss else None
        m_gauss, m_oga = state[:k_gauss], state[k_gauss:k]
        g_m_gauss, g_oga, g_sigma = grad[:k_gauss], grad[k_gauss:k], grad[k:rows]

        def gradient(x, y):
            if k_gauss:
                _, g_m_gauss[:], g_sigma[:] = mc_grad_eps(kind, m_gauss, sigma, x, y,
                                                           next(eps_rows))
            if k > k_gauss:
                g_oga[:] = point_grad_xy(kind, m_oga, x, y)

    def fail(step, bad_rows, what):
        # a state row below k is a mean, and row k + j the sigma of row j
        name = names[min(order[r - k if r >= k else r] for r in np.flatnonzero(bad_rows))]
        raise DomainError(f"step {step} ({name}): {what}")

    minimum, all_of = np.minimum.reduce, np.logical_and.reduce
    target_list = targets.tolist()
    for start in range(0, t_max, block):
        stop = min(start + block, t_max)
        for j, (x, y) in enumerate(zip(features[start:stop], target_list[start:stop])):
            step = start + j + 1
            record[:, j] = means
            gradient(x, y)
            if not flat_grad @ zeros == 0.0:
                fail(step, ~np.isfinite(live_grad).all(axis=1), "the gradient is not finite")
            advance(step)
            if project:
                live.clip(lo, hi, out=live)
            np.greater_equal(live, box_lo, out=above)
            all_of(np.logical_and(above, np.less_equal(live, box_hi, out=below), out=above),
                   axis=1, out=member[step - 1, :rows])
            if not (flat_state @ zeros == 0.0
                    and (not k_gauss or minimum(sigma, axis=None) > 0.0)):
                fail(step, ~(np.isfinite(live) & ((np.arange(rows) < k)[:, None]
                                                  | (live > 0.0))).all(axis=1),
                     "the updated state is not finite with sigma > 0")
        decided = record[:, :stop - start]
        losses[:, start:stop] = point_loss_rows(kind, decided, features[start:stop],
                                                targets[start:stop])
        for rows_of_learner, readers_of_learner in zip(decided, row_readers):
            for reader in readers_of_learner:
                reader.take(start, rows_of_learner)

    traces = [None] * k
    for row, i in enumerate(order):
        box = configs[i].box
        traces[i] = Trace(losses=losses[row],
                          in_box=None if box is None else member[:, row] & member[:, k + row],
                          final_sigma=sigma[row].copy() if row < k_gauss else None,
                          halvings=advance.halvings[row] if row < len(advance.halvings) else None)
    return traces


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
               mc_samples: int = 32, seed: int = 0, walk: Trace | None = None) -> Trace:
    """Run one algorithm over the rows of a dataset: predict, compute the
    gradient the algorithm needs, update.  By default the learner makes a
    pass of its own (``lockstep``, or ``grid_pass`` for the grid) with a
    ``Decisions`` reader, so its Trace keeps the (T, d) decisions.  ``walk``
    passes in instead this learner's Trace from a pass that the caller made
    with others, which is checked against the stream and returned as it is:
    it keeps no decisions."""
    if walk is not None:
        if walk.losses.shape != (data.T,):
            raise DimensionMismatchError(f"the walk has {walk.losses.size} steps, not the "
                                         f"T = {data.T} of this stream")
        return walk
    decisions = Decisions(data.T, kind.param_dim(data.d))
    if isinstance(config, EwaGridConfig):
        trace = grid_pass(config, data, kind, [decisions])
    else:
        (trace,) = lockstep([config], data, kind, mc_samples=mc_samples, seed=seed,
                            readers=[[decisions]])
    return replace(trace, predictions=decisions.rows)


def expert_loss_blocks(kind: LossKind, experts: np.ndarray, features: np.ndarray,
                       targets: np.ndarray):
    """The (T, K) losses of the K experts along the stream, a block of rows
    at a time in one reused tile (``row_blocks``), with no (T, K) array.
    For each block of rows a, ..., b - 1 it yields a, the block's (b - a, K)
    losses, and the (b - a + 1, K) running sums S_a, ..., S_b, where S_t =
    l_0 + ... + l_{t-1} adds the rows in order, carried from block to
    block: so S_t has the bits of a cumulative sum over the whole matrix,
    and S_T those of its column sums.  The next block overwrites both
    arrays; the caller may overwrite every row of the sums but the last."""
    tile, blocks = row_blocks(features.shape[0], experts.shape[0])
    sums = np.zeros((tile.shape[0] + 1, experts.shape[0]))
    for a, b in blocks:
        losses = expert_loss_matrix(kind, experts, features[a:b], targets[a:b], tile[:b - a])
        sums[1:b - a + 1] = losses
        np.cumsum(sums[:b - a + 1], axis=0, out=sums[:b - a + 1])
        yield a, losses, sums[:b - a + 1]
        sums[0] = sums[b - a]


def grid_pass(config: EwaGridConfig, data: Dataset, kind: LossKind,
              readers: Sequence = ()) -> Trace:
    """The grid's Trace, and its decisions handed to ``readers`` as
    ``lockstep`` hands a learner's.  The grid's weights depend only on the
    data, never on its own predictions, so all T steps are one pass over the
    expert losses: log w_t = -eta S_t up to normalization, with S_t the
    running sum of the losses before step t, the closed form of the
    multiplicative-weights recursion log w_{t+1} = log w_t - eta l_t from
    uniform weights.  The pass takes the losses and their running sums a
    block of rows at a time (``expert_loss_blocks``), turns the sums into
    weights in place, and hands each block's predictions and their point
    losses on, so it holds no (T, K) and no (T, d) array.

    Row t of the weighted sum of the experts is ``einsum``'s sum over k on
    row t alone, so a prediction has the same bits in any block and in any
    prefix of the stream; a BLAS product (``weights @ experts``) rounds by
    the number of rows it is given."""
    features, targets = np.ascontiguousarray(data.features), data.targets
    d = kind.param_dim(features.shape[1])
    if config.experts.shape[1] != d:
        raise DimensionMismatchError(f"experts have dimension {config.experts.shape[1]}, "
                                     f"{kind.kind} needs {d}")
    losses, buffer = np.empty(features.shape[0]), None
    for start, expert_losses, sums in expert_loss_blocks(kind, config.experts, features,
                                                         targets):
        if not np.all(np.isfinite(expert_losses)):
            raise DomainError("expert losses must be finite")
        weights = sums[:-1]
        weights *= -config.eta
        weights -= weights.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=1, keepdims=True)
        if buffer is None:
            buffer = np.empty((len(weights), d))
        block = np.einsum("tk,kd->td", weights, config.experts, out=buffer[:len(weights)])
        stop = start + len(block)
        losses[start:stop] = point_loss_rows(kind, block, features[start:stop],
                                             targets[start:stop])
        for reader in readers:
            reader.take(start, block)
    return Trace(losses=losses)
