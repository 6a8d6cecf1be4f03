"""Regret accounting, hindsight comparators, bound calculators, and
online-to-batch conversion.

Bound formulas implemented (slack on the cumulative loss of the learner
against the stated comparator):

    grid EWA            eta B^2 T / 8 + KL / eta
    SVA                 eta L^2 T / alpha + KL / eta
    SVB  (convex)       D L sqrt(2 T)
    SVB  (strongly cvx) L^2 (1 + log T) / H
    OGA-EL              eta L^2 T + ||mu - mu_1||^2 / eta
    OGA-EL (KL form)    eta L^2 T + alpha KL / (2 eta)

alpha is the strong-convexity constant of the KL to the N(0, s^2 I) prior,
exactly 1/s^2 (``alpha_estimate``).  The hindsight comparator is projected
subgradient descent on ``losses.mean_loss_and_grad``, one kernel for every
loss kind.

Checks log (empirical regret, bound, slack ratio) rather than only
pass/fail so loose bounds stay informative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionMismatchError, DomainError
from .family import BoxConstraints, GaussianPrior
from .losses import LossKind, expert_loss_matrix, mean_loss_and_grad, point_loss_series
from .losses import nn_batch_mean_grad  # noqa: F401  (a name the benchmark's tracer wraps)
from .rng import CounterRng


# ---------------------------------------------------------------------------
# ledgers and regret


@dataclass(frozen=True, eq=False)
class RegretLedger:
    """Per-step losses with running sums and running averages."""

    losses: np.ndarray
    cumulative: np.ndarray
    averages: np.ndarray

    @property
    def horizon(self) -> int:
        return self.losses.size

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])

    @property
    def final_average(self) -> float:
        return float(self.averages[-1])


def build_ledger(losses) -> RegretLedger:
    """Left-to-right running sums of per-step losses (``Trace.losses``);
    summation order is fixed for reproducibility."""
    losses = np.array(losses, dtype=float).reshape(-1)
    if losses.size == 0:
        raise DataError("trace must be nonempty")
    if not np.all(np.isfinite(losses)):
        raise DataError("trace contains non-finite losses")
    cumulative = np.cumsum(losses)
    averages = cumulative / np.arange(1, losses.size + 1)
    for arr in (losses, cumulative, averages):
        arr.setflags(write=False)
    return RegretLedger(losses, cumulative, averages)


@dataclass(frozen=True, eq=False)
class ComparatorResult:
    """Best fixed parameter in hindsight over the mean box."""

    theta_star: np.ndarray
    cumulative_loss_star: float  # total (not averaged) loss of theta_star
    diagnostics: Mapping

    @property
    def average_loss_star(self) -> float:
        return self.cumulative_loss_star / self.diagnostics["horizon"]


def _pgd_minimize(value_and_grad, project, starts, iters: int, radius: float):
    """Projected subgradient descent with step c/sqrt(k), tracking the best
    iterate seen; ``value_and_grad(theta)`` gives the objective and a
    subgradient in one call.  Returns (best theta, best value, final grad
    norm)."""
    best_theta = None
    best_value = np.inf
    for theta0 in starts:
        theta = project(np.asarray(theta0, dtype=float))
        value, g = value_and_grad(theta)
        if value < best_value:
            best_theta, best_value = theta.copy(), value
        c = radius / max(float(np.linalg.norm(g)), 1e-12)
        for k in range(1, iters + 1):
            theta = project(theta - (c / np.sqrt(k)) * g)
            value, g = value_and_grad(theta)
            if value < best_value:
                best_theta, best_value = theta.copy(), value
    final_gnorm = float(np.linalg.norm(value_and_grad(best_theta)[1]))
    return best_theta, best_value, final_gnorm


def best_in_hindsight(data: Dataset, kind: LossKind, box: BoxConstraints, *,
                      restarts: int = 20, iters: int = 2000,
                      seed: int = 0) -> ComparatorResult:
    """inf over theta in M_m of the total stream loss.

    Projected subgradient descent on the average loss with ``restarts``
    random restarts and step c/sqrt(k), plus the origin and, for the convex
    kinds, the projected least-squares solution as warm starts.  Each step
    evaluates the mean loss and its subgradient in one pass of
    ``losses.mean_loss_and_grad``, the same for every loss kind.  For the
    convex kinds the best value is within 1e-3 relative of the infimum on
    the validation instances; for squared_nn the search is local and
    labeled as such.
    """
    features, targets = data.features, data.targets
    t_len, d_in = features.shape
    d_param = kind.param_dim(d_in)
    if box.d != d_param:
        raise DimensionMismatchError(
            f"box dimension {box.d} must match parameter dimension {d_param}")

    def project(theta):
        return np.clip(theta, box.m_lo, box.m_hi)

    def value_and_grad(theta):
        return mean_loss_and_grad(kind, theta, features, targets)

    starts = [np.zeros(d_param)]
    if kind.convex:
        ls, *_ = np.linalg.lstsq(features, targets, rcond=None)
        starts.append(project(ls))
    rng = CounterRng(seed, "best-in-hindsight")
    widths = box.m_hi - box.m_lo
    for _ in range(restarts):
        u = rng.uniforms(d_param)
        starts.append(box.m_lo + u * widths)

    radius = 0.5 * float(np.linalg.norm(widths))
    theta_star, _, gnorm = _pgd_minimize(value_and_grad, project, starts, iters, radius)
    total = float(np.sum(point_loss_series(kind, theta_star, features, targets)))
    diagnostics = {
        "restarts": restarts,
        "iterations": iters,
        "final_grad_norm": gnorm,
        "horizon": t_len,
        "method": "projected_subgradient" if kind.convex else "local",
    }
    return ComparatorResult(theta_star, total, diagnostics)


def regret(ledger: RegretLedger, comparator: ComparatorResult) -> float:
    """Total learner loss minus the comparator total; may be negative since
    the comparator is restricted to the box."""
    if ledger.horizon != comparator.diagnostics.get("horizon", ledger.horizon):
        raise DomainError("ledger and comparator horizons differ")
    return ledger.total - comparator.cumulative_loss_star


# ---------------------------------------------------------------------------
# bound calculators


@dataclass(frozen=True)
class BoundInputs:
    """Constants entering the regret bounds, as applicable per theorem."""

    T: int
    eta: float | None = None
    B: float | None = None
    L: float | None = None
    H: float | None = None
    alpha: float | None = None
    D: float | None = None
    kl_term: float | None = None
    dist_sq: float | None = None


def _require(inputs: BoundInputs, *names: str) -> list[float]:
    values = []
    for name in names:
        value = getattr(inputs, name)
        if value is None:
            raise DomainError(f"bound requires {name}")
        if name != "kl_term" and name != "dist_sq" and value <= 0:
            raise DomainError(f"bound requires {name} > 0")
        if name in ("kl_term", "dist_sq") and value < 0:
            raise DomainError(f"bound requires {name} >= 0")
        values.append(float(value))
    return values


def ewa_bound(inputs: BoundInputs) -> float:
    """eta B^2 T / 8 + kl / eta (kl = log K for a point mass on a uniform
    K-expert grid)."""
    eta, b, t, kl = _require(inputs, "eta", "B", "T", "kl_term")
    return eta * b * b * t / 8.0 + kl / eta


def sva_bound(inputs: BoundInputs) -> float:
    """eta L^2 T / alpha + kl / eta."""
    eta, lip, alpha, t, kl = _require(inputs, "eta", "L", "alpha", "T", "kl_term")
    return eta * lip * lip * t / alpha + kl / eta


def svb_bounds(inputs: BoundInputs) -> tuple[float, float | None]:
    """(D L sqrt(2T), L^2 (1 + log T)/H); the second is None without H."""
    d, lip, t = _require(inputs, "D", "L", "T")
    convex = d * lip * np.sqrt(2.0 * t)
    strong = None
    if inputs.H is not None:
        (h,) = _require(inputs, "H")
        strong = lip * lip * (1.0 + np.log(t)) / h
    return float(convex), strong


def ogael_bound(inputs: BoundInputs) -> float:
    """eta L^2 T + ||mu - mu_1||^2 / eta."""
    eta, lip, t, dist_sq = _require(inputs, "eta", "L", "T", "dist_sq")
    return eta * lip * lip * t + dist_sq / eta


def ogael_kl_bound(inputs: BoundInputs) -> float:
    """eta L^2 T + alpha kl / (2 eta)."""
    eta, lip, t, alpha, kl = _require(inputs, "eta", "L", "T", "alpha", "kl_term")
    return eta * lip * lip * t + alpha * kl / (2.0 * eta)


# ---------------------------------------------------------------------------
# online-to-batch and generalization


def online_to_batch(predictions) -> np.ndarray:
    """theta_bar_T = (1/T) sum_t theta_hat_t of the (T, d) decisions
    (``Trace.predictions``)."""
    preds = np.asarray(predictions, dtype=float)
    if preds.ndim != 2 or preds.shape[0] == 0:
        raise DataError("predictions must be a nonempty (T, d) array")
    return preds.mean(axis=0)


def generalization_estimate(theta_bar, holdout: Dataset,
                            kind: LossKind) -> tuple[float, float]:
    """Mean and standard error of the point loss of theta_bar on held-out
    examples."""
    losses = point_loss_series(kind, theta_bar, holdout.features, holdout.targets)
    n = losses.size
    mean = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se


# ---------------------------------------------------------------------------
# strong convexity of the KL regularizer


def alpha_estimate(prior: GaussianPrior) -> float:
    """The strong-convexity constant alpha of mu = (m, sigma) -> KL(q_mu,
    prior) for the isotropic prior N(0, s^2 I), exactly 1/s^2.

    The KL separates across coordinates; per coordinate it is log(s /
    sigma) + (sigma^2 + m^2) / (2 s^2) - 1/2, with Hessian diag(1/s^2,
    1/s^2 + 1/sigma^2).  Its smallest eigenvalue is 1/s^2 at every (m,
    sigma > 0), so no box enters.
    """
    return 1.0 / prior.s ** 2


# ---------------------------------------------------------------------------
# per-realization Jensen audit used by the online-to-batch criterion


def jensen_holdout_audit(predictions: np.ndarray, holdout: Dataset, kind: LossKind) -> bool:
    """For convex kinds: point_loss(theta_bar, ex) <= mean_t point_loss
    (theta_hat_t, ex) for every holdout example, deterministically."""
    if not kind.convex:
        raise DomainError("Jensen audit applies to convex kinds only")
    preds = np.asarray(predictions, dtype=float)
    features, targets = holdout.features, holdout.targets
    # (H, T): the loss of every prediction on every holdout example
    averaged = expert_loss_matrix(kind, preds, features, targets).mean(axis=1)
    at_bar = point_loss_series(kind, preds.mean(axis=0), features, targets)
    return bool(np.all(at_bar <= averaged))
