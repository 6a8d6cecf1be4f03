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
exactly 1/s^2 (``alpha_estimate``).  The hindsight comparator evaluates
``losses.mean_loss_and_grad``, one kernel for every loss kind, and has one
search per loss class.  For the convex kinds it is projected subgradient
descent that returns a lower bound on the infimum with its point and stops
once the two meet (method "certified"): the Frank-Wolfe bound of a
subgradient for both kinds, the LP dual bound for hinge, and the
unconstrained least-squares minimum for squared_linear.  For squared_nn it
is spectral projected gradient from small random starts, which stops each
start when it stalls, against the closed-form end point of a start at the
origin (method "local").
The online-to-batch average theta_bar and the Jensen audit, which compares
its two sides up to a stated rounding allowance, are readers of the
decisions (``DecisionMean``, ``JensenAudit``): a pass hands them a block of
steps at a time and they keep O(d^2 + holdout rows) values, never the
decisions.  ``online_to_batch`` and ``jensen_holdout_audit`` are the same
readers handed a (T, d) array in one block.

Checks log (empirical regret, bound, slack ratio) rather than only
pass/fail so loose bounds stay informative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset
from .errors import DataError, DimensionMismatchError, DomainError
from .family import BoxConstraints, GaussianPrior
from .losses import (HINGE, SQUARED_LINEAR, TILE_VALUES, LossKind, expert_loss_matrix,
                     mean_loss_and_grad, nn_workspace, point_loss_series, row_blocks)
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
    """Best fixed parameter in hindsight over the mean box, with a lower
    bound on the infimum (0 for the local search of squared_nn)."""

    theta_star: np.ndarray
    cumulative_loss_star: float  # total (not averaged) loss of theta_star
    lower_bound: float           # <= the infimum of the total loss over the box
    diagnostics: Mapping

    @property
    def average_loss_star(self) -> float:
        return self.cumulative_loss_star / self.diagnostics["horizon"]

    @property
    def gap(self) -> float:
        """cumulative_loss_star - lower_bound: how far theta_star can be
        from the infimum."""
        return self.cumulative_loss_star - self.lower_bound


#: The convex comparator stops, with method "certified", once its total is
#: within this relative duality gap of its lower bound:
#: total - lower_bound <= _CERTIFIED_GAP * max(1, total).
_CERTIFIED_GAP = 1e-9


def _gap_closed(total: float, lower_bound: float) -> bool:
    return total - lower_bound <= _CERTIFIED_GAP * max(1.0, total)


def _checkpoints(iters: int) -> set[int]:
    """The steps of each start at which the convex comparator tries a
    certificate: k = 0, the powers of two, and the last iterate."""
    return {0, iters} | {2 ** i for i in range(iters.bit_length())}


def _pgd_minimize(value_and_grad, project, starts, iters: int, radius: float,
                  certify):
    """Projected subgradient descent with step c/sqrt(k) for the convex
    kinds, tracking the best iterate seen; ``value_and_grad(theta)`` gives
    the objective and a subgradient in one call.

    ``certify(theta)`` is called with the best point so far at the steps
    ``_checkpoints(iters)`` of every start.  It returns a point in the box
    (or None), that point's value and a lower bound on the infimum, and the
    search returns as soon as the best value and the best lower bound close
    the gap (``_gap_closed``).  Returns (best theta, best value, best lower
    bound).
    """
    best_theta, best_value, lower = None, np.inf, -np.inf
    checkpoints = _checkpoints(iters)
    for theta0 in starts:
        theta = project(np.asarray(theta0, dtype=float))
        value, g = value_and_grad(theta)
        c = radius / max(float(np.linalg.norm(g)), 1e-12)
        for k in range(iters + 1):
            if k:
                theta = project(theta - (c / math.sqrt(k)) * g)
                value, g = value_and_grad(theta)
            if value < best_value:
                best_theta, best_value = theta.copy(), value
            if k in checkpoints:
                point, point_value, bound = certify(best_theta)
                if point_value < best_value:
                    best_theta, best_value = point, point_value
                if bound > lower:
                    lower = bound
                if _gap_closed(best_value, lower):
                    return best_theta, best_value, lower
    return best_theta, best_value, lower


#: The squared_nn search (``_spg_minimize``): the sufficient decrease of
#: Armijo's test, the halvings one step may take, and the range of the
#: Barzilai-Borwein step length.
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
_MIN_STEP, _MAX_STEP = 1e-10, 1e10

#: A start of the squared_nn search ends once its value fell by at most
#: _STALL_DROP, relative, over its last _STALL_STEPS steps.
_STALL_STEPS = 50
_STALL_DROP = 1e-3

#: Standard deviation of the squared_nn search's random starts.  Starts
#: spread over the box would be networks with huge outputs.
_NN_START_SCALE = 0.5


def _step_length(num: float, den: float) -> float:
    """num / den clipped to [_MIN_STEP, _MAX_STEP]; _MAX_STEP when den <= 0."""
    return _MAX_STEP if den <= 0.0 else min(max(num / den, _MIN_STEP), _MAX_STEP)


def _spg_minimize(value_and_grad, project, starts, iters: int):
    """Spectral projected gradient (Birgin, Martinez & Raydan, SIAM J.
    Optim. 2000) with a monotone line search, for a smooth objective on the
    box; ``value_and_grad(theta)`` gives the objective and its gradient in
    one call.

    From each start, every step moves along d = project(theta - lam g) -
    theta and halves the move until Armijo's test f(theta + a d) <= f +
    _ARMIJO a g.d passes.  The next lam is the Barzilai-Borwein length s.s
    / s.y of the accepted move s and gradient change y (``_step_length``),
    starting from 1 / max |project(theta - g) - theta|.  A start ends after
    ``iters`` steps, when it stalls (_STALL_DROP over _STALL_STEPS steps),
    when d is not a descent direction, or when _MAX_HALVINGS halvings
    fail.  Each start's value never rises, so its last point is its best.
    Returns (best theta, best value).
    """
    best_theta, best_value = None, np.inf
    for theta0 in starts:
        theta = project(np.asarray(theta0, dtype=float))
        value, g = value_and_grad(theta)
        lam = _step_length(1.0, float(np.max(np.abs(project(theta - g) - theta))))
        history = [value]
        for _ in range(iters):
            direction = project(theta - lam * g) - theta
            slope = float(g @ direction)
            if not slope < 0.0:
                break
            for halving in range(_MAX_HALVINGS + 1):
                a = 0.5 ** halving
                trial = project(theta + a * direction)
                trial_value, trial_g = value_and_grad(trial)
                if trial_value <= value + _ARMIJO * a * slope:
                    break
            else:
                break
            s, y = trial - theta, trial_g - g
            lam = _step_length(float(s @ s), float(s @ y))
            theta, value, g = trial, trial_value, trial_g
            history.append(value)
            if len(history) > _STALL_STEPS:
                before = history[-1 - _STALL_STEPS]
                if before - value <= _STALL_DROP * abs(before):
                    break
        if value < best_value:
            best_theta, best_value = theta, value
    return best_theta, best_value


def _frank_wolfe_bound(theta, value, g, lo, hi) -> float:
    """value - max over the box of g . (theta - u): a lower bound on the
    minimum over the box of a convex function with that value and
    subgradient g at theta."""
    return value - float(g @ theta) + float(np.sum(np.minimum(g * lo, g * hi)))


#: ``_unconstrained_bound`` is used only when cond(X^T X) is below this
#: (X^T X is then nonsingular), so that its solve keeps about eight
#: significant digits.
_MAX_GRAM_CONDITION = 1e8


def _unconstrained_bound(chol, value, g) -> float:
    """value - g^T (X^T X)^-1 g / 4, with ``chol`` the Cholesky factor of X^T
    X: the minimum over all theta of the total squared loss ||y - X
    theta||^2, whose value at a point is ``value`` and gradient ``g``.  It
    does not grow with the box, as the Frank-Wolfe bound's rounding does."""
    w = np.linalg.solve(chol, g)
    return value - 0.25 * float(w @ w)


def _hinge_dual_bound(signed, lo, hi, alpha) -> float:
    """LB(alpha) = sum alpha - sum_j max(lo_j c_j, hi_j c_j), c = sum_i
    alpha_i y_i x_i (``signed`` holds the rows y_i x_i): for alpha in [0,
    1]^T a lower bound on the total hinge loss over the box (weak LP
    duality)."""
    c = signed.T @ alpha
    return float(np.sum(alpha)) - float(np.sum(np.maximum(lo * c, hi * c)))


#: Simplex pivots the hinge polish may take from its first vertex.
_HINGE_PIVOTS = 32


def _hinge_vertex(signed, lo, hi, theta):
    """An LP vertex for the total hinge loss near ``theta`` and its dual
    lower bound.  ``signed`` holds the rows y_i x_i.

    The first vertex keeps the coordinates of theta on a face of the box
    there and solves the other d - k so that the d - k rows with margin
    closest to 1 have margin exactly 1.  At a vertex, alpha_i = 1 on the
    rows with margin below 1, 0 above, and the tight rows' alpha solve the
    stationarity system c_j = 0 on the free coordinates, c = sum_i alpha_i
    y_i x_i; alpha clipped to [0, 1] gives the bound ``_hinge_dual_bound``.
    The vertex is optimal, and the bound equal to its total, when every
    tight alpha is in [0, 1] and every face coordinate has c_j of the sign
    that holds it there.  Otherwise the loss falls along the edge that
    frees the most violating tight row or coordinate: the polish moves to
    the minimum of the loss on that edge (a simplex pivot), at most
    ``_HINGE_PIVOTS`` times.  Returns (vertex, best bound), or (None, -inf)
    when a system is singular or the first vertex leaves the box.
    """
    t_len, d = signed.shape
    free = (theta > lo) & (theta < hi)
    m = int(free.sum())
    if m > t_len:
        return None, -np.inf
    rows = np.argpartition(np.abs(signed @ theta - 1.0), m - 1)[:m] if m else np.arange(0)
    base = np.where(theta <= lo, lo, hi)   # the values of the face coordinates
    found = None, -np.inf
    for _ in range(_HINGE_PIVOTS + 1):
        block = signed[np.ix_(rows, free)]
        vertex = base.copy()
        try:
            vertex[free] = np.linalg.solve(block, 1.0 - signed[rows][:, ~free] @ base[~free])
            if not np.all((vertex >= lo) & (vertex <= hi)):
                return found
            margins = signed @ vertex
            alpha = (margins < 1.0).astype(float)
            alpha[rows] = 0.0
            alpha[rows] = np.linalg.solve(block.T, -(signed[:, free].T @ alpha))
        except np.linalg.LinAlgError:
            return found
        bound = _hinge_dual_bound(signed, lo, hi, np.clip(alpha, 0.0, 1.0))
        found = vertex, max(bound, found[1])
        if _gap_closed(float(np.sum(np.maximum(0.0, 1.0 - margins))), found[1]):
            return found
        # the slope of the loss along each edge: freeing tight row r raises
        # its margin (alpha_r < 0) or lowers it (alpha_r > 1); freeing a face
        # coordinate moves it into the box
        c = signed.T @ alpha
        inward = np.where(base <= lo, 1.0, -1.0)
        slopes = np.concatenate([np.minimum(alpha[rows], 1.0 - alpha[rows]),
                                 np.where(free, np.inf, -c * inward)])
        leave = int(np.argmin(slopes))
        if slopes[leave] >= 0.0:
            return found
        step = np.zeros(d)
        if leave < m:
            rhs = np.zeros(m)
            rhs[leave] = 1.0 if alpha[rows[leave]] < 0.0 else -1.0
        else:
            j = leave - m
            step[j] = inward[j]
            rhs = -inward[j] * signed[rows, j]
        try:
            step[free] = np.linalg.solve(block, rhs)
        except np.linalg.LinAlgError:
            return found
        # exact line search: each row crossing margin 1 raises the slope by
        # |rate|; the box ends the edge
        rate = signed @ step
        crossing = (1.0 - margins) / np.where(rate == 0.0, np.nan, rate)
        crossing[rows] = np.nan
        order = np.flatnonzero(crossing >= 0.0)
        order = order[np.argsort(crossing[order], kind="stable")]
        rises = slopes[leave] + np.cumsum(np.abs(rate[order]))
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step > 0.0, (hi - vertex) / step,
                            np.where(step < 0.0, (lo - vertex) / step, np.inf))
        wall = int(np.argmin(room))
        settle = np.flatnonzero(rises >= 0.0)
        if leave < m:
            rows = np.delete(rows, leave)
        else:
            free[leave - m] = True
        if settle.size and crossing[order[settle[0]]] <= room[wall]:
            rows = np.append(rows, order[settle[0]])
        elif np.isfinite(room[wall]):
            free[wall] = False
            base[wall] = hi[wall] if step[wall] > 0.0 else lo[wall]
        else:
            return found
        m = rows.size
    return found


def _least_squares_on_face(gram, xty, lo, hi, theta):
    """The minimizer of ||y - X theta||^2 with the coordinates of ``theta``
    on a face of the box held there: the normal equations (``gram`` = X^T X,
    ``xty`` = X^T y) solved for the free coordinates.  None when that
    system is singular or its solution leaves the box."""
    free = (theta > lo) & (theta < hi)
    point = theta.copy()
    try:
        point[free] = np.linalg.solve(gram[np.ix_(free, free)],
                                      xty[free] - gram[np.ix_(free, ~free)] @ theta[~free])
    except np.linalg.LinAlgError:
        return None
    return point if np.all((point >= lo) & (point <= hi)) else None


def best_in_hindsight(data: Dataset, kind: LossKind, box: BoxConstraints, *,
                      restarts: int = 20, iters: int = 2000,
                      seed: int = 0) -> ComparatorResult:
    """inf over theta in M_m of the total stream loss.

    ``restarts`` random starts plus, for the convex kinds, the origin and
    the projected least-squares solution, at most ``iters`` steps each.
    Each evaluation of the loss and its (sub)gradient is one pass of
    ``losses.mean_loss_and_grad``; ``diagnostics["evaluations"]`` counts
    them.  For squared_nn every evaluation writes its per-row arrays into
    one ``nn_workspace``, allocated once per call.

    For the convex kinds the search is projected subgradient descent with
    step c/sqrt(k) from starts uniform over the box.  At the checkpoints of
    every start the best point so far is polished (``_hinge_vertex``,
    ``_least_squares_on_face``) and lower-bounded: the Frank-Wolfe bound at
    it and at the polished point, for hinge the LP dual bound, and for
    squared_linear with a well-conditioned X^T X the unconstrained minimum
    (``_unconstrained_bound``) at both points.  The search stops once total
    - lower_bound <= 1e-9 max(1, total), with method "certified".  A search
    that runs out of budget first returns the best point and the best lower
    bound found, with method "projected_subgradient".

    For squared_nn the search is spectral projected gradient
    (``_spg_minimize``) from random starts N(0, 0.5^2 I) clipped to the box,
    and each start ends when it stalls.  The network whose only nonzero
    parameter is its output bias b2 = mean(y), clipped to the box, is one
    more candidate, evaluated once: it is where a search from the origin
    ends.  The search is local: it reports method "local" with the lower
    bound 0 of a nonnegative loss.
    """
    features, targets = data.features, data.targets
    t_len, d_in = features.shape
    d_param = kind.param_dim(d_in)
    if box.d != d_param:
        raise DimensionMismatchError(
            f"box dimension {box.d} must match parameter dimension {d_param}")
    lo, hi = box.m_lo, box.m_hi
    evaluations = 0

    def project(theta):
        return theta.clip(lo, hi)

    def mean_value_and_grad(theta):
        nonlocal evaluations
        evaluations += 1
        return mean_loss_and_grad(kind, theta, features, targets)

    rng = CounterRng(seed, "best-in-hindsight")
    if not kind.convex:
        # From the origin only b2 can move (w2 = 0 and ReLU'(0) = 0 there),
        # and the network's output is b2 alone, so a search from it ends at
        # b2 = clip(mean(y)) with every other coordinate 0: that end point
        # is one candidate, evaluated once.
        end_point = np.zeros(d_param)
        end_point[-1] = min(max(float(np.mean(targets)), lo[-1]), hi[-1])
        starts = [project(rng.normals(d_param) * _NN_START_SCALE) for _ in range(restarts)]
        with nn_workspace(t_len, kind.hidden_width):
            end_value, _ = mean_value_and_grad(end_point)
            theta_star, value = _spg_minimize(mean_value_and_grad, project, starts, iters)
        if not value < end_value:
            theta_star = end_point
        total = float(np.sum(point_loss_series(kind, theta_star, features, targets)))
        return ComparatorResult(theta_star, total, 0.0, {
            "horizon": t_len, "method": "local", "evaluations": evaluations})

    ls, *_ = np.linalg.lstsq(features, targets, rcond=None)
    starts = [np.zeros(d_param), project(ls)]
    widths = hi - lo
    for _ in range(restarts):
        u = rng.uniforms(d_param)
        starts.append(lo + u * widths)
    radius = 0.5 * float(np.linalg.norm(widths))

    def value_and_grad(theta):
        # totals, the units of the certificate
        mean, g = mean_value_and_grad(theta)
        return mean * t_len, g * t_len

    chol = None
    if kind.kind == HINGE:
        signed = targets[:, None] * features

        def polish(theta):
            return _hinge_vertex(signed, lo, hi, theta)
    else:
        gram, xty = features.T @ features, features.T @ targets
        if np.linalg.cond(gram) < _MAX_GRAM_CONDITION:
            chol = np.linalg.cholesky(gram)

        def polish(theta):
            return _least_squares_on_face(gram, xty, lo, hi, theta), -np.inf

    def bound(theta, value, g):
        fw = _frank_wolfe_bound(theta, value, g, lo, hi)
        return fw if chol is None else max(fw, _unconstrained_bound(chol, value, g))

    def certify(theta):
        lower = bound(theta, *value_and_grad(theta))
        point, dual = polish(theta)
        if point is None:
            return None, np.inf, lower
        point_value, point_g = value_and_grad(point)
        return point, point_value, max(lower, dual, bound(point, point_value, point_g))

    theta_star, _, lower = _pgd_minimize(value_and_grad, project, starts, iters, radius,
                                         certify)
    total = float(np.sum(point_loss_series(kind, theta_star, features, targets)))
    # the infimum is at most total, so the smaller of the two is a bound too
    lower = min(lower, total)
    method = "certified" if _gap_closed(total, lower) else "projected_subgradient"
    return ComparatorResult(theta_star, total, lower, {
        "horizon": t_len, "method": method, "evaluations": evaluations})


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


class DecisionMean:
    """A reader of the decisions that keeps theta_bar_T = (1/T) sum_t
    theta_t and M_j = max_t |theta_tj|, and nothing that grows with T.

    ``take(start, block)`` hands it the (n, d) decisions of steps start + 1,
    ..., start + n, in step order.  The sum adds them one after another to
    0.0, carried from block to block, as numpy adds the rows of a (T, d)
    array: with d >= 2 these are the bits of ``preds.mean(axis=0)``, a
    column of -0.0 included (it sums to 0.0).  (A (T, 1) array numpy sums
    pairwise, so with d = 1 the two differ in the last bits.)  The
    row-by-row sum of a block is the last row of ``np.cumsum`` over it,
    which is sequential on every shape, so the bits do not depend on the
    blocks."""

    def __init__(self):
        self.count = 0
        self.total = self.reach = None
        self._sums = None  # row 0 the sum so far, then the block's rows

    def take(self, start: int, block: np.ndarray) -> None:
        n, d = block.shape
        if self.total is None:
            self.total, self.reach = np.zeros(d), np.zeros(d)
        if self._sums is None or self._sums.shape[0] <= n:
            self._sums = np.empty((n + 1, d))
        sums = self._sums[:n + 1]
        sums[0], sums[1:] = self.total, block
        np.cumsum(sums, axis=0, out=sums)
        self.total[:] = sums[n]
        np.maximum(self.reach, np.max(np.abs(block), axis=0), out=self.reach)
        self.count += n

    def theta_bar(self) -> np.ndarray:
        return self.total / self.count


def online_to_batch(predictions) -> np.ndarray:
    """theta_bar_T = (1/T) sum_t theta_hat_t of the (T, d) decisions
    (``Trace.predictions``): ``DecisionMean`` handed them in one block."""
    preds = np.asarray(predictions, dtype=float)
    if preds.ndim != 2 or preds.shape[0] == 0:
        raise DataError("predictions must be a nonempty (T, d) array")
    mean = DecisionMean()
    mean.take(0, preds)
    return mean.theta_bar()


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


#: Values in one tile of the hinge audit's (holdout rows, n) loss matrix of
#: a block of n decisions: the package's one tile size, ``losses.TILE_VALUES``.
_AUDIT_BLOCK_VALUES = TILE_VALUES


def _add_loss_row_sums(kind: LossKind, preds: np.ndarray, features: np.ndarray,
                       targets: np.ndarray, row_sums: np.ndarray) -> None:
    """Add to ``row_sums[h]`` the point losses of the (n, d) decisions on
    example h: the row sums of their (H, n) loss matrix, built in the blocks
    of rows of ``row_blocks`` in one reused tile."""
    tile, blocks = row_blocks(features.shape[0], preds.shape[0], _AUDIT_BLOCK_VALUES)
    for a, b in blocks:
        row_sums[a:b] += expert_loss_matrix(kind, preds, features[a:b], targets[a:b],
                                            tile[:b - a]).sum(axis=1)


#: Rounding allowance of the Jensen audit, per holdout row (x, y):
#: _JENSEN_ROUNDING * (T + d + 2) * R^2, with R = 1 + |y| + sum_j |x_j|
#: max_t |theta_tj|.  Derived in ``_jensen_allowance``.
_JENSEN_ROUNDING = 8.0 * 2.0 ** -53


def _jensen_allowance(reach: np.ndarray, t_len: int, features: np.ndarray,
                      targets: np.ndarray) -> np.ndarray:
    """A bound on the floating-point error of the two computed sides of
    Jensen's inequality on each holdout row (x, y), for hinge and
    squared-linear, from T = ``t_len`` decisions with M_j = max_t
    |theta_tj| (``reach``).

    With u = 2^-53 and gamma_n = n u / (1 - n u) (the error bound of a sum
    of n + 1 terms, in any order and grouping, so also of a sum carried
    from block to block, relative to the sum of magnitudes), P = sum_j |x_j|
    M_j >= every |theta . x| involved, and R = 1 + |y| + P:
      - theta_bar has a coordinate error <= gamma_T M_j, so theta_bar . x is
        off by <= gamma_{T+d} P;
      - each theta_t . x is off by <= gamma_d P;
      - on |s| <= P, both losses are 2R-Lipschitz in s and at most R^2, and
        evaluating one rounds by <= 3 u R^2;
      - the mean of T losses adds <= gamma_T R^2.
    Summed, the two sides are off by at most (2 gamma_{T+d} + 2 gamma_d +
    gamma_T + 6 u) R^2 <= 5.05 u (T + d + 2) R^2 while n u <= 0.01, and
    _JENSEN_ROUNDING rounds the factor 5.05 up to 8 for the second-order
    terms.

    Squared-linear's averaged side comes from the uncentered moments, y^2 -
    2 y (theta_bar . x) + x^T (S / T) x with S = sum_t theta_t theta_t^T;
    that identity is exact at the exact theta_bar and S, so only rounding
    enters.  Each of y^2, 2 |y| P and P^2 is at most R^2:
      - y^2 rounds by <= u R^2;
      - 2 y (theta_bar . x) is off by <= 2 |y| (gamma_{T+d} + u) P <=
        (gamma_{T+d} + u) R^2;
      - S_jk sums T products of magnitude <= M_j M_k, so S_jk / T is off by
        <= gamma_{T+1} M_j M_k: the uncentered moments are bounded by M_j
        M_k, as the covariance is (Cauchy-Schwarz);
      - x^T (S / T) x is then off by <= gamma_{T+1} P^2 from S / T and by
        <= gamma_2d P^2 from its two d-term sums;
      - the two final additions, of terms whose magnitudes sum to <= (|y| +
        P)^2 <= R^2, round by <= gamma_2 R^2.
    With the loss at theta_bar as above, the two sides are then off by at
    most (3 gamma_{T+d} + gamma_{T+1} + gamma_2d + 7 u) R^2 <= 5.06 u (T +
    d + 2) R^2, inside the same 8 u (T + d + 2) R^2.
    """
    size = 1.0 + np.abs(targets) + np.abs(features) @ reach
    return _JENSEN_ROUNDING * (t_len + features.shape[1] + 2) * size ** 2


class JensenAudit(DecisionMean):
    """A reader of the decisions that, besides theta_bar, audits Jensen's
    inequality on a holdout set for a convex loss: point_loss(theta_bar,
    ex) <= mean_t point_loss(theta_t, ex) on every holdout example, up to
    the rounding of the two computed sides (``_jensen_allowance``), so that
    a tie, as when every decision is one point, reads True.

    It keeps what the averaged side needs, carried from block to block: on
    squared-linear the sum S = sum_t theta_t theta_t^T of the decisions'
    outer products, O(d^2); on hinge, which has no such identity, each
    holdout row's loss sum over t, O(H), from the (H, n) loss matrix of each
    block (``_add_loss_row_sums``)."""

    def __init__(self, kind: LossKind, holdout: Dataset):
        if not kind.convex:
            raise DomainError("Jensen audit applies to convex kinds only")
        super().__init__()
        self.kind, self.holdout = kind, holdout
        self.second = None
        self.row_sums = None if kind.kind == SQUARED_LINEAR else np.zeros(holdout.T)

    def take(self, start: int, block: np.ndarray) -> None:
        super().take(start, block)
        if self.row_sums is not None:
            _add_loss_row_sums(self.kind, block, self.holdout.features, self.holdout.targets,
                               self.row_sums)
        elif self.second is None:
            self.second = block.T @ block
        else:
            self.second += block.T @ block

    def averaged(self) -> np.ndarray:
        """mean_t point_loss(theta_t, ex) on each holdout example; on
        squared-linear y^2 - 2 y (theta_bar . x) + x^T (S / T) x."""
        if self.row_sums is not None:
            return self.row_sums / self.count
        features, targets = self.holdout.features, self.holdout.targets
        return (targets * targets - 2.0 * targets * (features @ self.theta_bar())
                + np.einsum("hj,hj->h", features @ (self.second / self.count), features))

    def holds(self) -> bool:
        features, targets = self.holdout.features, self.holdout.targets
        at_bar = point_loss_series(self.kind, self.theta_bar(), features, targets)
        allowance = _jensen_allowance(self.reach, self.count, features, targets)
        return bool(np.all(at_bar <= self.averaged() + allowance))


def jensen_holdout_audit(predictions: np.ndarray, holdout: Dataset, kind: LossKind) -> bool:
    """For convex kinds: point_loss(theta_bar, ex) <= mean_t point_loss
    (theta_hat_t, ex) for every holdout example, up to rounding:
    ``JensenAudit`` handed the (T, d) decisions in one block."""
    audit = JensenAudit(kind, holdout)
    audit.take(0, np.asarray(predictions, dtype=float))
    return audit.holds()
