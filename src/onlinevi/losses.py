"""Point losses, expected losses under a mean-field Gaussian, and gradients.

Supported loss kinds:

    hinge            l(theta) = max(0, 1 - y <theta, x>),  y in {-1, +1}
    squared_linear   l(theta) = (y - <theta, x>)^2
    squared_nn       l(theta) = (y - f_theta(x))^2 with a one-hidden-layer
                     ReLU network; theta packs (W1, b1, w2, b2) flat.

For the two convex kinds the expected loss under N(m, diag(sigma^2)) and
its (m, sigma) gradients are in closed form; the network case has no
closed form and is served by the reparameterized Monte-Carlo estimator.

Closed forms.  The hinge margin z = 1 - y <theta, x> is univariate
Gaussian with mean mu_z = 1 - y <m, x> and variance s_z^2 = sum_j
sigma_j^2 x_j^2, so E[z_+] = mu_z Phi(mu_z/s_z) + s_z phi(mu_z/s_z).
For the squared linear loss E[l] = (y - <m, x>)^2 + sum_j sigma_j^2 x_j^2.
Phi(z) = erfc(-z / sqrt 2) / 2 takes erfc from the standard library's
``math.erfc``, so the package needs numpy and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, DomainError, UnsupportedLossError
from .family import BoxConstraints, MeanFieldGaussian
from .rng import CounterRng

if TYPE_CHECKING:
    from .data import Dataset

HINGE = "hinge"
SQUARED_LINEAR = "squared_linear"
SQUARED_NN = "squared_nn"

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gaussian_cdf(z):
    """Standard normal CDF, erfc(-z / sqrt 2) / 2 with ``math.erfc`` applied
    to each element: a float for a float, else an array of z's shape."""
    if isinstance(z, float):
        return 0.5 * math.erfc(-z / _SQRT2)
    w = -np.asarray(z, dtype=float) / _SQRT2
    return 0.5 * np.fromiter(map(math.erfc, w.ravel().tolist()), float, w.size).reshape(w.shape)


def gaussian_pdf(z):
    z = np.asarray(z, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


@dataclass(frozen=True, eq=False)
class DataExample:
    """One observation: feature vector x and target y (label in {-1,+1} for
    classification, real for regression)."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        arr = np.array(self.x, dtype=float).reshape(-1)
        if not np.all(np.isfinite(arr)):
            raise DomainError("x must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)
        y = float(self.y)
        if not np.isfinite(y):
            raise DomainError("y must be finite")
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class LossKind:
    kind: str
    hidden_width: int | None = None

    def __post_init__(self):
        if self.kind not in (HINGE, SQUARED_LINEAR, SQUARED_NN):
            raise DomainError(f"unknown loss kind {self.kind!r}")
        if self.kind == SQUARED_NN:
            if self.hidden_width is None or self.hidden_width < 1:
                raise DomainError("squared_nn requires hidden_width >= 1")
        elif self.hidden_width is not None:
            raise DomainError(f"{self.kind} takes no hidden_width")

    @classmethod
    def hinge(cls) -> "LossKind":
        return cls(HINGE)

    @classmethod
    def squared_linear(cls) -> "LossKind":
        return cls(SQUARED_LINEAR)

    @classmethod
    def squared_nn(cls, hidden_width: int) -> "LossKind":
        return cls(SQUARED_NN, hidden_width)

    @property
    def convex(self) -> bool:
        return self.kind in (HINGE, SQUARED_LINEAR)

    def param_dim(self, d_in: int) -> int:
        """Parameter dimension for input dimension d_in."""
        if self.kind == SQUARED_NN:
            return self.hidden_width * (d_in + 2) + 1
        return d_in


@dataclass(frozen=True, eq=False)
class ExpectedLossGradient:
    """The pair (dLbar/dm, dLbar/dsigma) driving every variational update."""

    g_m: np.ndarray
    g_sigma: np.ndarray

    def __post_init__(self):
        for name in ("g_m", "g_sigma"):
            arr = np.array(getattr(self, name), dtype=float).reshape(-1)
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.g_m.shape != self.g_sigma.shape:
            raise DimensionMismatchError("g_m and g_sigma must have equal length")


# ---------------------------------------------------------------------------
# network packing


def _nn_unpack(theta: np.ndarray, hw: int, d_in: int):
    w1 = theta[: hw * d_in].reshape(hw, d_in)
    b1 = theta[hw * d_in: hw * d_in + hw]
    w2 = theta[hw * d_in + hw: hw * d_in + 2 * hw]
    b2 = theta[-1]
    return w1, b1, w2, b2


def _check_theta(kind: LossKind, theta: np.ndarray, d_in: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    expected = kind.param_dim(d_in)
    if theta.size != expected:
        raise DimensionMismatchError(
            f"theta has length {theta.size}, {kind.kind} with d_in={d_in} needs {expected}"
        )
    return theta


def _nn_forward(theta: np.ndarray, x: np.ndarray, hw: int):
    w1, b1, w2, b2 = _nn_unpack(theta, hw, x.size)
    pre = w1 @ x + b1
    hidden = np.maximum(pre, 0.0)
    return float(w2 @ hidden + b2), pre, hidden, w2


# ---------------------------------------------------------------------------
# point losses and subgradients


def point_loss(kind: LossKind, theta, ex: DataExample) -> float:
    return point_loss_xy(kind, _check_theta(kind, theta, ex.x.size), ex.x, ex.y)


def point_loss_xy(kind: LossKind, theta: np.ndarray, x: np.ndarray, y: float) -> float:
    """Kernel of ``point_loss`` on a validated theta and one (x, y) row."""
    if kind.kind == HINGE:
        return max(0.0, 1.0 - y * float(theta @ x))
    if kind.kind == SQUARED_LINEAR:
        return float((y - theta @ x) ** 2)
    f, _, _, _ = _nn_forward(theta, x, kind.hidden_width)
    return float((y - f) ** 2)


def point_grad(kind: LossKind, theta, ex: DataExample) -> np.ndarray:
    """Subgradient of the point loss at theta.

    Hinge uses the convention 1{margin > 0} (zero exactly at the kink);
    the network ReLU derivative is 0 at 0.
    """
    return point_grad_xy(kind, _check_theta(kind, theta, ex.x.size), ex.x, ex.y)


def point_grad_xy(kind: LossKind, theta: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Kernel of ``point_grad`` on a validated theta and one (x, y) row."""
    if kind.kind == HINGE:
        margin = 1.0 - y * float(theta @ x)
        if margin > 0.0:
            return -y * x.copy()
        return np.zeros_like(theta)
    if kind.kind == SQUARED_LINEAR:
        return -2.0 * (y - float(theta @ x)) * x
    hw = kind.hidden_width
    f, pre, hidden, w2 = _nn_forward(theta, x, hw)
    dloss = -2.0 * (y - f)
    active = (pre > 0.0).astype(float)
    g_b1 = dloss * w2 * active
    grad = np.empty_like(theta)
    grad[: hw * x.size] = np.outer(g_b1, x).reshape(-1)
    grad[hw * x.size: hw * x.size + hw] = g_b1
    grad[hw * x.size + hw: hw * x.size + 2 * hw] = dloss * hidden
    grad[-1] = dloss
    return grad


def point_loss_many(kind: LossKind, thetas: np.ndarray, ex: DataExample) -> np.ndarray:
    """Point loss of each row of thetas on one example."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != kind.param_dim(ex.x.size):
        raise DimensionMismatchError("thetas must be (n, param_dim)")
    return _point_loss_many(kind, thetas, ex.x, ex.y)


def _point_loss_many(kind: LossKind, thetas: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    if kind.kind == HINGE:
        return np.maximum(0.0, 1.0 - y * (thetas @ x))
    if kind.kind == SQUARED_LINEAR:
        return (y - thetas @ x) ** 2
    f = _nn_forward_many(thetas, x, kind.hidden_width)[0]
    return (y - f) ** 2


def point_loss_series(kind: LossKind, theta, features: np.ndarray,
                      targets: np.ndarray) -> np.ndarray:
    """Point loss of a fixed theta along a stream (vectorized over rows)."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    theta = _check_theta(kind, theta, features.shape[1])
    if kind.kind == HINGE:
        return np.maximum(0.0, 1.0 - targets * (features @ theta))
    if kind.kind == SQUARED_LINEAR:
        return (targets - features @ theta) ** 2
    hw = kind.hidden_width
    w1, b1, w2, b2 = _nn_unpack(theta, hw, features.shape[1])
    hidden = np.maximum(features @ w1.T + b1, 0.0)
    return (targets - (hidden @ w2 + b2)) ** 2


def point_loss_rows(kind: LossKind, thetas: np.ndarray, features: np.ndarray,
                    targets: np.ndarray) -> np.ndarray:
    """Point loss of row t of thetas on example t, for all t at once."""
    if kind.kind == SQUARED_NN:
        hw = kind.hidden_width
        n, d_in = features.shape
        w1 = thetas[:, : hw * d_in].reshape(n, hw, d_in)
        pre = np.einsum("nhd,nd->nh", w1, features) + thetas[:, hw * d_in: hw * d_in + hw]
        f = np.einsum("nh,nh->n", thetas[:, hw * d_in + hw: hw * d_in + 2 * hw],
                      np.maximum(pre, 0.0)) + thetas[:, -1]
        return (targets - f) ** 2
    scores = np.einsum("nd,nd->n", thetas, features)
    if kind.kind == HINGE:
        return np.maximum(0.0, 1.0 - targets * scores)
    return (targets - scores) ** 2


def expert_loss_matrix(kind: LossKind, experts: np.ndarray, features: np.ndarray,
                       targets: np.ndarray) -> np.ndarray:
    """(T, K) point losses of every expert (row of ``experts``) along a stream."""
    if kind.kind == HINGE:
        return np.maximum(0.0, 1.0 - targets[:, None] * (features @ experts.T))
    if kind.kind == SQUARED_LINEAR:
        return (targets[:, None] - features @ experts.T) ** 2
    return np.stack([point_loss_series(kind, expert, features, targets)
                     for expert in experts], axis=1)


def _nn_forward_many(thetas: np.ndarray, x: np.ndarray, hw: int):
    """Forward pass of many parameter vectors on one input."""
    n = thetas.shape[0]
    d_in = x.size
    w1 = thetas[:, : hw * d_in].reshape(n, hw, d_in)
    b1 = thetas[:, hw * d_in: hw * d_in + hw]
    w2 = thetas[:, hw * d_in + hw: hw * d_in + 2 * hw]
    b2 = thetas[:, -1]
    pre = w1 @ x + b1
    hidden = np.maximum(pre, 0.0)
    f = np.sum(w2 * hidden, axis=1) + b2
    return f, pre, hidden, w2


def _point_loss_grad_many(kind: LossKind, thetas: np.ndarray, x: np.ndarray,
                          y: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row point losses (n,) and subgradients (n, param_dim) on one
    example (x, y), from one pass of ``thetas @ x`` (or of the network).
    The losses equal ``_point_loss_many`` bit for bit."""
    n = thetas.shape[0]
    if kind.kind == HINGE:
        margins = 1.0 - y * (thetas @ x)
        return (np.maximum(0.0, margins),
                np.where(margins[:, None] > 0.0, -y * x[None, :], 0.0))
    if kind.kind == SQUARED_LINEAR:
        resid = y - thetas @ x
        return resid ** 2, -2.0 * resid[:, None] * x[None, :]
    hw = kind.hidden_width
    d_in = x.size
    f, pre, hidden, w2 = _nn_forward_many(thetas, x, hw)
    dloss = -2.0 * (y - f)
    g_b1 = dloss[:, None] * w2 * (pre > 0.0)
    grads = np.empty_like(thetas)
    grads[:, : hw * d_in] = (g_b1[:, :, None] * x[None, None, :]).reshape(n, -1)
    grads[:, hw * d_in: hw * d_in + hw] = g_b1
    grads[:, hw * d_in + hw: hw * d_in + 2 * hw] = dloss[:, None] * hidden
    grads[:, -1] = dloss
    return (y - f) ** 2, grads


def mean_loss_and_grad(kind: LossKind, theta, features: np.ndarray,
                       targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean point loss of a fixed theta along a stream and its mean
    subgradient, from one pass of ``features @ theta`` (or of the network).

    The loss equals ``np.mean(point_loss_series(...))`` bit for bit; the
    subgradient follows ``point_grad`` (hinge 1{margin > 0}, ReLU
    derivative 0 at 0).
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    theta = _check_theta(kind, theta, features.shape[1])
    n = features.shape[0]
    if kind.kind == HINGE:
        margins = 1.0 - targets * (features @ theta)
        active = targets * (margins > 0.0)
        return float(np.mean(np.maximum(0.0, margins))), -features.T @ active / n
    if kind.kind == SQUARED_LINEAR:
        resid = targets - features @ theta
        return float(np.mean(resid ** 2)), -2.0 * features.T @ resid / n
    hw = kind.hidden_width
    w1, b1, w2, b2 = _nn_unpack(theta, hw, features.shape[1])
    pre = features @ w1.T + b1                     # (n, hw)
    hidden = np.maximum(pre, 0.0)
    f = hidden @ w2 + b2
    dloss = -2.0 * (targets - f)                   # (n,)
    gate = dloss[:, None] * (pre > 0.0) * w2[None, :]   # per-row dl/db1
    grad = np.empty_like(theta)
    grad[: hw * features.shape[1]] = (gate.T @ features).reshape(-1) / n
    grad[hw * features.shape[1]: hw * features.shape[1] + hw] = gate.mean(axis=0)
    grad[hw * features.shape[1] + hw: hw * features.shape[1] + 2 * hw] = \
        (hidden * dloss[:, None]).mean(axis=0)
    grad[-1] = dloss.mean()
    return float(np.mean((targets - f) ** 2)), grad


def nn_batch_mean_grad(kind: LossKind, theta: np.ndarray, features: np.ndarray,
                       targets: np.ndarray) -> np.ndarray:
    """Average network-loss gradient over a batch.  Nothing in the package
    calls it; it stays because the benchmark's tracer wraps
    ``evaluation:nn_batch_mean_grad``."""
    return mean_loss_and_grad(kind, theta, features, targets)[1]


# ---------------------------------------------------------------------------
# expected losses (closed form)


def _check_q(kind: LossKind, q: MeanFieldGaussian, d_in: int):
    expected = kind.param_dim(d_in)
    if q.d != expected:
        raise DimensionMismatchError(
            f"q has dimension {q.d}, {kind.kind} with d_in={d_in} needs {expected}"
        )


def expected_loss(kind: LossKind, q: MeanFieldGaussian, ex: DataExample) -> float:
    """E_{theta ~ q}[l(theta)] in closed form (convex kinds only)."""
    _check_q(kind, q, ex.x.size)
    if kind.kind == SQUARED_LINEAR:
        resid = ex.y - float(q.m @ ex.x)
        return resid * resid + float(np.sum((q.sigma * ex.x) ** 2))
    if kind.kind == HINGE:
        mu_z = 1.0 - ex.y * float(q.m @ ex.x)
        s_z = float(np.sqrt(np.sum((q.sigma * ex.x) ** 2)))
        if s_z == 0.0:
            return max(mu_z, 0.0)
        z = mu_z / s_z
        return mu_z * float(gaussian_cdf(z)) + s_z * float(gaussian_pdf(z))
    raise UnsupportedLossError(
        "squared_nn has no closed-form expected loss; use mc_expected_loss_and_grad"
    )


def expected_loss_grad(kind: LossKind, q: MeanFieldGaussian,
                       ex: DataExample) -> ExpectedLossGradient:
    """Closed-form (dLbar/dm, dLbar/dsigma) for the convex kinds."""
    _check_q(kind, q, ex.x.size)
    return ExpectedLossGradient(*expected_grad_xy(kind, q.m, q.sigma, ex.x, ex.y))


def expected_grad_xy(kind: LossKind, m: np.ndarray, sigma: np.ndarray, x: np.ndarray,
                     y: float) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of ``expected_loss_grad``: (g_m, g_sigma) for a validated
    (m, sigma) and one (x, y) row; the result is not checked for finiteness."""
    if kind.kind == SQUARED_LINEAR:
        resid = y - float(m @ x)
        return -2.0 * resid * x, 2.0 * sigma * x ** 2
    if kind.kind == HINGE:
        mu_z = 1.0 - y * float(m @ x)
        s_z = float(np.sqrt(np.sum((sigma * x) ** 2)))
        if s_z == 0.0:
            indicator = 1.0 if mu_z > 0.0 else 0.0
            return -y * indicator * x, np.zeros_like(sigma)
        z = mu_z / s_z
        g_m = -y * float(gaussian_cdf(z)) * x
        g_sigma = (sigma * x ** 2 / s_z) * float(gaussian_pdf(z))
        return g_m, g_sigma
    raise UnsupportedLossError(
        "squared_nn has no closed-form gradient; use mc_expected_loss_and_grad"
    )


def expected_loss_series(kind: LossKind, q: MeanFieldGaussian, features: np.ndarray,
                         targets: np.ndarray) -> np.ndarray:
    """Closed-form expected loss of a fixed q along a stream (convex kinds)."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    _check_q(kind, q, features.shape[1])
    if kind.kind == SQUARED_LINEAR:
        resid = targets - features @ q.m
        return resid ** 2 + (features ** 2) @ (q.sigma ** 2)
    if kind.kind == HINGE:
        mu_z = 1.0 - targets * (features @ q.m)
        s_z = np.sqrt((features ** 2) @ (q.sigma ** 2))
        out = np.maximum(mu_z, 0.0)
        pos = s_z > 0.0
        z = mu_z[pos] / s_z[pos]
        out[pos] = mu_z[pos] * gaussian_cdf(z) + s_z[pos] * gaussian_pdf(z)
        return out
    raise UnsupportedLossError("squared_nn has no closed-form expected loss")


# ---------------------------------------------------------------------------
# Monte-Carlo path (reparameterization)


def mc_expected_loss_and_grad(kind: LossKind, q: MeanFieldGaussian, ex: DataExample,
                              samples: int, seed: int):
    """Reparameterized estimate of the expected loss and its (m, sigma) gradient.

    theta_s = m + sigma * eps_s with eps_s ~ N(0, I) drawn from the
    counter stream of ``seed``; the gradient estimators are

        g_m     = mean_s dl/dtheta(theta_s)
        g_sigma = mean_s dl/dtheta(theta_s) * eps_s

    Bitwise reproducible for fixed (seed, samples).
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    _check_q(kind, q, ex.x.size)
    estimate, g_m, g_sigma = mc_grad_xy(kind, q.m, q.sigma, ex.x, ex.y, samples, seed)
    return estimate, ExpectedLossGradient(g_m, g_sigma)


def mc_grad_xy(kind: LossKind, m: np.ndarray, sigma: np.ndarray, x: np.ndarray, y: float,
               samples: int, seed: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Kernel of ``mc_expected_loss_and_grad``: (estimate, g_m, g_sigma) for a
    validated (m, sigma), one (x, y) row and ``samples >= 1``."""
    eps = CounterRng(seed, "mc-expected-loss").normals(samples * m.size).reshape(samples, m.size)
    thetas = m[None, :] + sigma[None, :] * eps
    losses, grads = _point_loss_grad_many(kind, thetas, x, y)
    return float(np.mean(losses)), grads.mean(axis=0), (grads * eps).mean(axis=0)


# ---------------------------------------------------------------------------
# Lipschitz constants


def lipschitz_constant(kind: LossKind, data: Dataset, box: BoxConstraints) -> float:
    """Certified Lipschitz constant L of the expected loss over a dataset,
    L = 2 L'.

    L' bounds the point-loss gradient norm: max_t ||x_t|| for hinge, and
    for the squared linear loss the box-corner bound
    max_t 2 ||x_t|| (|y_t| + sum_j max(|lo_j|, |hi_j|) |x_tj|).
    """
    features = data.features
    norms = np.linalg.norm(features, axis=1)
    if kind.kind == HINGE:
        return 2.0 * float(np.max(norms))
    if kind.kind == SQUARED_LINEAR:
        if features.shape[1] != box.d:
            raise DimensionMismatchError("box dimension must match feature dimension")
        targets = np.abs(data.targets)
        corner = np.maximum(np.abs(box.m_lo), np.abs(box.m_hi))
        resid_bound = targets + np.abs(features) @ corner
        return 2.0 * float(np.max(2.0 * norms * resid_bound))
    raise UnsupportedLossError("no certified Lipschitz constant for squared_nn")
