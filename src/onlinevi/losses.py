"""Point losses, expected losses under a mean-field Gaussian, and gradients.

Supported loss kinds:

    hinge            l(theta) = max(0, 1 - y <theta, x>),  y in {-1, +1}
                     for classification, or any real y
    squared_linear   l(theta) = (y - <theta, x>)^2
    squared_nn       l(theta) = (y - f_theta(x))^2 with a one-hidden-layer
                     ReLU network; theta packs (W1, b1, w2, b2) flat.

One formula per loss.  Each loss is a function of one score s: theta . x
for the linear kinds, the network's output f_theta(x) for squared_nn.
``_score_loss`` holds the two formulas (hinge max(0, 1 - y s), squared
(y - s)^2) and ``_score_slope`` their derivatives in s; every point-loss
kernel computes its own scores and passes them to these two.  The kernels
differ only in their shape:

    point_loss_rows        theta_t on example t (or many thetas on one
                           example), each score a lone dot product
    point_loss_series      one theta on every row
    expert_loss_matrix     K thetas on every row, a (T, K) matrix (or a
                           block of its rows, in a tile of ``row_blocks``)
    mean_loss_and_grad     one theta on every row: mean loss, subgradient
    _point_loss_grad_many  many thetas on one example: losses and
                           subgradients (the Monte-Carlo step)

The network's packing is known only to ``_nn_unpack`` and its inverse
``_nn_pack``.  The network is evaluated in two shapes: each theta on its
own input row (``_nn_forward``: Monte-Carlo samples, ``point_grad`` and the
row-paired kernel) and one theta on all rows (``_nn_forward_rows``: the
series, the comparator's mean and the expert matrix).

For the two convex kinds the expected loss under N(m, diag(sigma^2)) and
its (m, sigma) gradients are in closed form; the network case has no
closed form and is served by the reparameterized Monte-Carlo estimator.

Closed forms.  The hinge margin z = 1 - y <theta, x> is univariate
Gaussian with mean mu_z = 1 - y <m, x> and variance s_z^2 = y^2 sum_j
sigma_j^2 x_j^2, so E[z_+] = mu_z Phi(mu_z/s_z) + s_z phi(mu_z/s_z), and
dE/dsigma_j = phi(mu_z/s_z) y^2 sigma_j x_j^2 / s_z.
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
# one formula per loss


def _score_loss(kind: LossKind, scores: np.ndarray, targets, out=None) -> np.ndarray:
    """The point loss as a function of the score s (theta . x, or the
    network's output) and the target y: hinge max(0, 1 - y s), squared
    (y - s)^2.  Elementwise on an array of scores; every point-loss kernel
    applies it to the scores of its own contraction.  It works in place in
    one new array, so a (T, K) matrix of scores costs one more such matrix,
    not two, or in ``out`` (which may be ``scores`` itself) and costs none."""
    if kind.kind == HINGE:
        loss = np.multiply(targets, scores, out=out)
        np.subtract(1.0, loss, out=loss)
        return np.maximum(0.0, loss, out=loss)
    loss = np.subtract(targets, scores, out=out)
    return np.square(loss, out=loss)


def _score_slope(kind: LossKind, scores, targets):
    """d/ds of ``_score_loss``: hinge -y 1{1 - y s > 0} (zero at the kink),
    squared -2 (y - s)."""
    if kind.kind == HINGE:
        return -targets * (1.0 - targets * scores > 0.0)
    return -2.0 * (targets - scores)


# ---------------------------------------------------------------------------
# the network: its packing and its two evaluation shapes


def _nn_unpack(theta: np.ndarray, hw: int, d_in: int):
    """(W1, b1, w2, b2) of packed parameters whose last axis is theta; any
    leading axes are kept.  With ``_nn_pack`` the only code that knows the
    packing."""
    lead = theta.shape[:-1]
    w1 = theta[..., : hw * d_in].reshape(*lead, hw, d_in)
    b1 = theta[..., hw * d_in: hw * d_in + hw]
    w2 = theta[..., hw * d_in + hw: hw * d_in + 2 * hw]
    return w1, b1, w2, theta[..., -1]


def _nn_pack(g_w1, g_b1, g_w2, g_b2) -> np.ndarray:
    """Inverse of ``_nn_unpack`` for gradients, keeping the leading axes."""
    lead = g_b1.shape[:-1]
    return np.concatenate([g_w1.reshape(*lead, -1), g_b1, g_w2,
                           np.reshape(g_b2, (*lead, 1))], axis=-1)


def _nn_forward(thetas: np.ndarray, x: np.ndarray, hw: int):
    """Each theta on its own input: thetas have any leading axes, against
    which x broadcasts (one row for every theta, or a row per theta).
    Returns the outputs, the pre-activations, the hidden units and w2."""
    w1, b1, w2, b2 = _nn_unpack(thetas, hw, x.shape[-1])
    pre = (w1 @ x[..., None])[..., 0] + b1
    hidden = np.maximum(pre, 0.0)
    return np.sum(w2 * hidden, axis=-1) + b2, pre, hidden, w2


def _nn_forward_rows(theta: np.ndarray, features: np.ndarray, hw: int, out=None):
    """One theta on every row of ``features``; returns as ``_nn_forward``.
    ``out`` may give the (rows, hw) arrays for the pre-activations and the
    hidden units; the bits are the same either way."""
    w1, b1, w2, b2 = _nn_unpack(theta, hw, features.shape[1])
    pre, hidden = (None, None) if out is None else out
    pre = np.matmul(features, w1.T, out=pre)
    pre += b1
    hidden = np.maximum(pre, 0.0, out=hidden)
    return hidden @ w2 + b2, pre, hidden, w2


def _lone_dots(thetas: np.ndarray, features: np.ndarray):
    """theta . x for each theta (last axis) on its own row of features, or
    every theta on one row x; the leading axes broadcast.  Each score is
    its own dot product, so it has the bits of ``float(theta @ x)`` on one
    row, however many rows there are; ``thetas @ x`` (BLAS gemv) rounds
    differently."""
    return (thetas[..., None, :] @ features[..., :, None])[..., 0, 0]


def _check_theta(kind: LossKind, theta: np.ndarray, d_in: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float).reshape(-1)
    expected = kind.param_dim(d_in)
    if theta.size != expected:
        raise DimensionMismatchError(
            f"theta has length {theta.size}, {kind.kind} with d_in={d_in} needs {expected}"
        )
    return theta


# ---------------------------------------------------------------------------
# point losses and subgradients


def point_loss(kind: LossKind, theta, ex: DataExample) -> float:
    return float(point_loss_rows(kind, _check_theta(kind, theta, ex.x.size)[None], ex.x,
                                 ex.y)[0])


def point_grad(kind: LossKind, theta, ex: DataExample) -> np.ndarray:
    """Subgradient of the point loss at theta.

    Hinge uses the convention 1{margin > 0} (zero exactly at the kink);
    the network ReLU derivative is 0 at 0.
    """
    return point_grad_xy(kind, _check_theta(kind, theta, ex.x.size), ex.x, ex.y)


def point_grad_xy(kind: LossKind, theta: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Kernel of ``point_grad`` on a validated theta, or on rows (k, d) of
    thetas, and one (x, y) row; each row's subgradient has the bits it has
    on its own."""
    if kind.kind == SQUARED_NN:
        return _point_loss_grad_many(kind, theta[..., None, :], x, y)[1][..., 0, :]
    return np.multiply.outer(_score_slope(kind, _lone_dots(theta, x), y), x)


def point_loss_many(kind: LossKind, thetas: np.ndarray, ex: DataExample) -> np.ndarray:
    """Point loss of each row of thetas on one example."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != kind.param_dim(ex.x.size):
        raise DimensionMismatchError("thetas must be (n, param_dim)")
    return point_loss_rows(kind, thetas, ex.x, ex.y)


def point_loss_series(kind: LossKind, theta, features: np.ndarray,
                      targets: np.ndarray) -> np.ndarray:
    """Point loss of a fixed theta along a stream (vectorized over rows)."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    theta = _check_theta(kind, theta, features.shape[1])
    if kind.kind == SQUARED_NN:
        scores = _nn_forward_rows(theta, features, kind.hidden_width)[0]
    else:
        scores = features @ theta
    return _score_loss(kind, scores, targets)


def point_loss_rows(kind: LossKind, thetas: np.ndarray, features: np.ndarray,
                    targets) -> np.ndarray:
    """Point loss of each theta on its own example, for all of them at once:
    the leading axes of thetas, features and targets broadcast (row t of
    thetas on example t, or every theta on one example).  Each score is a
    lone dot product, so it rounds as ``theta @ x`` does on one row."""
    if kind.kind == SQUARED_NN:
        scores = _nn_forward(thetas, features, kind.hidden_width)[0]
    else:
        scores = _lone_dots(thetas, features)
    return _score_loss(kind, scores, targets)


#: Values in one block of the arrays that are built or walked a block of
#: rows at a time: a tile of the grid's (T, K) expert losses and of the
#: hinge Jensen audit's (holdout rows, T) matrix, and in ``learners``, a
#: pass's block of decisions and of Monte-Carlo normals (whose row t is
#: step t's draw in any block).  That is about 256 KiB per float64 tile,
#: whatever the number of rows, unless two rows of the matrix are more.  It
#: is sized to the L2 cache, not to a workload: a block that fits there
#: keeps the passes over it out of main memory.  Every block is computed in
#: one tile allocated once per matrix, so its pages are faulted in once; a
#: fresh array per block would fault them in again whenever malloc hands
#: such a size back to the system (14,000 faults and twice the time per
#: audit, depending on what the process allocated before).  At T = 4800, H
#: = 1200, d = 10 on a 2-core x86 machine, with two BLAS threads, the
#: matrix audit took 25-40 ms per learner with 2^14 or 2^15 values, and
#: 63-90 ms wall with 2^16 to 2^20.
TILE_VALUES = 2 ** 15


def row_blocks(n_rows: int, width: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """How to build an (n_rows, width) loss matrix a block of rows at a time
    in one reused tile of about ``TILE_VALUES`` values: returns the tile,
    uninitialized, and the (start, stop) of each block, the blocks of
    ``np.array_split`` into that many.  Each block has at least two rows
    (unless n_rows < 2), since a one-row product takes BLAS's matrix-vector
    kernel, which rounds otherwise than the matrix one; with that, each row
    of ``expert_loss_matrix`` has the same bits in any block."""
    blocks = max(1, min(n_rows // 2, -(-n_rows * width // TILE_VALUES)))
    size, extra = divmod(n_rows, blocks)
    stops = [(i + 1) * size + min(i + 1, extra) for i in range(blocks)]
    return np.empty((-(-n_rows // blocks), width)), list(zip([0] + stops[:-1], stops))


def expert_loss_matrix(kind: LossKind, experts: np.ndarray, features: np.ndarray,
                       targets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(T, K) point losses of every expert (row of ``experts``) along a
    stream, written into ``out`` when it is given: a C-contiguous (T, K)
    float array, which then holds the scores and the losses in turn, so the
    call allocates no (T, K) array.  The bits are the same either way."""
    if kind.kind == SQUARED_NN:
        # one expert at a time: a single pass would hold all K * T *
        # hidden_width pre-activations at once
        scores = np.stack([_nn_forward_rows(expert, features, kind.hidden_width)[0]
                           for expert in experts], axis=1, out=out)
    else:
        scores = np.matmul(features, experts.T, out=out)
    return _score_loss(kind, scores, targets[:, None], out=out)


def _point_loss_grad_many(kind: LossKind, thetas: np.ndarray, x: np.ndarray,
                          y: float) -> tuple[np.ndarray, np.ndarray]:
    """Point losses (...,) and subgradients (..., param_dim) of thetas with
    any leading axes on one example (x, y), from one pass of
    ``thetas @ x`` (or of the network, whose ReLU derivative is 0 at 0)."""
    if kind.kind != SQUARED_NN:
        scores = thetas @ x
        return _score_loss(kind, scores, y), _score_slope(kind, scores, y)[..., None] * x
    f, pre, hidden, w2 = _nn_forward(thetas, x, kind.hidden_width)
    dloss = _score_slope(kind, f, y)
    g_b1 = dloss[..., None] * w2 * (pre > 0.0)
    grads = _nn_pack(g_b1[..., None] * x, g_b1, dloss[..., None] * hidden, dloss)
    return _score_loss(kind, f, y), grads


def nn_buffers(n: int, hidden_width: int) -> tuple[np.ndarray, ...]:
    """The four (n, hidden_width) arrays that ``mean_loss_and_grad``'s
    network branch writes on n rows: the pre-activations, the hidden units,
    the ReLU mask and the gate dl/db1 per row.  A caller that evaluates many
    thetas on one stream (the comparator) allocates them once and passes
    them as ``work``: four fresh arrays per call would be fresh mmaps
    whenever malloc has handed such sizes back to the system, and would
    fault their pages in on every call."""
    shape = (n, hidden_width)
    return np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape)


def mean_loss_and_grad(kind: LossKind, theta, features: np.ndarray, targets: np.ndarray,
                       work: tuple[np.ndarray, ...] | None = None) -> tuple[float, np.ndarray]:
    """Mean point loss of a fixed theta along a stream and its mean
    subgradient, from one pass of ``features @ theta`` (or of the network,
    whose per-row arrays go into ``work``, the four arrays of
    ``nn_buffers(n, hidden_width)``, or into four allocated here when it
    is None; the bits are the same either way).  The convex kinds ignore
    ``work``.

    The loss equals ``np.mean(point_loss_series(...))`` bit for bit; the
    subgradient follows ``point_grad`` (hinge 1{margin > 0}, ReLU
    derivative 0 at 0).

    The network's two column sums (dl/db1 and dl/dw2) are einsum
    contractions.  On an (n, hidden_width) array with hidden_width >= 2,
    einsum adds each column in row order, which is the order of
    ``mean(axis=0)`` on that array, so the sums have the same bits at a
    fraction of the cost, and dl/dw2 needs no (n, hidden_width) product
    first.  BLAS (``gate.T @ ones``, ``hidden.T @ dloss``) would round
    differently.  The exception is hidden_width = 1: numpy sums an (n, 1)
    column pairwise, einsum in row order, so there those two entries differ
    from ``mean(axis=0)`` in the last bits, by about 1e-15 of the mean
    absolute summand.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    theta = _check_theta(kind, theta, features.shape[1])
    n = features.shape[0]
    if kind.kind != SQUARED_NN:
        scores = features @ theta
        return (float(np.mean(_score_loss(kind, scores, targets))),
                features.T @ _score_slope(kind, scores, targets) / n)
    pre, hidden, mask, gate = nn_buffers(n, kind.hidden_width) if work is None else work
    f, pre, hidden, w2 = _nn_forward_rows(theta, features, kind.hidden_width, (pre, hidden))
    dloss = _score_slope(kind, f, targets)          # (n,)
    np.multiply(dloss[:, None], np.greater(pre, 0.0, out=mask), out=gate)  # per-row dl/db1
    gate *= w2
    grad = _nn_pack((gate.T @ features) / n, np.einsum("ij->j", gate) / n,
                    np.einsum("ij,i->j", hidden, dloss) / n, dloss.mean())
    return float(np.mean(_score_loss(kind, f, targets))), grad


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
    """E_{theta ~ q}[l(theta)] in closed form (convex kinds only):
    ``expected_loss_series`` on one row."""
    return float(expected_loss_series(kind, q, ex.x[None, :], np.array([ex.y]))[0])


def expected_loss_grad(kind: LossKind, q: MeanFieldGaussian,
                       ex: DataExample) -> ExpectedLossGradient:
    """Closed-form (dLbar/dm, dLbar/dsigma) for the convex kinds."""
    _check_q(kind, q, ex.x.size)
    return ExpectedLossGradient(*expected_grad_xy(kind, q.m, q.sigma, ex.x, ex.y))


def expected_grad_xy(kind: LossKind, m: np.ndarray, sigma: np.ndarray, x: np.ndarray,
                     y: float, out: tuple[np.ndarray, np.ndarray] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of ``expected_loss_grad``: (g_m, g_sigma) for a validated
    (m, sigma), or for rows (k, d) of them, and one (x, y) row; the result
    is not checked for finiteness.  Rows (k, d) may give ``out``, a pair of
    (k, d) arrays that receive (g_m, g_sigma).  Each row's gradient has the
    bits it has on its own: its score is a lone dot product, s_z a sum
    along the row, and the few numbers per row (mu_z, s_z, z, Phi(z)) are
    Python floats, as one row's are.  A row with sigma = 0 gets the point
    subgradient's bits (``point_grad_xy``)."""
    if m.ndim == 1:
        g_m, g_sigma = expected_grad_xy(kind, m[None], sigma[None], x, y)
        return g_m[0], g_sigma[0]
    g_m, g_sigma = (None, None) if out is None else out
    scores = _lone_dots(m, x)
    if kind.kind == SQUARED_LINEAR:
        return (np.multiply.outer(-2.0 * (y - scores), x, out=g_m),
                np.multiply(2.0 * sigma, x ** 2, out=g_sigma))
    if kind.kind == HINGE:
        # s_z = |y| root, so dE/dsigma = phi(z) |y| sigma x^2 / root, with
        # Phi(z) = erfc(-z / sqrt 2) / 2 and phi's exponent -z^2 / 2 per row
        slope, roots, exponents, y_abs = [], [], [], abs(y)
        erfc, sqrt, sqrt2 = math.erfc, math.sqrt, _SQRT2
        squares = np.add.reduce((sigma * x) ** 2, axis=1)
        for score, square in zip(scores.tolist(), squares.tolist()):
            mu_z, root = 1.0 - y * score, sqrt(square)
            if y_abs * root == 0.0:
                # the margin is the point mu_z: dE/dm = -y x 1{mu_z > 0} (the
                # point subgradient, so a row with sigma = 0 gets its bits),
                # and phi(inf) = 0 makes dE/dsigma 0
                slope.append(-y * (1.0 if mu_z > 0.0 else 0.0))
                roots.append(1.0)
                exponents.append(-math.inf)
            else:
                z = mu_z / (y_abs * root)
                slope.append(-y * (0.5 * erfc(-z / sqrt2)))
                roots.append(root)
                exponents.append(-0.5 * z * z)
        g_sigma = np.divide(sigma * (y_abs * x ** 2), np.array(roots)[:, None], out=g_sigma)
        pdf = _INV_SQRT_2PI * np.exp(exponents)
        return np.multiply.outer(slope, x, out=g_m), np.multiply(g_sigma, pdf[:, None],
                                                                 out=g_sigma)
    raise UnsupportedLossError(
        "squared_nn has no closed-form gradient; use mc_expected_loss_and_grad"
    )


def expected_loss_series(kind: LossKind, q: MeanFieldGaussian, features: np.ndarray,
                         targets: np.ndarray) -> np.ndarray:
    """Closed-form expected loss of a fixed q along a stream (convex kinds)."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    _check_q(kind, q, features.shape[1])
    if kind.kind == SQUARED_NN:
        raise UnsupportedLossError(
            "squared_nn has no closed-form expected loss; use mc_expected_loss_and_grad"
        )
    scores = features @ q.m
    out = _score_loss(kind, scores, targets)     # the point loss at the mean
    if kind.kind == SQUARED_LINEAR:
        return out + (features ** 2) @ (q.sigma ** 2)
    mu_z = 1.0 - targets * scores
    s_z = np.abs(targets) * np.sqrt((features ** 2) @ (q.sigma ** 2))
    pos = s_z > 0.0
    z = mu_z[pos] / s_z[pos]
    out[pos] = mu_z[pos] * gaussian_cdf(z) + s_z[pos] * gaussian_pdf(z)
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo path (reparameterization)

#: The counter stream of the Monte-Carlo normals: the step seed selects the
#: draw, this label keeps it apart from other streams of the same seed.
MC_STREAM = "mc-expected-loss"


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
    validated (m, sigma), one (x, y) row and ``samples >= 1``, with eps the
    first ``samples * m.size`` normals of ``CounterRng(seed, MC_STREAM)``."""
    eps = CounterRng(seed, MC_STREAM).normals(samples * m.size).reshape(samples, m.size)
    losses, g_m, g_sigma = mc_grad_eps(kind, m, sigma, x, y, eps)
    return float(np.mean(losses)), g_m, g_sigma


def mc_grad_eps(kind: LossKind, m: np.ndarray, sigma: np.ndarray, x: np.ndarray, y: float,
                eps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(losses, g_m, g_sigma) from given (samples, d) normals ``eps``: the
    point loss of each sample, whose mean is the estimate of ``mc_grad_xy``,
    and the two gradient estimates.  m and sigma may be (d,) or rows (k, d);
    every row uses the same normals, and its estimates have the bits they
    have on their own.  eps may carry leading axes, (..., samples, d), that
    broadcast against those of m; each block of samples then gives its own
    estimate, so (n, 1, d) normals give n one-sample estimates.  The
    learners' loop reads only the gradients, so the mean is left to
    ``mc_grad_xy``."""
    thetas = m[..., None, :] + sigma[..., None, :] * eps
    losses, grads = _point_loss_grad_many(kind, thetas, x, y)
    return losses, grads.mean(axis=-2), (grads * eps).mean(axis=-2)


# ---------------------------------------------------------------------------
# Lipschitz constants


def lipschitz_constant(kind: LossKind, data: Dataset, box: BoxConstraints) -> float:
    """Certified Lipschitz constant L of the expected loss over a dataset,
    L = 2 L'.

    L' bounds the point-loss gradient norm: max_t |y_t| ||x_t|| for hinge,
    whose subgradient is -y_t x_t 1{margin > 0} (||x_t|| on a stream of
    +-1 labels, but hinge runs on real-valued targets too), and for the
    squared linear loss the box-corner bound
    max_t 2 ||x_t|| (|y_t| + sum_j max(|lo_j|, |hi_j|) |x_tj|).
    """
    features = data.features
    norms = np.linalg.norm(features, axis=1)
    if kind.kind == HINGE:
        return 2.0 * float(np.max(np.abs(data.targets) * norms))
    if kind.kind == SQUARED_LINEAR:
        if features.shape[1] != box.d:
            raise DimensionMismatchError("box dimension must match feature dimension")
        targets = np.abs(data.targets)
        corner = np.maximum(np.abs(box.m_lo), np.abs(box.m_hi))
        resid_bound = targets + np.abs(features) @ corner
        return 2.0 * float(np.max(2.0 * norms * resid_bound))
    raise UnsupportedLossError("no certified Lipschitz constant for squared_nn")


def box_loss_bound(kind: LossKind, features: np.ndarray, targets: np.ndarray,
                   box: BoxConstraints) -> float:
    """The largest point loss that a theta in the box can take on any of the
    rows, at most: max_t 1 + |y_t| sum_j c_j |x_tj| for hinge and max_t (|y_t|
    + sum_j c_j |x_tj|)^2 for the squared linear loss, c_j = max(|lo_j|,
    |hi_j|); inf where that overflows a float."""
    corner = np.maximum(np.abs(box.m_lo), np.abs(box.m_hi))
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.abs(features) @ corner
        if kind.kind == HINGE:
            return float(np.max(1.0 + np.abs(targets) * reach))
        if kind.kind == SQUARED_LINEAR:
            return float(np.max((np.abs(targets) + reach) ** 2))
    raise UnsupportedLossError("no box loss bound for squared_nn")
