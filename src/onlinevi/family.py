"""Mean-field Gaussian variational family.

Distributions are N(m, diag(sigma^2)) with componentwise standard
deviations sigma > 0.  Three coordinate systems are used by the learners:

    standard     mu = (m, sigma)
    natural      lambda = (m / sigma^2, -1 / (2 sigma^2))
    expectation  (m, m^2 + sigma^2), the coordinates of NGVI's gradient

All value objects are immutable after construction and all operations are
pure functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, DomainError, InvalidPrecisionError

#: Lower clamp for standard deviations inside projections and conversions.
#: Zero sigma is representable only as a point-mass comparator in the
#: evaluation layer, never inside the family (it breaks KL and natural
#: parameters).
SIGMA_FLOOR = 1e-8


def _vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise DomainError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MeanFieldGaussian:
    """Diagonal Gaussian with mean ``m`` and componentwise stddev ``sigma``."""

    m: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _vector(self.m, "m"))
        object.__setattr__(self, "sigma", _vector(self.sigma, "sigma"))
        if self.m.shape != self.sigma.shape:
            raise DimensionMismatchError(
                f"m has length {self.m.size}, sigma has length {self.sigma.size}"
            )
        if np.any(self.sigma <= 0.0):
            raise DomainError("sigma must be strictly positive componentwise")

    @property
    def d(self) -> int:
        return self.m.size

    def mu_vector(self) -> np.ndarray:
        """Stacked (m, sigma) coordinates, the mu used by OGA-EL and bounds."""
        return np.concatenate([self.m, self.sigma])


@dataclass(frozen=True, eq=False)
class NaturalParams:
    """Natural coordinates (lambda1, lambda2) = (m/sigma^2, -1/(2 sigma^2))."""

    lambda1: np.ndarray
    lambda2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lambda1", _vector(self.lambda1, "lambda1"))
        object.__setattr__(self, "lambda2", _vector(self.lambda2, "lambda2"))
        if self.lambda1.shape != self.lambda2.shape:
            raise DimensionMismatchError("lambda1 and lambda2 must have equal length")
        if np.any(self.lambda2 >= 0.0):
            raise InvalidPrecisionError("lambda2 must be strictly negative componentwise")


@dataclass(frozen=True, eq=False)
class BoxConstraints:
    """Product box M_m x M_sigma for means and standard deviations."""

    m_lo: np.ndarray
    m_hi: np.ndarray
    sigma_lo: np.ndarray
    sigma_hi: np.ndarray

    def __post_init__(self):
        for name in ("m_lo", "m_hi", "sigma_lo", "sigma_hi"):
            object.__setattr__(self, name, _vector(getattr(self, name), name))
        lengths = {self.m_lo.size, self.m_hi.size, self.sigma_lo.size, self.sigma_hi.size}
        if len(lengths) != 1:
            raise DimensionMismatchError("box bound vectors must share one length")
        if np.any(self.m_lo > self.m_hi):
            raise DomainError("m_lo must not exceed m_hi")
        if np.any(self.sigma_lo < 0.0) or np.any(self.sigma_lo > self.sigma_hi):
            raise DomainError("need 0 <= sigma_lo <= sigma_hi")

    @property
    def d(self) -> int:
        return self.m_lo.size

    @classmethod
    def symmetric(cls, d: int, m_abs: float = 20.0, sigma_hi: float = 1.0,
                  sigma_lo: float = 0.0) -> "BoxConstraints":
        """The experiments' default box [-m_abs, m_abs]^d x [sigma_lo, sigma_hi]^d."""
        ones = np.ones(d)
        return cls(-m_abs * ones, m_abs * ones, sigma_lo * ones, sigma_hi * ones)

    def diameter(self) -> float:
        """D with D^2 = sup { ||m - m'||^2 + ||sigma||^2 } over the box.

        For [-Mbar, Mbar]^d x [0, Sbar]^d this is sqrt(d (4 Mbar^2 + Sbar^2)).
        """
        d2 = float(np.sum((self.m_hi - self.m_lo) ** 2) + np.sum(self.sigma_hi ** 2))
        return float(np.sqrt(d2))

    def contains(self, q: MeanFieldGaussian, atol: float = 0.0) -> bool:
        return bool(self.contains_arrays(q.m, q.sigma, atol))

    def contains_arrays(self, m: np.ndarray, sigma: np.ndarray, atol: float = 0.0):
        """Whether (m, sigma) lies in the box widened by atol; with leading
        axes on m and sigma, one answer per row."""
        return np.all((m >= self.m_lo - atol) & (m <= self.m_hi + atol)
                      & (sigma >= self.sigma_lo - atol) & (sigma <= self.sigma_hi + atol),
                      axis=-1)

    @cached_property
    def sigma_floor_lo(self) -> np.ndarray:
        """The lower sigma edge of every projection: sigma_lo raised to
        SIGMA_FLOOR."""
        sigma_lo = np.maximum(self.sigma_lo, SIGMA_FLOOR)
        if np.any(sigma_lo > self.sigma_hi):
            raise DomainError("sigma box is empty after flooring at SIGMA_FLOOR")
        return sigma_lo

    def clip(self, m: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Kernel of ``project_box`` on arrays of the box's dimension."""
        return m.clip(self.m_lo, self.m_hi), sigma.clip(self.sigma_floor_lo, self.sigma_hi)


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic Gaussian prior N(0, s^2 I_d)."""

    s: float
    d: int

    def __post_init__(self):
        if not (np.isfinite(self.s) and self.s > 0.0):
            raise DomainError("prior stddev s must be positive and finite")
        if self.d < 1:
            raise DomainError("dimension must be at least 1")

    def gaussian(self) -> MeanFieldGaussian:
        return MeanFieldGaussian(np.zeros(self.d), np.full(self.d, float(self.s)))

    def natural(self) -> NaturalParams:
        return to_natural(self.gaussian())


def kl_divergence(q: MeanFieldGaussian, p: MeanFieldGaussian) -> float:
    """KL(q || p) for diagonal Gaussians.

    0.5 * sum_j [ (m_j - mbar_j)^2 / sbar_j^2 + s_j^2 / sbar_j^2
                  - 1 + log(sbar_j^2 / s_j^2) ]
    """
    if q.d != p.d:
        raise DimensionMismatchError(f"q has dimension {q.d}, p has dimension {p.d}")
    ratio = (q.sigma / p.sigma) ** 2
    total = 0.5 * np.sum((q.m - p.m) ** 2 / p.sigma ** 2 + ratio - 1.0 - np.log(ratio))
    # each summand is >= 0; clamp the float noise at exact zero
    return max(float(total), 0.0)


def h_map(x, out: np.ndarray | None = None):
    """h(x) = sqrt(1 + x^2) - x, componentwise; strictly positive and decreasing.

    One formula: r = sqrt(1 + x^2) + |x|, then 1 / r where x > 0.  For
    x <= 0, r is sqrt(1 + x^2) - x exactly (a subtraction is the addition
    of the negation); for x > 0, 1 / r is the form without cancellation.
    ``out``, an array of x's shape that is not x itself, receives the
    result, so a caller on a fixed shape allocates no array for it."""
    arr = np.asarray(x, dtype=float)
    root = np.multiply(arr, arr, out=np.empty_like(arr) if out is None else out)
    np.add(1.0, root, out=root)
    np.sqrt(root, out=root)
    np.add(root, np.absolute(arr), out=root)
    np.divide(1.0, root, out=root, where=arr > 0.0)
    if root.ndim == 0:
        return float(root)
    return root


def project_box(q: MeanFieldGaussian, box: BoxConstraints) -> MeanFieldGaussian:
    """Componentwise clamp of m into M_m and sigma into M_sigma.

    The sigma lower edge is raised to SIGMA_FLOOR so the projection never
    leaves the family.  Idempotent and 1-Lipschitz in every coordinate.
    """
    if q.d != box.d:
        raise DimensionMismatchError(f"q has dimension {q.d}, box has dimension {box.d}")
    return MeanFieldGaussian(*box.clip(q.m, q.sigma))


def to_natural(q: MeanFieldGaussian) -> NaturalParams:
    var = q.sigma ** 2
    return NaturalParams(q.m / var, -0.5 / var)


def from_natural(lam: NaturalParams) -> MeanFieldGaussian:
    # NaturalParams already guarantees lambda2 < 0
    return MeanFieldGaussian(*natural_to_standard(lam.lambda1, lam.lambda2))


def natural_to_standard(lambda1: np.ndarray,
                        lambda2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of ``from_natural``: (m, sigma) for arrays with lambda2 < 0."""
    var = -0.5 / lambda2
    return var * lambda1, np.sqrt(var)
