"""Shared numeric oracles for the test suite.

These stay independent of the implementation paths they check: golden
section for closed-form argmin updates, central finite differences for
analytic gradients, and the learners' updates written one learner at a
time, each the paper's formula as it reads (``lockstep`` runs them fused
across learners, and must give the same bits).
"""

import math

import numpy as np

from onlinevi.errors import InvalidPrecisionError
from onlinevi.family import SIGMA_FLOOR, MeanFieldGaussian, h_map
from onlinevi.learners import (MAX_STEP_RETRIES, FixedEta, InvSigmaSqrtT, NgviConfig,
                               SvaConfig, Thm3ConvexSchedule)
from onlinevi.losses import expected_loss

_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Minimize a unimodal f on [lo, hi] to within tol."""
    a, b = lo, hi
    c = b - _PHI * (b - a)
    d = a + _PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fd_expected_grad(kind, q: MeanFieldGaussian, ex, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of the expected loss in (m, sigma),
    stacked as [dL/dm, dL/dsigma]."""
    d = q.d
    out = np.zeros(2 * d)
    for j in range(d):
        for block in (0, 1):
            m_p, s_p = q.m.copy(), q.sigma.copy()
            m_m, s_m = q.m.copy(), q.sigma.copy()
            if block == 0:
                m_p[j] += step
                m_m[j] -= step
            else:
                s_p[j] += step
                s_m[j] -= step
            f_p = expected_loss(kind, MeanFieldGaussian(m_p, s_p), ex)
            f_m = expected_loss(kind, MeanFieldGaussian(m_m, s_m), ex)
            out[block * d + j] = (f_p - f_m) / (2.0 * step)
    return out


def rel_vec_error(analytic: np.ndarray, oracle: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(oracle)), 1e-8)
    return float(np.linalg.norm(analytic - oracle)) / denom


# ---------------------------------------------------------------------------
# one learner's update, from its current arrays and a gradient to the next
# arrays, then the projection onto its box


def _project(config, m, sigma):
    if isinstance(config, NgviConfig) or (isinstance(config, SvaConfig) and not config.project) \
            or config.box is None:
        return m, sigma
    return config.box.clip(m, sigma)


def sva_step(m, accum, g_m, g_sigma, config):
    """m' = m - eta s^2 g_m, accum' = accum + g_sigma,
    sigma' = s h(eta s accum' / 2); returns (m', sigma', accum')."""
    eta, s = config.eta, config.prior.s
    m = m - eta * s * s * g_m
    accum = accum + g_sigma
    return (*_project(config, m, s * h_map(0.5 * eta * s * accum)), accum)


def svb_rate(schedule, t, sigma):
    """eta_{t,j} of an SVB schedule."""
    if isinstance(schedule, FixedEta):
        return np.full_like(sigma, schedule.eta)
    if isinstance(schedule, InvSigmaSqrtT):
        return 1.0 / (sigma ** 2 * math.sqrt(t))
    if isinstance(schedule, Thm3ConvexSchedule):
        return (schedule.D * math.sqrt(2.0)) / (schedule.L * math.sqrt(t) * sigma ** 2)
    return 2.0 / (schedule.H * t * sigma ** 2)


def svb_step(m, sigma, g_m, g_sigma, t, config):
    """m' = m - eta_t sigma^2 g_m, sigma' = sigma h(eta_t sigma g_sigma / 2)."""
    eta = svb_rate(config.schedule, t, sigma)
    return _project(config, m - eta * sigma ** 2 * g_m,
                    sigma * h_map(0.5 * eta * sigma * g_sigma))


def ngvi_step(lam, g_mu1, g_mu2, lam_prior, step, config):
    """lambda' = (1 - beta) lambda + beta lambda_prior - eta beta g_mu,
    1/beta = 1/alpha + 1/eta, with eta halved until lambda2' < 0; returns
    (lambda1', lambda2', halvings)."""
    eta = config.eta
    for halvings in range(MAX_STEP_RETRIES + 1):
        beta = 1.0 / (1.0 / config.alpha + 1.0 / eta)
        l1 = (1.0 - beta) * lam[0] + beta * lam_prior.lambda1 - eta * beta * g_mu1
        l2 = (1.0 - beta) * lam[1] + beta * lam_prior.lambda2 - eta * beta * g_mu2
        if np.all(l2 < 0.0):
            return l1, l2, halvings
        eta = 0.5 * eta
    raise InvalidPrecisionError(f"NGVI step {step} left the family (lambda2 >= 0) after "
                                f"{MAX_STEP_RETRIES} eta halvings", step=step)


def oga_step(theta, g, config):
    return (theta - config.eta * g).clip(config.box.m_lo, config.box.m_hi)


def ogael_step(m, sigma, g_m, g_sigma, config):
    return _project(config, m - config.eta * g_m,
                    np.maximum(sigma - config.eta * g_sigma, SIGMA_FLOOR))
