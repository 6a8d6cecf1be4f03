"""Shared numeric oracles for the test suite.

These stay independent of the implementation paths they check: golden
section for closed-form argmin updates, central finite differences for
analytic gradients, the learners' updates written one learner at a time,
each the paper's formula as it reads (``lockstep`` runs them fused across
learners, and must give the same bits), and the CSV readers written cell by
cell in Python (``load_csv`` and the series reader parse in bulk, and must
give the same bits or the same error).
"""

import csv
import math
from pathlib import Path

import numpy as np

from onlinevi.data import CLASSIFICATION, REGRESSION, Dataset
from onlinevi.errors import DataError, InvalidPrecisionError
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


# ---------------------------------------------------------------------------
# the CSV readers, one cell at a time


def reference_load_csv(path, schema) -> Dataset:
    """``data.load_csv`` as a loop over ``csv.reader``'s rows, each cell
    stripped and converted by ``float()``; blank lines are skipped but
    counted in the row (file line) that an error names."""
    header, width = None, None
    features, targets = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        for row in reader:
            if not row:
                continue
            if schema.has_header and header is None:
                header = row
                continue
            line = reader.line_num
            if width is None:
                if isinstance(schema.label, int):
                    label_idx = schema.label
                elif header is None:
                    raise DataError("label column by name requires a header")
                elif schema.label in header:
                    label_idx = header.index(schema.label)
                else:
                    raise DataError(f"{path}: no column named {schema.label!r}")
                if not (0 <= label_idx < len(row)):
                    raise DataError(f"{path}: label column index {label_idx} out of range")
                width = len(row)
            if len(row) != width:
                raise DataError(f"{path}: row {line} has {len(row)} cells, expected {width}")
            values = []
            for j, cell in enumerate(row):
                text = cell.strip()
                if text == "":
                    raise DataError(f"{path}: missing value at row {line}, column {j + 1}")
                if j == label_idx and schema.positive_label is not None:
                    values.append(1.0 if text == schema.positive_label else -1.0)
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    what = "label" if j == label_idx else "cell"
                    raise DataError(f"{path}: unparseable {what} at row {line}, "
                                    f"column {j + 1}: {text!r}") from None
            targets.append(values.pop(label_idx))
            features.append(values)
    if width is None:
        raise DataError(f"{path}: empty file" if header is None
                        else f"{path}: no data rows after header")
    task = CLASSIFICATION if schema.positive_label is not None else REGRESSION
    return Dataset(np.array(features).reshape(len(targets), width - 1), np.array(targets),
                   task, str(path))


def reference_read_series(path: Path, horizon: int) -> np.ndarray:
    """A series file's instant losses, line by line: the second
    comma-separated cell of each line after the header, by ``float()``."""
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != "t,instant_loss,cum_loss,avg_cum_loss":
        raise DataError(f"{path}: not a series file")
    losses = []
    for line in lines[1:]:
        cells = line.split(",")
        try:
            losses.append(float(cells[1]))
        except (IndexError, ValueError):
            raise DataError(f"{path}: every row needs a numeric instant_loss") from None
    if len(losses) != horizon:
        raise DataError(f"{path}: {len(losses)} rows, but the run has T = {horizon}")
    for t, value in enumerate(losses, start=1):
        if not math.isfinite(value):
            raise DataError(f"{path}: row t = {t} has the instant_loss {np.float64(value)}, "
                            "which is not finite")
    return np.array(losses)
