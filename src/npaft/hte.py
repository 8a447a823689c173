"""Posterior summaries of treatment-effect heterogeneity.

Everything here is a pure function of the stored draws: per-patient effects
on the log or ratio scale, differential-effect probabilities with evidence
classes, the latent effect-distribution estimate with a smooth density,
proportion benefiting with banded tabulation, allocation rules, individual
survival curves, partial dependence of the effect on single covariates, and
a weighted-regression variable ranking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from . import stdnorm as norm
from .data import EncodedDataset
from .engine import PosteriorDraws, predict_m
from .errors import ConfigError, DataError, NumericError

STRONG_CUT = 0.95
MILD_CUT = 0.80
BENEFIT_BANDS = ((0.99, 1.0), (0.95, 0.99), (0.75, 0.95), (0.25, 0.75), (0.0, 0.25))


@dataclass
class IteDraws:
    """Per-draw, per-patient treatment effects."""

    values: np.ndarray   # (draws, patients)
    scale: str           # "log" (difference) or "ratio" (exponentiated)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_patients(self) -> int:
        return self.values.shape[1]

    def point_estimates(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def intervals(self, level: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
        lo = (1.0 - level) / 2.0
        return (np.quantile(self.values, lo, axis=0),
                np.quantile(self.values, 1.0 - lo, axis=0))


def ite_draws(draws: PosteriorDraws, scale: str = "log") -> IteDraws:
    """Treated-minus-control fits per draw; the ratio scale exponentiates."""
    if scale not in ("log", "ratio"):
        raise ConfigError(f"scale must be 'log' or 'ratio', got {scale!r}")
    theta = np.asarray(draws.m1) - np.asarray(draws.m0)
    if not np.isfinite(theta).all():
        raise NumericError("non-finite treatment-effect draws")
    if scale == "ratio":
        return IteDraws(np.exp(theta), "ratio")
    return IteDraws(theta, "log")


@dataclass
class DteSummary:
    """Differential-effect probabilities and evidence classes per patient."""

    d: np.ndarray          # P{effect_i >= per-draw average}
    d_star: np.ndarray     # folded evidence measure
    evidence: np.ndarray   # "none" | "mild" | "strong"
    pct_strong: float      # percent with d_star > 0.95
    pct_mild: float        # percent with d_star > 0.80 (includes strong)


def differential_effect(draws: IteDraws) -> DteSummary:
    """Per patient, the fraction of draws in which the effect meets or exceeds
    that draw's patient-average effect, folded into an evidence measure."""
    theta = draws.values
    if theta.shape[0] < 1:
        raise DataError("need at least one retained draw")
    draw_mean = theta.mean(axis=1, keepdims=True)
    d = (theta >= draw_mean).mean(axis=0)
    d_star = np.maximum(1.0 - 2.0 * d, 2.0 * d - 1.0)
    evidence = np.where(d_star > STRONG_CUT, "strong",
                        np.where(d_star > MILD_CUT, "mild", "none"))
    n = d.shape[0]
    pct_strong = 100.0 * np.count_nonzero(d_star > STRONG_CUT) / n
    pct_mild = 100.0 * np.count_nonzero(d_star > MILD_CUT) / n
    return DteSummary(d, d_star, evidence, pct_strong, pct_mild)


@dataclass
class EffectDistribution:
    """Latent effect-distribution estimate on a grid."""

    grid: np.ndarray
    cdf: np.ndarray
    cdf_lower: np.ndarray
    cdf_upper: np.ndarray
    density: np.ndarray
    bandwidth: float


def default_bandwidth(draws: IteDraws) -> float:
    """0.9 * min(sigma, IQR/1.34) * n^(-1/5), from posterior means of the
    per-draw effect spread across patients.

    When that scale is negligible (below 1e-8 times the range of all effect
    draws, so rounding noise counts as no spread), it falls back as R's
    ``bw.nrd0`` does: to sigma, then to the absolute first effect, then to
    1, each taken only if it is not negligible itself.
    """
    theta = draws.values
    sd = float(theta.std(axis=1, ddof=1).mean())
    q75, q25 = np.percentile(theta, [75, 25], axis=1)
    iqr = float((q75 - q25).mean())
    n = theta.shape[1]
    negligible = 1e-8 * float(np.ptp(theta))
    scale = next((s for s in (min(sd, iqr / 1.34), sd, abs(float(theta[0, 0])))
                  if s > negligible), 1.0)
    return 0.9 * scale * n ** (-0.2)


def effect_distribution(draws: IteDraws, grid: np.ndarray,
                        bandwidth: float | None = None,
                        level: float = 0.95) -> EffectDistribution:
    """Patient-averaged posterior CDF of the effects with pointwise bands,
    plus a Gaussian-kernel smooth of the corresponding density."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 1 or np.any(np.diff(grid) <= 0):
        raise DataError("grid must be strictly increasing")
    if bandwidth is None:
        bandwidth = default_bandwidth(draws)
    if not bandwidth > 0:
        raise NumericError(f"bandwidth must be positive, got {bandwidth}")

    theta = draws.values
    n = theta.shape[1]
    theta_sorted = np.sort(theta, axis=1)
    per_draw = np.empty((theta.shape[0], grid.shape[0]))
    for d_i in range(theta.shape[0]):
        per_draw[d_i] = np.searchsorted(theta_sorted[d_i], grid, side="right") / n
    cdf = per_draw.mean(axis=0)
    alpha = (1.0 - level) / 2.0
    lo = np.quantile(per_draw, alpha, axis=0)
    hi = np.quantile(per_draw, 1.0 - alpha, axis=0)

    flat = theta.ravel()
    density = np.empty(grid.shape[0])
    for gi, t in enumerate(grid):
        density[gi] = float(np.mean(norm.pdf((t - flat) / bandwidth))) / bandwidth

    if np.any(np.diff(cdf) < 0) or cdf[0] < 0 or cdf[-1] > 1:
        raise NumericError("effect CDF estimate is not a proper CDF")
    return EffectDistribution(grid, cdf, lo, hi, density, float(bandwidth))


@dataclass
class BenefitSummary:
    """Proportion benefiting and per-patient benefit probabilities."""

    q_draws: np.ndarray
    q_mean: float
    q_lower: float
    q_upper: float
    q_eps: dict[float, float]
    p_hat: np.ndarray
    p_hat_mean: float
    bands: list[tuple[str, float]]   # (interval label, percent of patients)


def proportion_benefiting(draws: IteDraws,
                          thresholds: tuple[float, ...] = (0.0, 0.1, 0.25),
                          level: float = 0.95) -> BenefitSummary:
    """Per-draw fraction of patients with positive effects, threshold variants,
    and the banded tabulation of per-patient benefit probabilities.

    The posterior mean of the proportion and the average per-patient benefit
    probability are computed from the same integer count, so their equality
    is exact.
    """
    theta = draws.values
    zero = 1.0 if draws.scale == "ratio" else 0.0
    pos = theta > zero
    n_draws, n = pos.shape
    counts_d = pos.sum(axis=1)
    counts_i = pos.sum(axis=0)
    q_draws = counts_d / n
    q_mean = float(int(counts_d.sum()) / (n_draws * n))
    p_hat = counts_i / n_draws
    p_hat_mean = float(int(counts_i.sum()) / (n_draws * n))
    alpha = (1.0 - level) / 2.0
    q_eps = {}
    for eps in thresholds:
        cut = zero + float(eps)
        q_eps[float(eps)] = float((theta > cut).mean())
    bands = []
    for lo, hi in BENEFIT_BANDS:
        if hi == 1.0:
            inside = p_hat > lo
            label = f"({lo},1]"
        elif lo == 0.0:
            inside = p_hat <= hi
            label = f"[0,{hi}]"
        else:
            inside = (p_hat > lo) & (p_hat <= hi)
            label = f"({lo},{hi}]"
        bands.append((label, 100.0 * np.count_nonzero(inside) / n))
    return BenefitSummary(q_draws, q_mean,
                          float(np.quantile(q_draws, alpha)),
                          float(np.quantile(q_draws, 1.0 - alpha)),
                          q_eps, p_hat, p_hat_mean, bands)


def allocate(draws: IteDraws, rule: str = "misclassification") -> np.ndarray:
    """Per-patient arm recommendation.

    'misclassification': treat when the posterior benefit probability exceeds
    one half. 'weighted': treat when the posterior mean of the positive part
    of the effect exceeds that of the negative part; ties go to control.
    """
    theta = draws.values
    zero = 1.0 if draws.scale == "ratio" else 0.0
    if rule == "misclassification":
        p_hat = (theta > zero).mean(axis=0)
        return (p_hat > 0.5).astype(np.int8)
    if rule == "weighted":
        centered = theta - zero
        gain = np.where(centered > 0, centered, 0.0).mean(axis=0)
        loss = np.where(centered <= 0, -centered, 0.0).mean(axis=0)
        return (gain > loss).astype(np.int8)
    raise ConfigError(f"unknown allocation rule {rule!r}")


@dataclass
class SurvivalCurve:
    times: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def survival_curve(draws: PosteriorDraws, a: int, times: np.ndarray,
                   patient: int | None = None, x: np.ndarray | None = None,
                   level: float = 0.95, chunk: int = 256) -> SurvivalCurve:
    """Posterior survival curve for one arm at a patient's covariates.

    For training patients the stored fits are reused; an explicit covariate
    vector requires retained forests.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times <= 0) or np.any(np.diff(times) <= 0):
        raise DataError("times must be positive and strictly increasing")
    if (patient is None) == (x is None):
        raise ConfigError("give exactly one of patient index or covariate vector")
    if patient is not None:
        m = draws.m1[:, patient] if a == 1 else draws.m0[:, patient]
        m = np.asarray(m)
    else:
        m = predict_m(draws, a, x)

    log_t = np.log(times)
    n_draws = m.shape[0]
    curves = np.empty((n_draws, times.shape[0]))
    for start in range(0, n_draws, chunk):
        end = min(start + chunk, n_draws)
        z = (log_t[None, :, None] - m[start:end, None, None]
             - draws.tau[start:end, None, :]) / draws.sigma[start:end, None, None]
        curves[start:end] = 1.0 - np.einsum("dth,dh->dt", norm.cdf(z),
                                            draws.pi[start:end])
    alpha = (1.0 - level) / 2.0
    mean = curves.mean(axis=0)
    if np.any(np.diff(mean) > 1e-10):
        raise NumericError("survival curve is not nonincreasing")
    return SurvivalCurve(times, mean,
                         np.quantile(curves, alpha, axis=0),
                         np.quantile(curves, 1.0 - alpha, axis=0))


@dataclass
class PartialDependence:
    grid: np.ndarray
    mean: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    extrapolated: np.ndarray  # grid points outside the observed covariate range


def partial_dependence(draws: PosteriorDraws, data: EncodedDataset, column: int,
                       grid: np.ndarray, draw_stride: int = 1,
                       level: float = 0.95) -> PartialDependence:
    """Average effect as one encoded covariate is pinned across its grid.

    Per draw and grid value, every patient's covariate ``column`` is replaced
    by the grid value and the two-arm ensemble difference is averaged over
    patients. Requires retained forests.
    """
    if draws.forests is None:
        raise DataError("forest checkpoints were not retained; "
                        "refit with keep_forests=True to enable partial dependence")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 1:
        raise DataError("grid must be a 1-D array")
    if not 0 <= column < data.p_enc:
        raise DataError(f"covariate column {column} out of range")
    col_obs = data.X[:, column]
    extrapolated = (grid < col_obs.min()) | (grid > col_obs.max())
    if extrapolated.any():
        warnings.warn("partial-dependence grid extends beyond the observed "
                      "covariate range", RuntimeWarning)

    forests = draws.forests[::draw_stride]
    n = data.n
    rho = np.empty((len(forests), grid.shape[0]))
    X_mod = data.X.copy()
    for gi, z in enumerate(grid):
        X_mod[:, column] = z
        U1 = np.column_stack([np.ones(n), X_mod])
        U0 = np.column_stack([np.zeros(n), X_mod])
        for di, pf in enumerate(forests):
            rho[di, gi] = float((pf.predict_matrix(U1) - pf.predict_matrix(U0)).mean())
    alpha = (1.0 - level) / 2.0
    return PartialDependence(grid, rho.mean(axis=0),
                             np.quantile(rho, alpha, axis=0),
                             np.quantile(rho, 1.0 - alpha, axis=0),
                             extrapolated)


def _vt_design(data: EncodedDataset) -> tuple[np.ndarray, list[str], list[str]]:
    """Covariate columns for the variable ranking: one indicator per
    categorical level is dropped (reference) to avoid structural collinearity
    with the intercept."""
    keep: list[int] = []
    names: list[str] = []
    dropped: list[str] = []
    pos = 0
    enc_names = data.schema.encoded_names
    for spec in data.schema.columns:
        w = spec.encoded_width
        if spec.kind == "categorical":
            dropped.append(enc_names[pos])
            for j in range(pos + 1, pos + w):
                keep.append(j)
                names.append(enc_names[j])
        else:
            keep.append(pos)
            names.append(enc_names[pos])
        pos += w
    return data.X[:, keep], names, dropped


def virtual_twins_rank(draws: IteDraws, data: EncodedDataset,
                       variance_floor: float = 1e-12) -> list[tuple[str, float]]:
    """Rank covariates by weighted-least-squares regression of the effect
    point estimates, weights inverse to the per-patient posterior variances.

    Covariates are normalized to zero mean and unit variance; returns
    (name, coefficient) pairs sorted by absolute coefficient, dropped
    reference indicators included with coefficient zero.
    """
    theta = draws.values
    n = theta.shape[1]
    X_raw, names, dropped = _vt_design(data)
    if n < X_raw.shape[1] + 1:
        raise DataError(f"need at least {X_raw.shape[1] + 1} patients, have {n}")
    mean = X_raw.mean(axis=0)
    sd = X_raw.std(axis=0)
    constant = sd == 0
    if constant.any():
        bad = [names[j] for j in np.nonzero(constant)[0]]
        raise DataError(f"singular design: constant column(s) {bad}")
    Xn = (X_raw - mean) / sd

    theta_hat = theta.mean(axis=0)
    var_hat = theta.var(axis=0, ddof=1) if theta.shape[0] > 1 else np.zeros(n)
    w = 1.0 / np.maximum(var_hat, variance_floor)
    sw = np.sqrt(w)
    A = np.column_stack([np.ones(n), Xn]) * sw[:, None]
    b = theta_hat * sw

    _, R, piv = qr(A, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = diag[0] * max(A.shape) * np.finfo(float).eps if diag[0] > 0 else 0.0
    rank = int(np.count_nonzero(diag > tol))
    if rank < A.shape[1]:
        cols = ["intercept" if j == 0 else names[j - 1] for j in piv[rank:]]
        raise DataError(f"singular design: collinear column(s) {cols}")
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    out = list(zip(names, coef[1:].tolist()))
    out.extend((nm, 0.0) for nm in dropped)
    out.sort(key=lambda kv: abs(kv[1]), reverse=True)
    return out
