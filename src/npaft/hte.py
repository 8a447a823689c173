"""Posterior summaries of treatment-effect heterogeneity.

Everything here is a pure function of the stored draws: per-patient effects
on the log or ratio scale, differential-effect probabilities with evidence
classes, the latent effect-distribution estimate with a smooth density,
proportion benefiting with banded tabulation, allocation rules, individual
survival curves, and partial dependence of the effect on single covariates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .data import EncodedDataset
from .engine import PosteriorDraws, check_arm, predict_m
from .errors import ConfigError, DataError, NumericError

STRONG_CUT = 0.95
MILD_CUT = 0.80
BENEFIT_BANDS = ((0.99, 1.0), (0.95, 0.99), (0.75, 0.95), (0.25, 0.75), (0.0, 0.25))
SURVIVAL_CHUNK = 256  # draws per block of survival_curve's draws x times x H array
_SQRT_2PI = np.sqrt(2 * np.pi)


def _tail(level: float) -> float:
    """Probability outside each end of a central interval of ``level``."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be strictly between 0 and 1, got {level}")
    return (1.0 - level) / 2.0


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
        lo = _tail(level)
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
    return _bandwidth(draws.values, draws.values)


def _bandwidth(theta: np.ndarray, rows: np.ndarray) -> float:
    """``default_bandwidth`` with the quartiles taken from ``rows``, which
    holds each row of ``theta`` in any order: the order statistics, and so
    the bits, are the same, and on rows sorted already they cost less. The
    sd is taken from ``theta``, whose summation order sets its bits."""
    sd = float(theta.std(axis=1, ddof=1).mean())
    q75, q25 = np.percentile(rows, [75, 25], axis=1)
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
    plus a Gaussian-kernel smooth of the corresponding density.

    The density is the kernel average over all draws' effects. Tied effects
    are collapsed first (tree-ensemble effects are piecewise constant, so a
    posterior holds few distinct values): each distinct value's kernel is
    weighted by its count, and only values within +-8 bandwidths of a grid
    point enter its sum, so a grid point with none there gets 0. Each
    dropped term is below exp(-32) ~ 1.3e-14 of the kernel's peak.
    """
    grid = np.asarray(grid, dtype=float)
    if (grid.ndim != 1 or grid.shape[0] < 1 or not np.isfinite(grid).all()
            or np.any(np.diff(grid) <= 0)):
        raise DataError("grid must be finite and strictly increasing")
    if bandwidth is not None and not bandwidth > 0:
        raise ConfigError(f"bandwidth must be positive, got {bandwidth}")
    alpha = _tail(level)
    theta = draws.values
    theta_sorted = np.sort(theta, axis=1)
    if bandwidth is None:
        bandwidth = _bandwidth(theta, theta_sorted)
        if not bandwidth > 0:
            raise NumericError(f"computed bandwidth is not positive: {bandwidth}")

    n = theta.shape[1]
    per_draw = np.empty((theta.shape[0], grid.shape[0]))
    for d_i in range(theta.shape[0]):
        per_draw[d_i] = np.searchsorted(theta_sorted[d_i], grid, side="right") / n
    cdf = per_draw.mean(axis=0)
    lo = np.quantile(per_draw, alpha, axis=0)
    hi = np.quantile(per_draw, 1.0 - alpha, axis=0)

    values, counts = np.unique(theta, return_counts=True)
    starts = np.searchsorted(values, grid - 8.0 * bandwidth, side="left")
    stops = np.searchsorted(values, grid + 8.0 * bandwidth, side="right")
    density = np.array([
        counts[s:e] @ (np.exp(-((t - values[s:e]) / bandwidth) ** 2 / 2.0) / _SQRT_2PI)
        for t, s, e in zip(grid, starts, stops)]) / (theta.size * bandwidth)

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
    alpha = _tail(level)
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
                   level: float = 0.95) -> SurvivalCurve:
    """Posterior survival curve for one arm at a patient's covariates.

    For training patients the stored fits are reused; an explicit covariate
    vector requires retained forests. An arm other than 0 or 1 is a
    ``ConfigError``, and a patient index that is not an integer in [0, n) a
    ``DataError``.
    """
    check_arm(a)
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or not np.isfinite(times).all() or np.any(times <= 0)
            or np.any(np.diff(times) <= 0)):
        raise DataError("times must be finite, positive and strictly increasing")
    if (patient is None) == (x is None):
        raise ConfigError("give exactly one of patient index or covariate vector")
    alpha = _tail(level)
    if patient is not None:
        if isinstance(patient, bool) or not isinstance(patient, (int, np.integer)):
            raise DataError(f"patient index must be an integer, got {patient!r}")
        if not 0 <= patient < draws.n_patients:
            raise DataError(f"patient index {patient} out of range (n={draws.n_patients})")
        m = np.asarray(draws.m1[:, patient] if a == 1 else draws.m0[:, patient])
    else:
        m = predict_m(draws, a, x)

    log_t = np.log(times)
    n_draws = m.shape[0]
    curves = np.empty((n_draws, times.shape[0]))
    # one block, written in place: the three temporaries per chunk that the
    # expression would allocate are mapped from the OS and faulted in anew
    # on each call unless an earlier large free has raised malloc's mapping
    # threshold (7,490 page faults per ten 40-draw, 100-time curves at H = 50)
    block = np.empty((min(SURVIVAL_CHUNK, n_draws), times.shape[0], draws.tau.shape[1]))
    for start in range(0, n_draws, SURVIVAL_CHUNK):
        end = min(start + SURVIVAL_CHUNK, n_draws)
        z = block[:end - start]
        np.subtract(log_t[None, :, None] - m[start:end, None, None],
                    draws.tau[start:end, None, :], out=z)
        z /= draws.sigma[start:end, None, None]
        curves[start:end] = 1.0 - np.einsum("dth,dh->dt", ndtr(z, out=z),
                                            draws.pi[start:end])
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
    patients; every ``draw_stride``-th retained draw is used. Requires
    retained forests.

    Only the trees that split on the arm are routed (``arm_trees``): any
    other tree gives a patient the same fit in both arms, so it cancels from
    the difference, and a draw with no such tree gives exactly 0 unrouted.
    The other draws and both arms go through one call per grid value, on one
    matrix with the treated rows above the control rows, in which only the
    pinned column changes between grid values.
    """
    if draws.forests is None:
        raise DataError("forest checkpoints were not retained; "
                        "refit with keep_forests=True to enable partial dependence")
    if draw_stride < 1:
        raise ConfigError(f"draw stride must be at least 1, got {draw_stride}")
    alpha = _tail(level)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.shape[0] < 1 or not np.isfinite(grid).all():
        raise DataError("grid must be a 1-D array of finite values")
    if not 0 <= column < data.p_enc:
        raise DataError(f"covariate column {column} out of range")
    col_obs = data.X[:, column]
    extrapolated = (grid < col_obs.min()) | (grid > col_obs.max())
    if extrapolated.any():
        warnings.warn("partial-dependence grid extends beyond the observed "
                      "covariate range", RuntimeWarning)

    sub = draws.forests.arm_trees(draw_stride)
    has_arm = sub.trees_per_draw > 0
    sub.trees_per_draw = sub.trees_per_draw[has_arm]
    n = data.n
    # Fortran order: predict_matrix's transpose of it needs no copy
    U = np.empty((2 * n, data.p_enc + 1), order="F")
    U[:n, 0], U[n:, 0] = 1.0, 0.0
    U[:n, 1:], U[n:, 1:] = data.X, data.X
    rho = np.zeros((has_arm.shape[0], grid.shape[0]))
    for gi, z in enumerate(grid):
        U[:, column + 1] = z
        f = sub.predict_matrix(U)
        rho[has_arm, gi] = (f[:, :n] - f[:, n:]).mean(axis=1)
    return PartialDependence(grid, rho.mean(axis=0),
                             np.quantile(rho, alpha, axis=0),
                             np.quantile(rho, 1.0 - alpha, axis=0),
                             extrapolated)

