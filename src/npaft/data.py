"""Dataset ingestion, covariate encoding, and response-scale calibration.

Input files are delimiter-separated text with a header row
``time,status,trt,<covariates...>``. Covariate kinds (continuous, binary,
categorical) come from a schema sidecar; categorical columns are expanded to
one-of-K indicators so that tree rules of the form ``u <= c`` apply uniformly
to every encoded column.

The response transformation divides follow-up times by ``exp(mu_aft)``, where
``(mu_aft, sigma_aft)`` is the maximum-likelihood fit of an intercept-only
lognormal survival model with right-censored observations, a Newton fit of
the scalars ``(mu, log sigma)``. ``sigma_aft`` anchors the node-value scale
of the tree ensemble and the residual-variance calibration downstream.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import log_ndtr

from .errors import ConfigError, DataError, NumericError

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "."}

#: kinds accepted in a covariate schema
COLUMN_KINDS = ("continuous", "binary", "categorical")

SIGMA_FLOOR = 1e-6
AFT_MAX_ITER, AFT_GTOL = 200, 1e-10  # Newton steps and gradient-norm tolerance
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


@dataclass(frozen=True)
class ColumnSpec:
    """One covariate column: a name, a kind, and levels if categorical."""

    name: str
    kind: str
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.levels:
                raise DataError(f"column {self.name!r}: categorical column needs levels")
            if len(set(self.levels)) != len(self.levels):
                raise DataError(f"column {self.name!r}: duplicate categorical levels")
        elif self.levels:
            raise DataError(f"column {self.name!r}: levels only apply to categorical columns")

    @property
    def encoded_width(self) -> int:
        return len(self.levels) if self.kind == "categorical" else 1


class CovariateSchema:
    """Ordered covariate column specs plus the induced one-of-K encoding."""

    def __init__(self, columns: list[ColumnSpec]):
        if not columns:
            raise DataError("schema declares no covariate columns")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate covariate names in schema")
        self.columns = list(columns)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def encoded_width(self) -> int:
        return sum(c.encoded_width for c in self.columns)

    @property
    def encoded_names(self) -> list[str]:
        out: list[str] = []
        for c in self.columns:
            if c.kind == "categorical":
                out.extend(f"{c.name}={lvl}" for lvl in c.levels)
            else:
                out.append(c.name)
        return out

    @classmethod
    def from_mapping(cls, mapping: dict) -> "CovariateSchema":
        """Build a schema from a parsed sidecar mapping.

        Accepted forms per column: ``name: continuous``, ``name: binary``,
        ``name: {categorical: [a, b, c]}``.
        """
        cols = []
        for name, spec in mapping.items():
            if isinstance(spec, str):
                cols.append(ColumnSpec(str(name), spec.strip()))
            elif isinstance(spec, dict) and "categorical" in spec:
                levels = tuple(str(v) for v in spec["categorical"])
                cols.append(ColumnSpec(str(name), "categorical", levels))
            else:
                raise DataError(f"column {name!r}: cannot interpret schema entry {spec!r}")
        return cls(cols)

    @classmethod
    def from_yaml(cls, path: str | Path) -> "CovariateSchema":
        import yaml

        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        if not isinstance(doc, dict):
            raise DataError(f"schema file {path}: expected a mapping")
        mapping = doc.get("columns", doc)
        if not isinstance(mapping, dict):
            raise DataError(f"schema file {path}: 'columns' must be a mapping")
        return cls.from_mapping(mapping)


class EncodedDataset:
    """Response, event and arm vectors plus the encoded covariate matrix."""

    def __init__(self, y: np.ndarray, delta: np.ndarray, a: np.ndarray,
                 X: np.ndarray, schema: CovariateSchema):
        y = np.asarray(y, dtype=float)
        delta = np.asarray(delta, dtype=np.int8)
        a = np.asarray(a, dtype=np.int8)
        X = np.ascontiguousarray(X, dtype=float)
        n = y.shape[0]
        if n < 2:
            raise DataError(f"need at least 2 observations, got {n}")
        if not (delta.shape[0] == a.shape[0] == X.shape[0] == n):
            raise DataError("response, event, arm and covariate row counts disagree")
        if X.shape[1] != schema.encoded_width:
            raise DataError(
                f"covariate matrix has {X.shape[1]} columns, schema encodes {schema.encoded_width}")
        for what, bad in (("non-finite", ~np.isfinite(y)), ("nonpositive", y <= 0)):
            if bad.any():
                raise DataError(f"{what} time at row {int(np.argmax(bad)) + 1}")
        bad = np.argwhere(~np.isfinite(X))
        if bad.size:
            i, j = bad[0]
            raise DataError(f"non-finite covariate {X[i, j]} at row {i + 1}, "
                            f"column {schema.encoded_names[j]!r}")
        if not (np.isin(delta, (0, 1)).all() and np.isin(a, (0, 1)).all()):
            raise DataError("status and trt must be 0/1")
        self.y = y
        self.delta = delta
        self.a = a
        self.X = X
        self.schema = schema

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p_enc(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_arrays(cls, y, delta, a, X) -> "EncodedDataset":
        """Wrap already-numeric arrays as continuous columns ``x1, x2, ...``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        schema = CovariateSchema([ColumnSpec(f"x{j + 1}", "continuous")
                                  for j in range(X.shape[1])])
        return cls(np.asarray(y, float), np.asarray(delta), np.asarray(a), X, schema)

    def subset(self, rows: np.ndarray) -> "EncodedDataset":
        return EncodedDataset(self.y[rows], self.delta[rows], self.a[rows],
                              self.X[rows], self.schema)


@dataclass(frozen=True)
class ResponseTransform:
    """Intercept-only lognormal survival fit: location and residual scale."""

    mu_aft: float
    sigma_aft: float

    def __post_init__(self):
        if not self.sigma_aft > 0:
            raise DataError(f"sigma_aft must be positive, got {self.sigma_aft}")


def _parse_float(token: str, row: int, col: str) -> float:
    t = token.strip()
    if t.lower() in _MISSING_TOKENS:
        raise DataError(f"missing value at row {row}, column {col!r}")
    try:
        return float(t)
    except ValueError:
        raise DataError(f"cannot parse {token!r} at row {row}, column {col!r}") from None


def _parse_binary(token: str, row: int, col: str) -> int:
    v = _parse_float(token, row, col)
    if v not in (0.0, 1.0):
        raise DataError(f"column {col!r} must be 0/1, got {token!r} at row {row}")
    return int(v)


def load_dataset(path: str | Path, schema: CovariateSchema,
                 delimiter: str = ",") -> EncodedDataset:
    """Load a delimiter-separated file with header ``time,status,trt,<covariates...>``.

    Missing values, unknown categorical levels, non-finite covariates and
    non-finite or nonpositive times are load-time errors naming the offending
    row and column. Row numbers in error messages count data rows from 1.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        expected = ["time", "status", "trt"] + schema.names
        if header != expected:
            raise DataError(
                f"{path}: header {header!r} does not match expected {expected!r}")

        level_maps = {
            c.name: {lvl: i for i, lvl in enumerate(c.levels)}
            for c in schema.columns if c.kind == "categorical"
        }
        ys, deltas, arms, rows_enc = [], [], [], []
        for ridx, row in enumerate(reader, start=1):
            if len(row) != len(expected):
                raise DataError(f"{path}: row {ridx} has {len(row)} fields, expected {len(expected)}")
            y = _parse_float(row[0], ridx, "time")
            delta = _parse_binary(row[1], ridx, "status")
            a = _parse_binary(row[2], ridx, "trt")
            enc = np.zeros(schema.encoded_width)
            pos = 0
            for c, token in zip(schema.columns, row[3:]):
                t = token.strip()
                if c.kind == "categorical":
                    if t.lower() in _MISSING_TOKENS:
                        raise DataError(f"missing value at row {ridx}, column {c.name!r}")
                    lvl = level_maps[c.name].get(t)
                    if lvl is None:
                        raise DataError(
                            f"unknown categorical level {token!r} at row {ridx}, column {c.name!r}")
                    enc[pos + lvl] = 1.0
                elif c.kind == "binary":
                    enc[pos] = _parse_binary(token, ridx, c.name)
                else:
                    enc[pos] = _parse_float(token, ridx, c.name)
                    if not math.isfinite(enc[pos]):
                        raise DataError(
                            f"non-finite value {t!r} at row {ridx}, column {c.name!r}")
                pos += c.encoded_width
            ys.append(y)
            deltas.append(delta)
            arms.append(a)
            rows_enc.append(enc)
    if not ys:
        raise DataError(f"{path}: no data rows")
    return EncodedDataset(np.array(ys), np.array(deltas), np.array(arms),
                          np.vstack(rows_enc), schema)


def _censored_lognormal_loglik(mu: float, eta: float, lu: np.ndarray,
                               lc: np.ndarray) -> float:
    """Log-likelihood of ``Normal(mu, exp(eta)^2)`` log times, observed at
    ``lu`` and right-censored at ``lc``."""
    sigma = math.exp(eta)
    ll = float(np.sum(-eta - 0.5 * ((lu - mu) / sigma) ** 2 - 0.5 * math.log(2 * math.pi)))
    return ll + float(np.sum(log_ndtr(-((lc - mu) / sigma))))


def _score_and_hessian(mu: float, eta: float, lu: np.ndarray,
                       lc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of ``_censored_lognormal_loglik`` over
    ``(mu, eta)``, with ``eta = log sigma``."""
    sigma = math.exp(eta)
    su, sc = (lu - mu) / sigma, (lc - mu) / sigma
    # hazard of the standard normal at the censored points
    lam = np.exp(-sc ** 2 / 2.0 - _LOG_SQRT_2PI - log_ndtr(-sc))
    dlam = lam * (lam - sc)
    g = np.array([(np.sum(su) + np.sum(lam)) / sigma,
                  np.sum(su ** 2 - 1.0) + np.sum(sc * lam)])
    h_mu_eta = -(2.0 * np.sum(su) + np.sum(sc * dlam + lam)) / sigma
    H = np.array([[-(su.shape[0] + np.sum(dlam)) / sigma ** 2, h_mu_eta],
                  [h_mu_eta, -2.0 * np.sum(su ** 2) - np.sum(sc * (lam + sc * dlam))]])
    return g, H


def fit_intercept_lognormal_aft(data: EncodedDataset) -> ResponseTransform:
    """Maximum-likelihood ``(mu, sigma)`` of an intercept-only lognormal
    survival model with right censoring.

    Newton iteration on ``(mu, log sigma)`` with analytic gradient and
    Hessian, started from the mean and population sd of the uncensored log
    times, which with no censoring are the answer. The log-likelihood and
    its gradient are sums over the n rows, so their rounding error grows
    with n, and so do both tests against it: a damped step may lower the
    log-likelihood by 1e-12 per row, and the iteration stops at a gradient
    norm below ``AFT_GTOL`` or 1e-14 per row, the larger, or fails after
    ``AFT_MAX_ITER`` steps. Zero-variance responses clamp sigma at
    ``SIGMA_FLOOR`` with a warning.
    """
    ly = np.log(data.y)
    unc = data.delta == 1
    if not unc.any():
        raise NumericError("likelihood unbounded: every observation is censored")
    lu, lc = ly[unc], ly[~unc]
    gtol = max(AFT_GTOL, 1e-14 * data.n)
    slack = 1e-12 * data.n

    mu = float(np.mean(lu))
    eta = math.log(max(float(np.sqrt(np.mean((lu - mu) ** 2))), 1e-3))
    eta_floor = math.log(SIGMA_FLOOR)

    ll = _censored_lognormal_loglik(mu, eta, lu, lc)
    gnorm = math.inf
    for _ in range(AFT_MAX_ITER):
        g, H = _score_and_hessian(mu, eta, lu, lc)
        gnorm = float(np.linalg.norm(g))
        if gnorm < gtol:
            break
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = None
        if step is None or float(step @ g) <= 0:
            # Hessian not usable (singular or not negative definite at this
            # point); fall back to a unit-norm ascent step
            step = g / max(1.0, gnorm)
        # damped step: halve until the log-likelihood does not decrease by
        # more than its rounding error
        scale = 1.0
        for _half in range(60):
            mu_new = mu + scale * float(step[0])
            eta_new = max(eta + scale * float(step[1]), eta_floor)
            ll_new = _censored_lognormal_loglik(mu_new, eta_new, lu, lc)
            if ll_new >= ll - slack:
                break
            scale *= 0.5
        mu, eta, ll = mu_new, eta_new, ll_new
        if eta <= eta_floor + 1e-12:
            warnings.warn(
                "residual scale hit the 1e-6 floor (degenerate zero-variance responses); "
                "sigma clamped", RuntimeWarning)
            return ResponseTransform(mu_aft=mu, sigma_aft=SIGMA_FLOOR)
    else:
        raise NumericError(
            f"intercept AFT fit did not converge in {AFT_MAX_ITER} iterations; "
            f"final gradient norm {gnorm:.3e}")
    return ResponseTransform(mu_aft=mu, sigma_aft=math.exp(eta))


def transform_responses(data: EncodedDataset, t: ResponseTransform) -> EncodedDataset:
    """Rescale times as ``y * exp(-mu_aft)`` (log times are shifted by ``-mu_aft``)."""
    y_tr = data.y * math.exp(-t.mu_aft)
    if not np.isfinite(y_tr).all():
        raise NumericError("response transformation overflowed")
    return EncodedDataset(y_tr, data.delta, data.a, data.X, data.schema)


def split_point_grid(column: np.ndarray, max_points: int = 100) -> np.ndarray:
    """Candidate cut values for one encoded column.

    At most ``max_points`` distinct cuts at evenly spaced empirical
    quantiles; 0/1 indicator columns get the single cut 0.5, constant
    columns an empty grid. Every returned cut strictly separates at least
    one pair of observed values.
    """
    if max_points < 1:
        raise ConfigError(f"max_points must be >= 1, got {max_points}")
    col = np.asarray(column, dtype=float)
    u = np.unique(col)
    if u.size <= 1:
        return np.empty(0)
    if u.size == 2 and u[0] == 0.0 and u[1] == 1.0:
        return np.array([0.5])
    if u.size - 1 <= max_points:
        return (u[:-1] + u[1:]) / 2.0
    levels = np.arange(1, max_points + 1) / (max_points + 1)
    cand = np.unique(np.quantile(col, levels))
    return cand[cand < u[-1]]
