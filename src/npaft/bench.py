"""Generative benchmarks and scoring.

Four mean-zero residual families with a common target variance, null
time-to-event generators (linear log-time regression and a proportional-
hazards model with a Weibull baseline), a random nonlinear-surface generator
built from Gaussian bumps on random covariate subsets, exponential censoring
calibrated to a target fraction, replication metrics (RMSE, misclassification
proportion, interval coverage, evidence-of-heterogeneity percentages), and
a censoring-weighted cross-validation score.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import EncodedDataset
from .engine import FitConfig, fit, map_tasks, predict_m
from .errors import ConfigError, DataError, NumericError
from .hte import allocate, differential_effect, ite_draws
from .mixture import brentq

EULER_GAMMA = 0.5772156649015329
CENSOR_TARGETS = {"light": 0.20, "heavy": 0.45}
CENSOR_XTOL = 1e-10   # root-finding tolerance on the censoring rate
CV_WEIGHT_FLOOR = 1e-3  # censoring-survival weights below this are raised to it
BASELINE_BUMPS, EFFECT_BUMPS = 10, 5  # Gaussian bumps per random surface part
FAMILY_TAGS = ("normal", "gumbel", "std-gamma", "t-mixture")


@dataclass(frozen=True)
class ResidualFamily:
    """A mean-zero residual law with a matched target variance."""

    tag: str
    variance: float = 1.0
    gamma_shape: float = 2.0      # std-gamma only
    t_df: float = 3.0             # t-mixture only
    t_tail_weight: float = 0.25   # weight of each off-center t component

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ConfigError(f"unknown residual family {self.tag!r}")
        if self.variance <= 0:
            raise ConfigError("variance must be positive")
        if not 0 < self.t_tail_weight < 0.5:
            raise ConfigError("t_tail_weight must be in (0, 0.5)")
        if self.t_df <= 2:
            raise ConfigError("t_df must exceed 2 for a finite variance")


def gen_residuals(family: ResidualFamily, n: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. mean-zero draws with the family's target variance."""
    v = family.variance
    if family.tag == "normal":
        return rng.normal(0.0, math.sqrt(v), n)
    if family.tag == "gumbel":
        beta = math.sqrt(6.0 * v) / math.pi
        return rng.gumbel(-beta * EULER_GAMMA, beta, n)
    if family.tag == "std-gamma":
        k = family.gamma_shape
        s = math.sqrt(v / k)
        return rng.gamma(k, s, n) - k * s
    # mixture of three t distributions: tails at +-mu_star, center at 0;
    # location spread and component variance each carry half the target
    w = family.t_tail_weight
    mu_star = math.sqrt(v / (4.0 * w))
    t_var = family.t_df / (family.t_df - 2.0)
    s = math.sqrt(v / (2.0 * t_var))
    locs = np.array([-mu_star, 0.0, mu_star])
    comp = rng.choice(3, size=n, p=[w, 1.0 - 2.0 * w, w])
    return locs[comp] + s * rng.standard_t(family.t_df, n)


@dataclass
class SimData:
    """One simulated cohort: latent failure times plus the true effects."""

    T: np.ndarray            # latent failure times
    a: np.ndarray
    X: np.ndarray
    theta_true: np.ndarray   # true log-scale effect per subject
    y: np.ndarray | None = None
    delta: np.ndarray | None = None

    def to_dataset(self) -> EncodedDataset:
        if self.y is None:
            raise DataError("apply a censoring level before building a dataset")
        return EncodedDataset.from_arrays(self.y, self.delta, self.a, self.X)


def gen_null_aft(coefs: np.ndarray, family: ResidualFamily, n: int,
                 rng: np.random.Generator,
                 interaction_coefs: np.ndarray | None = None) -> SimData:
    """Linear log-time model ``log T = b0 + b1 A + X b + [A * X b_int] + W``.

    Without interactions the true effect is the constant ``b1``; with them it
    is ``b1 + x' b_int`` (the fixed-regression scenario).
    """
    coefs = np.asarray(coefs, dtype=float)
    b0, b1, bx = coefs[0], coefs[1], coefs[2:]
    p = bx.shape[0]
    X = rng.standard_normal((n, p))
    a = rng.integers(0, 2, n)
    theta = np.full(n, b1)
    log_t = b0 + b1 * a + (X @ bx if p else 0.0)
    if interaction_coefs is not None:
        theta = b1 + X @ np.asarray(interaction_coefs, dtype=float)
        log_t = b0 + a * theta + (X @ bx if p else 0.0)
    log_t = log_t + gen_residuals(family, n, rng)
    return SimData(np.exp(log_t), a, X, theta)


def gen_null_cox(coefs: np.ndarray, shape: float, scale: float, n: int,
                 rng: np.random.Generator) -> SimData:
    """Proportional-hazards times with a Weibull baseline, by inverse transform.

    ``T = scale * (-log U / exp(eta))^(1/shape)`` with linear predictor
    ``eta = b0 + b1 A + X b``; the true log-time effect is the constant
    ``-b1/shape``.
    """
    if shape <= 0 or scale <= 0:
        raise ConfigError("Weibull shape and scale must be positive")
    coefs = np.asarray(coefs, dtype=float)
    b0, b1, bx = coefs[0], coefs[1], coefs[2:]
    p = bx.shape[0]
    X = rng.standard_normal((n, p))
    a = rng.integers(0, 2, n)
    eta = b0 + b1 * a + (X @ bx if p else 0.0)
    u = rng.random(n)
    T = scale * (-np.log(u) / np.exp(eta)) ** (1.0 / shape)
    return SimData(T, a, X, np.full(n, -b1 / shape))


@dataclass
class GaussianBump:
    """exp(-0.5 (z - mu)' V (z - mu)) over a fixed covariate subset."""

    idx: np.ndarray
    mu: np.ndarray
    V: np.ndarray

    def __call__(self, X: np.ndarray) -> np.ndarray:
        z = X[:, self.idx] - self.mu
        return np.exp(-0.5 * np.einsum("ij,jk,ik->i", z, self.V, z))


@dataclass
class RandomSurface:
    """Random nonlinear baseline and effect surfaces built from bumps."""

    baseline_coefs: np.ndarray
    baseline_bumps: list[GaussianBump]
    effect_coefs: np.ndarray
    effect_bumps: list[GaussianBump]

    def baseline(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for c, g in zip(self.baseline_coefs, self.baseline_bumps):
            out += c * g(X)
        return out

    def effect(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        for c, g in zip(self.effect_coefs, self.effect_bumps):
            out += c * g(X)
        return out

    def regression(self, a: np.ndarray, X: np.ndarray) -> np.ndarray:
        return self.baseline(X) + a * self.effect(X)


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign correction."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _draw_bump(p: int, rng: np.random.Generator) -> GaussianBump:
    r = rng.exponential(2.0)
    size = min(int(math.floor(r + 1.5)), 10, p)  # a bump spans at most all p covariates
    idx = rng.choice(p, size=size, replace=False)
    mu = rng.standard_normal(size)
    sqrt_d = rng.uniform(0.1, 2.0, size)
    u = random_orthogonal(size, rng)
    V = u @ np.diag(sqrt_d ** 2) @ u.T
    return GaussianBump(idx, mu, V)


def draw_random_surface(rng: np.random.Generator, p: int = 20) -> RandomSurface:
    a1 = rng.uniform(-1.0, 1.0, BASELINE_BUMPS)
    g1 = [_draw_bump(p, rng) for _ in range(BASELINE_BUMPS)]
    a2 = rng.uniform(-0.2, 0.3, EFFECT_BUMPS)
    g2 = [_draw_bump(p, rng) for _ in range(EFFECT_BUMPS)]
    return RandomSurface(a1, g1, a2, g2)


def gen_friedman_scenario(n: int, rng: np.random.Generator, p: int = 20,
                          family: ResidualFamily | None = None,
                          surface: RandomSurface | None = None
                          ) -> tuple[RandomSurface, SimData]:
    """Random-surface cohort: x ~ N(0,1)^p, equal-probability arms,
    ``log T = F0(x) + A*effect(x) + W``. True effects retained for scoring."""
    if family is None:
        family = ResidualFamily("normal")
    if surface is None:
        surface = draw_random_surface(rng, p)
    X = rng.standard_normal((n, p))
    a = rng.integers(0, 2, n)
    theta = surface.effect(X)
    log_t = surface.baseline(X) + a * theta + gen_residuals(family, n, rng)
    return surface, SimData(np.exp(log_t), a, X, theta)


def apply_censoring(sim: SimData, level: str, rng: np.random.Generator) -> SimData:
    """Independent exponential censoring with the rate calibrated so the
    expected censored fraction matches the level's target in
    ``CENSOR_TARGETS``."""
    if level == "none":
        sim.y = sim.T.copy()
        sim.delta = np.ones(sim.T.shape[0], dtype=np.int8)
        return sim
    if level not in CENSOR_TARGETS:
        raise ConfigError(f"unknown censoring level {level!r}")
    target = CENSOR_TARGETS[level]
    T = sim.T

    def expected_censored(lam: float) -> float:
        return float(np.mean(-np.expm1(-lam * T))) - target

    lo, hi = 1e-12, 1.0 / max(float(np.median(T)), 1e-300)
    for _ in range(200):
        if expected_censored(hi) > 0:
            break
        hi *= 2.0
    else:
        raise NumericError("censoring calibration failed to bracket the target")
    lam = brentq(expected_censored, lo, hi, xtol=CENSOR_XTOL)
    C = rng.exponential(1.0 / lam, T.shape[0])
    sim.y = np.minimum(T, C)
    sim.delta = (T <= C).astype(np.int8)
    return sim


class KaplanMeier:
    """Product-limit survival estimate, evaluated right-continuously."""

    def __init__(self, times: np.ndarray, events: np.ndarray):
        times = np.asarray(times, dtype=float)
        events = np.asarray(events)
        order = np.argsort(times, kind="stable")
        t, e = times[order], events[order]
        uniq, start = np.unique(t, return_index=True)
        n = t.shape[0]
        at_risk = n - start
        d = np.add.reduceat(e, start)
        with np.errstate(invalid="ignore"):
            factors = 1.0 - d / at_risk
        self.times = uniq
        self.survival = np.cumprod(factors)

    def __call__(self, t) -> np.ndarray:
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")
        surv = np.concatenate(([1.0], self.survival))
        return surv[idx]


@dataclass
class MetricRow:
    """Scores for one simulation replication."""

    rmse: float
    mcprop: float
    coverage: float
    pct_strong: float
    pct_mild: float
    censored_fraction: float = math.nan


def score_replication(true_theta: np.ndarray, theta_hat: np.ndarray,
                      lower: np.ndarray, upper: np.ndarray,
                      allocation: np.ndarray,
                      pct_strong: float = math.nan,
                      pct_mild: float = math.nan) -> MetricRow:
    """RMSE, misclassification proportion, and interval coverage."""
    arrays = [np.asarray(v, dtype=float) for v in
              (true_theta, theta_hat, lower, upper, allocation)]
    n = arrays[0].shape[0]
    if any(arr.shape[0] != n for arr in arrays[1:]):
        raise DataError("score inputs have mismatched lengths")
    theta, theta_hat, lo, hi, R = arrays
    rmse = float(np.sqrt(np.mean((theta_hat - theta) ** 2)))
    mcprop = float(np.mean((theta <= 0) * R) + np.mean((theta > 0) * (1.0 - R)))
    coverage = float(np.mean((lo <= theta) & (theta <= hi)))
    return MetricRow(rmse, mcprop, coverage, pct_strong, pct_mild)


# -- cross-validation ---------------------------------------------------------

def cross_validation_score(data: EncodedDataset, n_folds: int, config: FitConfig,
                           rng: np.random.Generator) -> tuple[list[float], float]:
    """Censoring-weighted absolute prediction error over K folds.

    Each fold's training part is fitted with ``config`` (forests kept), and
    each test row's log failure time is predicted by the posterior mean of
    its arm's ``predict_m``. Events are weighted by the inverse of the
    training part's Kaplan-Meier censoring survival, floored at
    ``CV_WEIGHT_FLOOR``.
    """
    n = data.n
    if n_folds < 2:
        raise ConfigError(f"need at least 2 folds, got {n_folds}")
    if n_folds > n // 2:
        raise ConfigError(f"{n_folds} folds is more than {n} rows allow: at most {n // 2}")
    perm = rng.permutation(n)
    folds = np.array_split(perm, n_folds)
    scores: list[float] = []
    for k, test_idx in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        train = data.subset(np.nonzero(mask)[0])
        if not (train.delta == 1).any():
            raise DataError(f"fold {k + 1}: training part has no events")
        draws = fit(train, replace(config, keep_forests=True))
        test = data.subset(test_idx)
        v_hat = KaplanMeier(train.y, 1 - train.delta)(test.y)
        if np.any((v_hat < CV_WEIGHT_FLOOR) & (test.delta == 1)):
            warnings.warn("censoring-survival estimate hit the weight floor",
                          RuntimeWarning)
        v_hat = np.maximum(v_hat, CV_WEIGHT_FLOOR)
        m_hat = np.empty(test.n)
        for arm in (0, 1):
            rows = test.a == arm
            if rows.any():
                m_hat[rows] = predict_m(draws, arm, test.X[rows]).mean(axis=0)
        term = test.delta / v_hat * np.abs(np.log(test.y) - m_hat)
        scores.append(float(term.mean()))
    return scores, float(np.mean(scores))


# -- full benchmark pipeline ---------------------------------------------------

@dataclass
class SimScenario:
    """One benchmark configuration."""

    kind: str                     # aft-linear-null | cox-null | friedman-hte | fixed-regression
    n: int
    family: ResidualFamily
    censoring: str = "none"
    name: str = ""
    coefs: tuple = (6.5, 0.25)
    interaction_coefs: tuple | None = None
    weibull_shape: float = 1.2
    weibull_scale: float = 1000.0
    p: int = 20                   # friedman-hte covariate count

    def __post_init__(self):
        kinds = ("aft-linear-null", "cox-null", "friedman-hte", "fixed-regression")
        if self.kind not in kinds:
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if not self.name:
            self.name = f"{self.kind}/n{self.n}/{self.censoring}/{self.family.tag}"
        if self.censoring != "none" and self.censoring not in CENSOR_TARGETS:
            raise ConfigError(f"scenario {self.name!r}: unknown censoring level "
                              f"{self.censoring!r}, not one of {['none', *CENSOR_TARGETS]}")
        if self.kind == "friedman-hte":
            return
        p = len(self.coefs) - 2
        if p < 1:
            raise ConfigError(f"scenario {self.name!r}: coefs must give an intercept, a "
                              f"treatment and at least one covariate coefficient, got "
                              f"{tuple(self.coefs)}")
        if self.kind == "fixed-regression" and (self.interaction_coefs is None
                                                or len(self.interaction_coefs) != p):
            raise ConfigError(f"scenario {self.name!r}: interaction_coefs must give one "
                              f"coefficient per covariate ({p}), got {self.interaction_coefs}")


def _generate(scenario: SimScenario, rng: np.random.Generator) -> SimData:
    if scenario.kind == "aft-linear-null":
        return gen_null_aft(np.asarray(scenario.coefs), scenario.family, scenario.n, rng)
    if scenario.kind == "fixed-regression":
        return gen_null_aft(np.asarray(scenario.coefs), scenario.family, scenario.n,
                            rng, np.asarray(scenario.interaction_coefs))
    if scenario.kind == "cox-null":
        return gen_null_cox(np.asarray(scenario.coefs), scenario.weibull_shape,
                            scenario.weibull_scale, scenario.n, rng)
    _, sim = gen_friedman_scenario(scenario.n, rng, scenario.p, scenario.family)
    return sim


def run_replication(scenario: SimScenario, fit_config: FitConfig,
                    seed_seq: np.random.SeedSequence) -> MetricRow:
    """generate -> censor -> fit -> summarize -> score for one replication."""
    gen_seq, fit_seq = seed_seq.spawn(2)
    rng = np.random.default_rng(gen_seq)
    sim = _generate(scenario, rng)
    apply_censoring(sim, scenario.censoring, rng)
    dataset = sim.to_dataset()
    cfg_seed = int(fit_seq.generate_state(1)[0])
    cfg = replace(fit_config, seed=cfg_seed, keep_forests=False)
    draws = fit(dataset, cfg)
    ite = ite_draws(draws, "log")
    dte = differential_effect(ite)
    lower, upper = ite.intervals(0.95)
    row = score_replication(sim.theta_true, ite.point_estimates(), lower, upper,
                            allocate(ite, "misclassification"),
                            dte.pct_strong, dte.pct_mild)
    row.censored_fraction = float(np.mean(sim.delta == 0))
    return row


def run_benchmark(scenarios: list[SimScenario], reps: int, fit_config: FitConfig,
                  seed: int) -> list[dict]:
    """Run every scenario for ``reps`` replications; one result row each.

    Replications run through ``map_tasks``, in forked workers as chains do.
    Each is seeded from one root sequence in a fixed order, so the rows are
    the same however many workers run them.
    """
    if reps < 1:
        raise ConfigError("reps must be >= 1")
    seqs = np.random.SeedSequence(seed).spawn(len(scenarios) * reps)
    tasks = [(scenario, rep, seqs[s_i * reps + rep])
             for s_i, scenario in enumerate(scenarios) for rep in range(reps)]
    rows = map_tasks(lambda tasks, i: run_replication(tasks[i][0], fit_config, tasks[i][2]),
                     tasks, len(tasks))
    return [{"scenario": scenario.name, "kind": scenario.kind, "n": scenario.n,
             "censoring": scenario.censoring, "family": scenario.family.tag, "rep": rep,
             **asdict(row)} for (scenario, rep, _), row in zip(tasks, rows)]


def format_benchmark_table(rows: list[dict]) -> str:
    """Per-scenario means of the evidence percentages, one line per
    (n, censoring) group with family columns."""
    groups: dict[tuple[int, str], dict[str, list]] = {}
    families: list[str] = []
    for row in rows:
        key = (row["n"], row["censoring"])
        fam = row["family"]
        if fam not in families:
            families.append(fam)
        groups.setdefault(key, {}).setdefault(fam, []).append(row)
    header = f"{'n':>6} {'censoring':>10}"
    for fam in families:
        header += f" {fam + ' SE':>12} {fam + ' ME':>12}"
    lines = [header, "-" * len(header)]
    for (n, cens), by_fam in sorted(groups.items()):
        line = f"{n:>6} {cens:>10}"
        for fam in families:
            rows_f = by_fam.get(fam)
            if rows_f:
                se = np.mean([r["pct_strong"] for r in rows_f])
                me = np.mean([r["pct_mild"] for r in rows_f])
                line += f" {se:>12.3f} {me:>12.3f}"
            else:
                line += f" {'-':>12} {'-':>12}"
        lines.append(line)
    return "\n".join(lines) + "\n"
