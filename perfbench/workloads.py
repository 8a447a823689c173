"""The benchmark's workloads and the inputs each one generates from a seed.

Every cohort comes from ``bench.gen_friedman_scenario`` (nonlinear baseline
and effect surfaces built from random Gaussian bumps, p = 20 standard-normal
covariates, unit-variance normal residuals) followed by
``bench.apply_censoring``. The fitted cohorts share one fixed surface, part
of the workload's definition, so that tree sizes and the spread of the
effects, which set the cost of every step, stay alike from seed to seed; the
seed draws each cohort's rows, arms, residuals and censoring, and its sampler
seed. The first ``n`` rows are the training set; the remaining ``holdout``
rows form one held-out fold that only the prediction step sees.

The intercept-fit batch instead draws a new surface for every cohort, as
``bench`` replications do, so the intercept fit's convergence failures show
at their natural rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from npaft.bench import RandomSurface, apply_censoring, draw_random_surface, \
    gen_friedman_scenario
from npaft.data import EncodedDataset
from npaft.engine import FitConfig
from npaft.forest import ForestPrior
from npaft.mixture import CdpHyper

H = 50  # mixture truncation level, the package default
SURFACE_SEED = 0
CURVES = 10        # survival curves, one training patient each
CURVE_TIMES = 100  # evaluation times per survival curve
PDP_GRID = 3       # partial-dependence grid points on the first covariate
PDP_STRIDE = 2     # every second draw enters the partial dependence
RMSE_MAX = 0.5     # loose correctness bound on the mean ITE RMSE


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                 # training rows
    censoring: str         # key of bench.CENSOR_TARGETS
    n_trees: int
    chains: int
    iterations: int        # sweeps per chain
    burn_in: int
    thin: int
    holdout: int           # extra generated rows, predicted but never fitted
    cohorts: int           # fitted cohorts a run cycles over
    intercept_batch: int   # extra cohorts, new surface each, whose intercept fits are counted
    coverage_min: float    # loose bound on mean 95% interval coverage; 0 where it cannot be gated

    def fit_config(self, seed: int) -> FitConfig:
        return FitConfig(seed=seed, iterations=self.iterations, burn_in=self.burn_in,
                         thin=self.thin, chains=self.chains, hyper=CdpHyper(H=H),
                         prior=ForestPrior(n_trees=self.n_trees), keep_forests=True)


# Run lengths are scaled so that a 50-second run fits each of its cohorts
# once, a few seconds a fit, and leaves time for two to four post-fit rounds
# per cohort. More cohorts average over more posteriors, whose tree depths
# and effect spreads set the cost of every post-fit step. The sweep workloads keep forests only at a thinned handful of draws
# so that the tree sweep (or the per-row mixture work) dominates fit time,
# yet every workload still yields every end-to-end metric.
WORKLOADS = {w.name: w for w in (
    # the paper's simulation size: 200 trees and 2 chains, tree moves are
    # ~94% of fit time
    Workload(
        name="sweep-n200",
        n=200, censoring="light", n_trees=200, chains=2, iterations=70, burn_in=50,
        thin=2, holdout=40, cohorts=8, intercept_batch=0,
        coverage_min=0.5),
    # n = 20,000, heavy censoring, 20 trees: per-row label, imputation and
    # intercept-fit work dominates. With 20 trees a split on the arm comes
    # and goes from sweep to sweep, even after 200 sweeps, so some cohorts
    # keep no draw with a nonzero effect and coverage cannot be gated here.
    Workload(
        name="sweep-n20k",
        n=20_000, censoring="heavy", n_trees=20, chains=1, iterations=100, burn_in=60,
        thin=4, holdout=4_000, cohorts=5, intercept_batch=5,
        coverage_min=0.0),
)}


@dataclass
class Cohort:
    train: EncodedDataset
    theta_true: np.ndarray   # true log-scale effect of each training row
    X_holdout: np.ndarray


class Inputs:
    """The run's inputs, all drawn from its seed: the intercept-fit batch and
    a sequence of candidate cohorts to fit, each with its own sampler seed.
    Every cohort is generated when asked for; only the first candidate is
    made up front, as part of the timed set-up."""

    def __init__(self, w: Workload, seed: int):
        self.w = w
        self.seed = seed
        self.surface = draw_random_surface(
            np.random.default_rng(np.random.SeedSequence(SURFACE_SEED)))
        self._first = self._fit_input(0)

    def _seq(self, stream: int, index: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed, spawn_key=(stream, index))

    def batch_cohort(self, i: int) -> Cohort:
        """The i-th cohort of the intercept-fit batch, on a surface of its own."""
        return make_cohort(self.w, self._seq(0, i), None)

    def fit_input(self, j: int) -> tuple[Cohort, int]:
        """The j-th candidate cohort on the workload surface and its sampler seed."""
        if j == 0 and self._first is not None:
            first, self._first = self._first, None
            return first
        return self._fit_input(j)

    def _fit_input(self, j: int) -> tuple[Cohort, int]:
        seq = self._seq(1, j)
        return make_cohort(self.w, seq, self.surface), int(seq.generate_state(1)[0])


def make_cohort(w: Workload, seq: np.random.SeedSequence,
                surface: RandomSurface | None) -> Cohort:
    rng = np.random.default_rng(seq)
    _, sim = gen_friedman_scenario(w.n + w.holdout, rng, surface=surface)
    apply_censoring(sim, w.censoring, rng)
    n = w.n
    # copies, so that a kept cohort holds none of the generated arrays
    train = EncodedDataset.from_arrays(sim.y[:n].copy(), sim.delta[:n].copy(),
                                       sim.a[:n].copy(), sim.X[:n].copy())
    return Cohort(train, sim.theta_true[:n].copy(), sim.X[n:].copy())
