"""One workload's measured run: the user path through npaft, timed per step.

The path is ``npaft fit --keep-forests`` -> ``summarize`` -> ``survcurve``
-> ``pdp`` -> held-out prediction (one cross-validation fold), called through
the library; the CLI only adds CSV and manifest writing around the same
calls. A run works on a fixed number of cohorts, the first of the seed's
sequence whose intercept fit converges. It fits each cohort once, with the
cohort's own sampler seed, and follows each fit with one post-fit round on
its draws (save -> load -> summarize -> survival curves -> partial
dependence -> predict). Between fits it cycles further post-fit rounds over
the cohorts fitted so far, paced to spread evenly over the run. Every
timing is taken per cohort, so each cohort weighs the same in a run's
figure however many rounds the clock allows. With tracing on, each cohort
is fitted twice with the same sampler seed, untraced then traced, and the
two draws files must be byte-identical. Fits and post-fit rounds are
spread over the whole run, and the rounds take the cohorts in turn, so a
slower or faster spell of a shared machine weighs on every metric and every
cohort alike. Operations and correctness checks are counted; a check that
fails is a failed operation. The program's two known defects, the intercept fit's convergence
failure and the zero default bandwidth of ``summarize``, are counted by
cohort apart from the failed operations, so ``failed`` stays 0 on a sound
run and a run's failure count does not depend on how many rounds the clock
allows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import traceback
import warnings
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from npaft import data, engine, hte
from npaft.errors import NumericError

from tracing import Tracer, patched
from workloads import CURVE_TIMES, CURVES, H, PDP_GRID, PDP_STRIDE, RMSE_MAX, Cohort, \
    Inputs, Workload

PREDICT_TOL = 1e-9
MAX_SKIPPED = 8         # candidate cohorts in a row whose intercept fit may fail
BATCH = -1              # sample key of the intercept-fit batch
_DISCARDED = re.compile(r"discarded (\d+) nonpositive variance-factor draws")


class _Failed(Exception):
    """An operation failed; the rest of its fit or post-fit round depends on it."""


class Runner:
    def __init__(self, w: Workload, inputs: Inputs, workdir: Path, traced: bool):
        self.w = w
        self.inputs = inputs
        self.workdir = workdir
        self.tracer = Tracer() if traced else None
        self.traced_now = False
        # operation -> cohort slot (or BATCH) -> seconds of each success
        self.samples: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks_failed: list[str] = []
        self.intercept_failed = 0       # candidates and batch cohorts
        self.bandwidth_failed: set[int] = set()   # cohort slots whose summarize raised
        self.rounds = 0                  # fits started, traced or not
        self.post_rounds = 0             # post-fit rounds started
        self.candidates = 0              # candidate cohorts generated
        self.cohorts: list[tuple[Cohort, int]] = []   # kept cohorts and sampler seeds
        self.slot = BATCH
        self.cohort: Cohort | None = None
        self.fit_seed = 0
        self.draws = None                # of the latest fit
        self.fitted: dict[int, object] = {}   # cohort slot -> its draws
        self.sha: str | None = None      # of the run's first fit
        self.artifact_bytes: dict[int, int] = {}
        self.forests_bytes: dict[int, int] = {}
        self.calibration_discarded: list[int] = []
        self.truncation_hit: list[float] = []
        self.ite_scores: dict[int, tuple[float, float]] = {}
        self.censored_fraction: dict[int, float] = {}

    @property
    def correct(self) -> bool:
        return not self.checks_failed

    def pooled(self, name: str) -> list[float]:
        return [v for vs in self.samples[name].values() for v in vs]

    # -- bookkeeping -----------------------------------------------------

    def _span(self, name: str):
        return self.tracer.span(name) if self.traced_now else contextlib.nullcontext()

    def op(self, name: str, fn, known=()):
        """Run and time one counted operation; a failure aborts the fit or
        post-fit round. An exception of a ``known`` type is a defect the
        caller counts itself: it passes through uncounted here."""
        t0 = perf_counter()
        try:
            with self._span("op." + name):
                out = fn()
        except known:
            raise
        except Exception as exc:  # any other failure is counted and reported
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, (ValueError, RuntimeError)):
                traceback.print_exc()
            raise _Failed(name) from exc
        self.attempted += 1
        self.samples[name][self.slot].append(perf_counter() - t0)
        return out

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks_failed.append(f"{name} {detail}".strip())

    # -- the measured run ------------------------------------------------

    def run(self, seconds: float) -> None:
        """Fit every cohort in turn, each fit followed by a post-fit round on
        its draws. Between fits, and after the last until ``seconds`` have
        passed, cycle further post-fit rounds over the cohorts fitted so
        far, paced so that the rounds spread evenly over the run."""
        t_start = perf_counter()
        if self.tracer is not None:
            # the intercept-fit batch feeds per-layer metrics only
            self.traced_now = True
            with self._patch():
                for i in range(self.w.intercept_batch):
                    self._intercept(self.inputs.batch_cohort(i))
        turn = 0
        for slot in range(self.w.cohorts):
            self.fit_cohort(slot)
            slots = sorted(self.fitted)
            deadline = t_start + seconds * (slot + 1) / self.w.cohorts
            last = 0.0
            while slots and perf_counter() + last <= deadline:
                t0 = perf_counter()
                self.post_fit(slots[turn % len(slots)], checks=False)
                last = perf_counter() - t0
                turn += 1
        if not self.fitted:
            raise RuntimeError("every fit failed")
        self.post_rounds += turn
        self.ite_checks()

    def _patch(self):
        return patched(self.tracer) if self.traced_now else contextlib.nullcontext()

    def _intercept(self, cohort: Cohort) -> bool:
        """Time the response-scale intercept fit. Its known convergence
        defect, a ``NumericError``, is counted in ``intercept_failed``."""
        try:
            self.op("intercept_fit", lambda: data.fit_intercept_lognormal_aft(cohort.train),
                    known=NumericError)
        except NumericError:
            self.intercept_failed += 1
            return False
        return True

    def _keep_next_cohort(self) -> None:
        """Keep the next candidate cohort whose intercept fit converges; one
        that fails is counted and passed over. Which cohorts are kept, and so
        the failure count, depends on the seed alone."""
        for _ in range(MAX_SKIPPED):
            cohort, seed = self.inputs.fit_input(self.candidates)
            self.candidates += 1
            if self._intercept(cohort):
                self.cohorts.append((cohort, seed))
                return
        raise RuntimeError(f"{MAX_SKIPPED} cohorts in a row failed their intercept fit")

    def fit_cohort(self, slot: int) -> None:
        """Keep cohort ``slot``, fit it (with tracing on, untraced and then
        traced) and run its first post-fit round, which holds the gates."""
        self.slot = slot
        self.traced_now = False
        self._keep_next_cohort()
        self.cohort, self.fit_seed = self.cohorts[slot]
        try:
            sha = self.fit_round()
            if self.tracer is not None:
                self.traced_now = True
                traced_sha = self.fit_round()
                self.check("draws.sha256_traced_equals_untraced", traced_sha == sha,
                           f"{traced_sha} != {sha}")
        except _Failed:
            return
        self.fitted[slot] = self.draws
        self.post_fit(slot, checks=True)
        self.post_rounds += 1

    def post_fit(self, slot: int, checks: bool) -> None:
        """One post-fit round on the draws of cohort ``slot``."""
        self.slot = slot
        self.cohort = self.cohorts[slot][0]
        self.traced_now = self.tracer is not None
        try:
            with self._patch():
                self.post_fit_round(self.fitted[slot], checks)
        except _Failed:
            pass

    # -- rounds ------------------------------------------------------------

    def fit_round(self) -> str:
        """Fit the current cohort; return the SHA-256 of its draws.npz."""
        cfg = self.w.fit_config(self.fit_seed)
        if self.tracer is not None:
            self.tracer.run_id = self.rounds
        self.rounds += 1
        hook = self.tracer.hook if self.traced_now else None
        with warnings.catch_warnings(record=True) as caught, self._patch():
            warnings.simplefilter("always")
            draws = self.op("fit_traced" if self.traced_now else "fit",
                            lambda: engine.fit(self.cohort.train, cfg, trace_hook=hook))
        self.calibration_discarded.append(sum(
            int(m.group(1)) for c in caught if (m := _DISCARDED.search(str(c.message)))))
        self.truncation_hit.append(float(np.mean(np.asarray(draws.max_index) == H)))
        buf = io.BytesIO()
        draws.save(buf)
        sha = hashlib.sha256(buf.getvalue()).hexdigest()
        if self.sha is None:
            self.sha = sha
        self.draws = draws
        return sha

    def post_fit_round(self, draws, checks: bool) -> None:
        npz = self.workdir / "draws.npz"
        fjs = self.workdir / "forests.json"

        def save():
            draws.save(npz)
            draws.save_forests(fjs)
        self.op("save", save)

        def load():
            loaded = engine.PosteriorDraws.load(npz)
            loaded.load_forests(fjs)
            return loaded
        loaded = self.op("load", load)
        self.artifact_bytes[self.slot] = npz.stat().st_size + fjs.stat().st_size
        self.forests_bytes[self.slot] = fjs.stat().st_size
        summary = self.op("summarize", lambda: self.summarize(loaded))
        curves = self.op("survcurve", lambda: self.survival_curves(loaded))
        pdp = self.op("pdp", lambda: self.partial_dependence(loaded, self.cohort.train))
        pred = self.op("predict", lambda: [engine.predict_m(loaded, a, self.cohort.X_holdout)
                                           for a in (0, 1)])
        if checks:
            self.cohort_checks(draws, loaded, summary, curves, pdp, pred)

    # -- user-path steps ------------------------------------------------------

    def summarize(self, draws):
        """What ``npaft summarize`` computes at its defaults."""
        ite = hte.ite_draws(draws, "log")
        dte = hte.differential_effect(ite)
        benefit = hte.proportion_benefiting(ite, (0.0, 0.1, 0.25), 0.95)
        lo, hi = float(ite.values.min()), float(ite.values.max())
        pad = 0.05 * (hi - lo) if hi > lo else max(abs(lo), 1.0) * 0.05
        grid = np.linspace(lo - pad, hi + pad, 101)
        with self._span("hte.effect_distribution"):
            try:
                dist = hte.effect_distribution(ite, grid, None, 0.95)
            except NumericError:
                # the known defect: the default bandwidth is 0 when the effect
                # draws have no interquartile spread across patients (no tree
                # splits on the arm, or every split gives all patients the
                # same shift); count the cohort, then do what a user must,
                # pass a bandwidth (a twentieth of the grid)
                self.bandwidth_failed.add(self.slot)
                dist = hte.effect_distribution(ite, grid, (grid[-1] - grid[0]) / 20, 0.95)
        point = ite.point_estimates()
        ci_lo, ci_hi = ite.intervals(0.95)
        return ite, dte, benefit, dist, point, ci_lo, ci_hi

    def survival_curves(self, draws):
        mu = draws.transform.mu_aft
        times = np.exp(mu + np.linspace(-2.0, 2.0, CURVE_TIMES))
        out = []
        for i in range(CURVES):
            with self._span("hte.survival_curve"):
                out.append(hte.survival_curve(draws, i % 2, times, patient=i))
        return out

    def partial_dependence(self, draws, train):
        """``npaft pdp`` on the first covariate: grid at observed quantiles."""
        qs = np.linspace(0.05, 0.95, PDP_GRID)
        grid = np.unique(np.quantile(train.X[:, 0], qs))
        return hte.partial_dependence(draws, train, 0, grid, PDP_STRIDE, 0.95)

    # -- correctness gates -------------------------------------------------------

    def ite_checks(self) -> None:
        """Loose bounds on the mean ITE RMSE and 95% coverage over the run's
        cohorts. The short chains leave the odd cohort unmixed (RMSE 0.35,
        coverage 0.47 on one of forty), so one cohort alone is not gated."""
        rmse, coverage = np.mean(list(self.ite_scores.values()), axis=0)
        self.check("ite.rmse", rmse <= RMSE_MAX, f"mean {rmse:.4f} > {RMSE_MAX}")
        self.check("ite.coverage", coverage >= self.w.coverage_min,
                   f"mean {coverage:.4f} < {self.w.coverage_min}")

    def cohort_checks(self, draws, loaded, summary, curves, pdp, pred) -> None:
        ite, dte, benefit, dist, point, ci_lo, ci_hi = summary
        fit_arrays = (draws.m0, draws.m1, draws.pi, draws.tau, draws.sigma, draws.M)
        self.check("fit.finite", all(np.isfinite(a).all() for a in fit_arrays))
        self.check("load.roundtrip",
                   all(np.array_equal(getattr(draws, f), getattr(loaded, f))
                       for f in ("m0", "m1", "pi", "tau", "sigma", "M")))
        X_train = self.cohort.train.X
        for a, stored in ((0, loaded.m0), (1, loaded.m1)):
            try:
                err = float(np.max(np.abs(engine.predict_m(loaded, a, X_train) - stored)))
            except (ValueError, RuntimeError) as exc:
                err, detail = float("inf"), str(exc)
            else:
                detail = f"max abs error {err:.3e}"
            self.check(f"predict.matches_stored_m{a}", err <= PREDICT_TOL, detail)
        self.check("summarize.q_mean_identity", benefit.q_mean == benefit.p_hat_mean,
                   f"{benefit.q_mean!r} != {benefit.p_hat_mean!r}")
        self.check("summarize.d_star_identity",
                   np.array_equal(dte.d_star, np.abs(2.0 * dte.d - 1.0)))
        outputs = [ite.values, dte.d, benefit.q_draws, dist.cdf, dist.cdf_lower,
                   dist.cdf_upper, dist.density, point, ci_lo, ci_hi, pdp.mean,
                   pdp.lower, pdp.upper, *pred]
        for c in curves:
            outputs += [c.mean, c.lower, c.upper]
        self.check("outputs.finite", all(np.isfinite(a).all() for a in outputs))

        theta = self.cohort.theta_true
        rmse = float(np.sqrt(np.mean((point - theta) ** 2)))
        coverage = float(np.mean((ci_lo <= theta) & (theta <= ci_hi)))
        self.ite_scores[self.slot] = (rmse, coverage)
        self.censored_fraction[self.slot] = float(np.mean(self.cohort.train.delta == 0))
