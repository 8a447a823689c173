import dataclasses
import functools
import math
import multiprocessing
import re
import warnings

import numpy as np
import pytest

from npaft import ConfigError, DataError, EncodedDataset, bench, engine
from npaft.bench import MetricRow, ResidualFamily, SimScenario
from npaft.engine import FitConfig
from npaft.forest import ForestPrior
from npaft.mixture import CdpHyper
from test_engine import needs_pool


class TestRunReplication:
    def test_fit_config_carried_over_whole(self, monkeypatch):
        seen = []
        real_fit = bench.fit

        def recording_fit(data, cfg):
            seen.append(cfg)
            return real_fit(data, cfg)

        monkeypatch.setattr(bench, "fit", recording_fit)
        scenario = SimScenario(kind="aft-linear-null", n=40,
                               family=ResidualFamily("normal"),
                               coefs=(6.5, 0.25, 0.3, -0.2))
        fit_config = FitConfig(seed=1, iterations=30, burn_in=20,
                               prior=ForestPrior(n_trees=5), hyper=CdpHyper(H=10),
                               keep_forests=True, max_split_points=7)
        bench.run_replication(scenario, fit_config, np.random.SeedSequence(3))
        (cfg,) = seen
        assert cfg.max_split_points == 7
        assert cfg.keep_forests is False
        # only the seed and keep_forests differ from the caller's config
        assert dataclasses.replace(cfg, seed=1, keep_forests=True) == fit_config


class TestResidualFamilies:
    # Monte Carlo where the fourth moment is finite: the sample mean within
    # five standard errors of 0, the sample variance within five of the target
    @pytest.mark.parametrize("family", [
        ResidualFamily("normal", variance=2.5),
        ResidualFamily("gumbel", variance=2.5),
        ResidualFamily("std-gamma", variance=2.5),
        ResidualFamily("t-mixture", variance=2.5, t_df=9.0, t_tail_weight=0.1),
    ], ids=lambda f: f.tag)
    def test_mean_zero_and_target_variance_by_monte_carlo(self, family):
        w = bench.gen_residuals(family, 1_000_000, np.random.default_rng(11))
        v = w.var()
        m4 = np.mean((w - w.mean()) ** 4)
        assert abs(w.mean()) < 5 * math.sqrt(v / w.size)
        assert abs(v - family.variance) < 5 * math.sqrt((m4 - v * v) / w.size)

    @pytest.mark.parametrize("t_df", [3.0, 4.0])
    def test_heavy_tailed_t_mixture_by_closed_form(self, t_df):
        # no finite fourth moment, so read the law off the draws: replay the
        # generator's component labels and t variates, recover the scale and
        # the three locations, and take the mixture's moments in closed form
        family = ResidualFamily("t-mixture", variance=2.5, t_df=t_df, t_tail_weight=0.2)
        n = 1000
        w = bench.gen_residuals(family, n, np.random.default_rng(11))
        replay = np.random.default_rng(11)
        comp = replay.choice(3, size=n, p=[0.2, 0.6, 0.2])
        t = replay.standard_t(t_df, n)
        s = np.median(w[comp == 1] / t[comp == 1])
        locs = [np.median((w - s * t)[comp == c]) for c in range(3)]
        assert all(np.allclose(w[comp == c], locs[c] + s * t[comp == c], rtol=0, atol=1e-12)
                   for c in range(3))
        mean = 0.2 * locs[0] + 0.6 * locs[1] + 0.2 * locs[2]   # E t = 0
        var = 0.2 * locs[0] ** 2 + 0.6 * locs[1] ** 2 + 0.2 * locs[2] ** 2 - mean ** 2 \
            + s ** 2 * t_df / (t_df - 2)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(2.5, rel=1e-12)


class TestGenerators:
    @pytest.mark.parametrize("interaction_coefs", [None, (0.4, -0.3)])
    def test_null_aft_least_squares_recovers_the_coefficients(self, interaction_coefs):
        coefs = np.array([1.5, 0.5, 0.8, -0.6])
        n = 20_000
        sim = bench.gen_null_aft(coefs, ResidualFamily("gumbel", variance=0.7), n,
                                 np.random.default_rng(21), interaction_coefs)
        design = np.column_stack([np.ones(n), sim.a, sim.X])
        truth = coefs
        if interaction_coefs is not None:
            design = np.column_stack([design, sim.a[:, None] * sim.X])
            truth = np.concatenate([coefs, interaction_coefs])
            assert np.allclose(sim.theta_true, 0.5 + sim.X @ interaction_coefs,
                               rtol=0, atol=1e-15)
        else:
            assert np.all(sim.theta_true == 0.5)
        beta, rss, *_ = np.linalg.lstsq(design, np.log(sim.T), rcond=None)
        sigma_sq = rss[0] / (n - design.shape[1])
        se = np.sqrt(sigma_sq * np.diag(np.linalg.inv(design.T @ design)))
        assert np.all(np.abs(beta - truth) <= 4.0 * se), (beta, truth, se)
        assert sigma_sq == pytest.approx(0.7, rel=0.05)

    @pytest.mark.parametrize("shape", [0.7, 2.5])
    def test_null_cox_log_time_moments(self, shape):
        # log T = log scale - (eta + G)/shape with G = -log(-log U) standard
        # Gumbel: mean log scale - (gamma + eta)/shape, variance pi^2/(6 shape^2)
        coefs = np.array([0.3, -0.8, 0.5])
        n, scale = 200_000, 4.0
        sim = bench.gen_null_cox(coefs, shape, scale, n, np.random.default_rng(22))
        eta = coefs[0] + coefs[1] * sim.a + sim.X @ coefs[2:]
        r = np.log(sim.T) - (math.log(scale) - (bench.EULER_GAMMA + eta) / shape)
        var = math.pi ** 2 / (6.0 * shape ** 2)
        # the Gumbel law's excess kurtosis is 12/5
        assert abs(r.mean()) <= 4.0 * math.sqrt(var / n)
        assert abs(r.var() - var) <= 4.0 * var * math.sqrt(4.4 / n)
        assert np.all(sim.theta_true == 0.8 / shape)

    def test_friedman_effects_are_the_surface_effect(self):
        surface, sim = bench.gen_friedman_scenario(500, np.random.default_rng(23), p=6)
        assert np.array_equal(sim.theta_true, surface.effect(sim.X))
        assert np.ptp(sim.theta_true) > 0
        residual = np.log(sim.T) - surface.regression(sim.a, sim.X)
        assert abs(residual.mean()) <= 4.0 / math.sqrt(500)
        again, sim2 = bench.gen_friedman_scenario(500, np.random.default_rng(24),
                                                  p=6, surface=surface)
        assert again is surface
        assert np.array_equal(sim2.theta_true, surface.effect(sim2.X))


class TestKaplanMeier:
    def test_hand_computed_table_with_ties(self):
        # one event and one censoring tied at t = 2, two events tied at t = 3;
        # rows censored at an event time are still at risk at that time
        times = np.array([3.0, 2.0, 4.0, 1.0, 3.0, 2.0])
        events = np.array([1, 0, 0, 1, 1, 1])
        km = bench.KaplanMeier(times, events)
        assert np.array_equal(km.times, [1.0, 2.0, 3.0, 4.0])
        expected = [5 / 6, 5 / 6 * 4 / 5, 5 / 6 * 4 / 5 * 1 / 3, 5 / 6 * 4 / 5 * 1 / 3]
        assert np.allclose(km.survival, expected, rtol=1e-15)
        # right-continuous: the step lands at each event time
        got = km([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 9.0])
        assert np.allclose(got, [1.0, 5 / 6, 5 / 6, 2 / 3, 2 / 3, 2 / 9, 2 / 9, 2 / 9],
                           rtol=1e-15)


class RecordingRng:
    """A generator that records the scale of every exponential draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.scales = []

    def exponential(self, scale, size):
        self.scales.append(scale)
        return self.rng.exponential(scale, size)


class TestApplyCensoring:
    @pytest.mark.parametrize("level", ["light", "heavy"])
    def test_rate_reaches_the_target_expected_fraction(self, level):
        T = np.exp(np.random.default_rng(4).normal(1.0, 0.8, 200_000))
        rng = RecordingRng(5)
        sim = bench.apply_censoring(bench.SimData(T, None, None, None), level, rng)
        (scale,) = rng.scales
        target = bench.CENSOR_TARGETS[level]
        assert abs(np.mean(-np.expm1(-T / scale)) - target) < 1e-9
        # the realised fraction is a binomial average with sd below 0.0012
        assert abs(np.mean(sim.delta == 0) - target) < 0.006
        assert np.array_equal(sim.y, np.minimum(T, sim.y))
        assert np.all(sim.y[sim.delta == 1] == T[sim.delta == 1])

    def test_equal_times_give_the_closed_form_rate(self):
        rng = RecordingRng(6)
        bench.apply_censoring(bench.SimData(np.full(50, 2.0), None, None, None), "heavy", rng)
        # 1 - exp(-2 lam) = 0.45
        assert np.isclose(1.0 / rng.scales[0], -np.log(0.55) / 2.0, rtol=1e-8)

    def test_none_and_unknown_levels(self):
        T = np.array([1.0, 2.0, 3.0])
        sim = bench.apply_censoring(bench.SimData(T, None, None, None), "none", None)
        assert np.array_equal(sim.y, T) and np.all(sim.delta == 1)
        with pytest.raises(ConfigError, match="unknown censoring level 'medium'"):
            bench.apply_censoring(bench.SimData(T, None, None, None), "medium", None)


class TestScoreReplication:
    def test_tiny_arrays(self):
        row = bench.score_replication(
            true_theta=[-1.0, 0.5, 2.0], theta_hat=[-0.5, 0.5, 1.0],
            lower=[-2.0, 0.6, 0.0], upper=[0.0, 1.0, 3.0], allocation=[0, 1, 0],
            pct_strong=40.0, pct_mild=60.0)
        assert row.rmse == pytest.approx(np.sqrt(1.25 / 3), rel=1e-15)
        # only row 2 is misallocated: it benefits (theta > 0) but gets control
        assert row.mcprop == pytest.approx(1 / 3, rel=1e-15)
        # row 1's interval [0.6, 1] misses 0.5
        assert row.coverage == pytest.approx(2 / 3, rel=1e-15)
        assert (row.pct_strong, row.pct_mild) == (40.0, 60.0)
        assert np.isnan(row.censored_fraction)

    def test_mismatched_lengths(self):
        with pytest.raises(DataError, match="mismatched lengths"):
            bench.score_replication([0.0, 1.0], [0.0], [0.0, 0.0], [1.0, 1.0], [0, 1])


class FixedPermutation:
    def __init__(self, perm):
        self.perm = np.asarray(perm)

    def permutation(self, n):
        assert n == self.perm.size
        return self.perm


class TestCrossValidationScore:
    # rows 0-2 form fold 1 and rows 3-5 fold 2; the stubbed posterior mean of
    # m is arm + 1 for every row
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    a = np.array([0, 1, 0, 1, 0, 1])
    X = np.arange(6.0)[:, None]

    def score(self, monkeypatch, delta):
        data = EncodedDataset.from_arrays(self.y, np.asarray(delta), self.a, self.X)
        fitted = []

        def stub_fit(train, config):
            fitted.append((train.y.tolist(), config.keep_forests))
            return len(fitted)

        def stub_predict_m(draws, arm, X):
            assert draws == len(fitted)
            assert X.shape[1] == 1
            return np.vstack([np.full(len(X), arm + 0.0), np.full(len(X), arm + 2.0)])

        monkeypatch.setattr(bench, "fit", stub_fit)
        monkeypatch.setattr(bench, "predict_m", stub_predict_m)
        config = FitConfig(seed=1, keep_forests=False)
        scores, mean = bench.cross_validation_score(data, 2, config,
                                                    FixedPermutation(range(6)))
        assert fitted == [([4.0, 5.0, 6.0], True), ([1.0, 2.0, 3.0], True)]
        assert mean == pytest.approx(np.mean(scores), rel=1e-15)
        return scores

    def test_hand_computed_weighted_score(self, monkeypatch):
        scores = self.score(monkeypatch, [1, 0, 1, 1, 0, 1])
        # fold 1: the censoring KM of training rows 3-5 is 1 before t = 5, so
        # the events at t = 1 and 3 (m = 1) weigh 1
        fold1 = (abs(np.log(1.0) - 1.0) + abs(np.log(3.0) - 1.0)) / 3
        # fold 2: the censoring KM of training rows 0-2 is 1/2 from t = 2 on,
        # so the events at t = 4 and 6 (m = 2) weigh 2
        fold2 = (2 * abs(np.log(4.0) - 2.0) + 2 * abs(np.log(6.0) - 2.0)) / 3
        assert scores == pytest.approx([fold1, fold2], rel=1e-14)

    def test_weights_are_floored(self, monkeypatch):
        # censoring the last training time of fold 2 drops its KM to 0
        with pytest.warns(RuntimeWarning, match="weight floor"):
            scores = self.score(monkeypatch, [1, 0, 0, 1, 0, 1])
        floor = bench.CV_WEIGHT_FLOOR
        fold2 = (abs(np.log(4.0) - 2.0) + abs(np.log(6.0) - 2.0)) / floor / 3
        assert scores[1] == pytest.approx(fold2, rel=1e-14)

    def test_too_few_folds(self):
        data = EncodedDataset.from_arrays(self.y, np.ones(6), self.a, self.X)
        with pytest.raises(ConfigError, match="at least 2 folds"):
            bench.cross_validation_score(data, 1, FitConfig(seed=1), FixedPermutation([]))

    def test_more_folds_than_half_the_rows(self):
        data = EncodedDataset.from_arrays(self.y, np.ones(6), self.a, self.X)
        with pytest.raises(ConfigError, match="4 folds is more than 6 rows allow: at most 3"):
            bench.cross_validation_score(data, 4, FitConfig(seed=1), FixedPermutation([]))


def tiny_fit_config():
    return FitConfig(seed=1, iterations=30, burn_in=20, prior=ForestPrior(n_trees=5),
                     hyper=CdpHyper(H=10))


SCENARIOS = [SimScenario(kind="aft-linear-null", n=30, family=ResidualFamily("gumbel"),
                         censoring="light", coefs=(1.0, 0.3, 0.5)),
             SimScenario(kind="friedman-hte", n=30, family=ResidualFamily("normal"), p=3)]


@needs_pool
def test_run_benchmark_rows_match_in_process(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pooled = bench.run_benchmark(SCENARIOS, 2, tiny_fit_config(), seed=9)
        monkeypatch.setattr(bench, "map_tasks",
                            functools.partial(engine.map_tasks, in_process=True))
        in_process = bench.run_benchmark(SCENARIOS, 2, tiny_fit_config(), seed=9)
    assert pooled == in_process
    assert [(r["scenario"], r["rep"]) for r in pooled] == [
        (s.name, rep) for s in SCENARIOS for rep in range(2)]
    assert multiprocessing.active_children() == []


def task_of(seq: np.random.SeedSequence) -> int:
    """A replication's place in the task list: its seed is the root's child."""
    return seq.spawn_key[0]


@needs_pool
def test_replication_warnings_reach_caller_in_task_order(monkeypatch):
    def warning_replication(scenario, fit_config, seq):
        warnings.warn(f"task {task_of(seq)}", UserWarning)
        in_worker = multiprocessing.current_process().daemon
        return MetricRow(task_of(seq), float(in_worker), 1.0, 0.0, 0.0)

    monkeypatch.setattr(bench, "run_replication", warning_replication)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = bench.run_benchmark(SCENARIOS, 3, tiny_fit_config(), seed=2)
    assert [str(w.message) for w in caught] == [f"task {i}" for i in range(6)]
    assert [r["rmse"] for r in rows] == list(range(6))
    assert all(r["mcprop"] == 1.0 for r in rows)  # each ran in a forked worker


@needs_pool
def test_replication_exception_reaches_caller(monkeypatch):
    def failing_replication(scenario, fit_config, seq):
        if task_of(seq) == 2:
            raise DataError("replication 2 failed")
        return MetricRow(0.0, 0.0, 1.0, 0.0, 0.0)

    monkeypatch.setattr(bench, "run_replication", failing_replication)
    with pytest.raises(DataError, match="replication 2 failed"):
        bench.run_benchmark(SCENARIOS, 2, tiny_fit_config(), seed=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("kind, extra, message", [
    ("aft-linear-null", {}, "at least one covariate coefficient"),
    ("cox-null", {"coefs": (0.0, 0.5)}, "at least one covariate coefficient"),
    ("fixed-regression", {"coefs": (1.0, 0.3, 0.5)}, "one coefficient per covariate (1)"),
    ("fixed-regression", {"coefs": (1.0, 0.3, 0.5), "interaction_coefs": (0.1, 0.2)},
     "one coefficient per covariate (1)"),
])
def test_scenarios_that_cannot_be_fitted_are_config_errors(kind, extra, message):
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        SimScenario(kind=kind, n=20, family=ResidualFamily("normal"), **extra)
    assert f"scenario '{kind}/n20/none/normal'" in str(info.value)


def test_unknown_censoring_level_is_a_config_error():
    with pytest.raises(ConfigError, match=re.escape(
            "scenario 'aft-linear-null/n20/hevy/normal': unknown censoring level 'hevy'")):
        SimScenario(kind="aft-linear-null", n=20, family=ResidualFamily("normal"),
                    censoring="hevy", coefs=(1.0, 0.3, 0.5))
