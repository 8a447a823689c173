import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from npaft import (CdpHyper, ColumnSpec, CovariateSchema, DataError, EncodedDataset,
                   FitConfig, ForestPrior, NumericError, ResponseTransform, bench,
                   engine, fit, fit_intercept_lognormal_aft, load_dataset,
                   split_point_grid, transform_responses)
from npaft.data import _censored_lognormal_loglik, _score_and_hessian


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_encoded_width(self, simple_schema):
        assert simple_schema.encoded_width == 1 + 1 + 3
        assert simple_schema.encoded_names == ["age", "sex", "stage=I", "stage=II", "stage=III"]

    def test_duplicate_levels_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            ColumnSpec("x", "categorical", ("a", "a"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="kind"):
            ColumnSpec("x", "ordinal")

    def test_from_mapping(self):
        schema = CovariateSchema.from_mapping(
            {"a": "continuous", "b": {"categorical": ["u", "v"]}})
        assert schema.encoded_width == 3


class TestLoad:
    def test_identity_encoding(self, tmp_path):
        schema = CovariateSchema([ColumnSpec("x", "continuous")])
        f = write_csv(tmp_path / "d.csv",
                      "time,status,trt,x\n1.0,1,0,0.5\n2.0,0,1,-1.0\n3.0,1,1,2.5\n")
        data = load_dataset(f, schema)
        assert data.n == 3 and data.p_enc == 1
        assert np.allclose(data.X[:, 0], [0.5, -1.0, 2.5])

    def test_one_of_k_row(self, tmp_path):
        schema = CovariateSchema([ColumnSpec("g", "categorical", ("a", "b", "c"))])
        f = write_csv(tmp_path / "d.csv",
                      "time,status,trt,g\n1.0,1,0,b\n2.0,1,1,a\n")
        data = load_dataset(f, schema)
        assert np.array_equal(data.X[0], [0.0, 1.0, 0.0])
        assert np.array_equal(data.X[1], [1.0, 0.0, 0.0])
        assert np.all(data.X.sum(axis=1) == 1.0)

    def test_nonpositive_time(self, tmp_path):
        schema = CovariateSchema([ColumnSpec("x", "continuous")])
        f = write_csv(tmp_path / "d.csv", "time,status,trt,x\n1,1,0,1\n0,1,0,1\n")
        with pytest.raises(DataError, match="nonpositive time at row 2"):
            load_dataset(f, schema)

    @pytest.mark.parametrize("token", ["inf", "-inf", "1e999"])
    def test_non_finite_time(self, tmp_path, token):
        schema = CovariateSchema([ColumnSpec("x", "continuous")])
        f = write_csv(tmp_path / "d.csv", f"time,status,trt,x\n1,1,0,1\n2,1,0,1\n{token},1,0,1\n")
        with pytest.raises(DataError, match="non-finite time at row 3"):
            load_dataset(f, schema)

    @pytest.mark.parametrize("token", ["inf", "-inf", "1e999"])
    def test_non_finite_covariate_names_row_and_column(self, tmp_path, token):
        schema = CovariateSchema([ColumnSpec("w", "continuous"), ColumnSpec("x", "continuous")])
        f = write_csv(tmp_path / "d.csv",
                      f"time,status,trt,w,x\n1,1,0,1,1\n2,1,0,1, {token}\n3,1,0,1,1\n")
        with pytest.raises(DataError, match=f"non-finite value '{token}' at row 2, column 'x'"):
            load_dataset(f, schema)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_from_arrays(self, bad):
        y = np.array([1.0, 0.0, bad, 2.0])
        with pytest.raises(DataError, match="non-finite time at row 3"):
            EncodedDataset.from_arrays(y, np.ones(4), np.zeros(4), np.zeros((4, 1)))
        y[2] = 3.0
        with pytest.raises(DataError, match="nonpositive time at row 2"):
            EncodedDataset.from_arrays(y, np.ones(4), np.zeros(4), np.zeros((4, 1)))

    @pytest.mark.parametrize("row, col, bad, where", [
        (1, 0, math.nan, "nan at row 2, column 'x1'"),
        (2, 1, -math.inf, "-inf at row 3, column 'x2'")])
    def test_non_finite_covariate_from_arrays_names_row_and_column(self, row, col, bad, where):
        X = np.ones((3, 2))
        X[row, col] = bad
        with pytest.raises(DataError, match=f"non-finite covariate {where}"):
            EncodedDataset.from_arrays(np.ones(3), np.ones(3), np.array([0, 1, 0]), X)

    def test_missing_value_names_row_and_column(self, tmp_path):
        schema = CovariateSchema([ColumnSpec("x", "continuous")])
        f = write_csv(tmp_path / "d.csv", "time,status,trt,x\n1,1,0,1\n2,1,0,\n")
        with pytest.raises(DataError, match=r"row 2, column 'x'"):
            load_dataset(f, schema)

    def test_unknown_level(self, tmp_path):
        schema = CovariateSchema([ColumnSpec("g", "categorical", ("a", "b"))])
        f = write_csv(tmp_path / "d.csv", "time,status,trt,g\n1,1,0,a\n2,1,0,z\n")
        with pytest.raises(DataError, match="unknown categorical level 'z'"):
            load_dataset(f, schema)

    def test_header_mismatch(self, tmp_path):
        schema = CovariateSchema([ColumnSpec("x", "continuous")])
        f = write_csv(tmp_path / "d.csv", "time,event,trt,x\n1,1,0,1\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(f, schema)

    def test_missing_file(self, tmp_path):
        schema = CovariateSchema([ColumnSpec("x", "continuous")])
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "absent.csv", schema)

    def test_min_rows(self, tmp_path):
        schema = CovariateSchema([ColumnSpec("x", "continuous")])
        f = write_csv(tmp_path / "d.csv", "time,status,trt,x\n1,1,0,1\n")
        with pytest.raises(DataError, match="at least 2"):
            load_dataset(f, schema)


def _censored_loglik(mu, sigma, ly, delta):
    s = (ly - mu) / sigma
    unc = delta == 1
    return (np.sum(norm.logpdf(s[unc]) - math.log(sigma))
            + np.sum(norm.logsf(s[~unc])))


class TestInterceptFit:
    def test_no_censoring_closed_form(self):
        data = EncodedDataset.from_arrays(
            np.exp([0.0, 2.0]), [1, 1], [0, 1], np.zeros((2, 1)))
        t = fit_intercept_lognormal_aft(data)
        assert t.mu_aft == pytest.approx(1.0, abs=1e-8)
        assert t.sigma_aft == pytest.approx(1.0, abs=1e-8)

    @given(st.lists(st.floats(-3, 3), min_size=3, max_size=40),
           st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_no_censoring_matches_mean_and_population_sd(self, logy, spread):
        logy = np.asarray(logy) * spread
        if np.std(logy) < 1e-4:
            return
        data = EncodedDataset.from_arrays(
            np.exp(logy), np.ones(len(logy), int),
            np.zeros(len(logy), int), np.zeros((len(logy), 1)))
        t = fit_intercept_lognormal_aft(data)
        assert t.mu_aft == pytest.approx(float(np.mean(logy)), abs=1e-8)
        assert t.sigma_aft == pytest.approx(float(np.std(logy)), abs=1e-8)

    def test_degenerate_zero_variance_clamps(self):
        data = EncodedDataset.from_arrays(
            [1.0, 1.0, 1.0], [1, 1, 1], [0, 0, 1], np.zeros((3, 1)))
        with pytest.warns(RuntimeWarning, match="floor"):
            t = fit_intercept_lognormal_aft(data)
        assert t.mu_aft == pytest.approx(0.0, abs=1e-6)
        assert t.sigma_aft == pytest.approx(1e-6)

    def test_all_censored_unbounded(self):
        data = EncodedDataset.from_arrays(
            [1.0, 2.0], [0, 0], [0, 1], np.zeros((2, 1)))
        with pytest.raises(NumericError, match="unbounded"):
            fit_intercept_lognormal_aft(data)

    def test_mixed_censoring_matches_grid_oracle(self, rng):
        n = 20
        ly = rng.normal(0.7, 1.1, n)
        delta = (rng.random(n) < 0.7).astype(int)
        ly[delta == 0] -= 0.5
        data = EncodedDataset.from_arrays(np.exp(ly), delta,
                                          np.zeros(n, int), np.zeros((n, 1)))
        t = fit_intercept_lognormal_aft(data)

        # two-stage dense grid maximization of the censored likelihood
        def grid_argmax(mu_lo, mu_hi, s_lo, s_hi, points):
            mus = np.linspace(mu_lo, mu_hi, points)
            sigmas = np.linspace(s_lo, s_hi, points)
            ll = np.array([[_censored_loglik(m, s, ly, delta) for s in sigmas]
                           for m in mus])
            i, j = np.unravel_index(np.argmax(ll), ll.shape)
            return mus[i], sigmas[j], ll[i, j]

        mu1, s1, _ = grid_argmax(ly.min() - 1, ly.max() + 1, 0.2, 3.0, 180)
        mu2, s2, best = grid_argmax(mu1 - 0.1, mu1 + 0.1, s1 - 0.1, s1 + 0.1, 201)
        assert t.mu_aft == pytest.approx(mu2, abs=1e-3)
        assert t.sigma_aft == pytest.approx(s2, abs=1e-3)
        # the Newton optimum must dominate the refined grid
        assert _censored_loglik(t.mu_aft, t.sigma_aft, ly, delta) >= best - 1e-9


    def test_large_heavily_censored_cohort_converges(self):
        # 20,000 rows, 54% censored: perfbench's sweep-n20k batch cohort
        # 1 of seed 5. Its log-likelihood is of size 1e4, so near the
        # optimum rounding moves it by more than 1e-12 between Newton
        # iterates: a fixed acceptance slack of 1e-12 rejects the full step
        # there and the fit runs out of iterations.
        rng = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0, 1)))
        _, sim = bench.gen_friedman_scenario(24_000, rng)
        bench.apply_censoring(sim, "heavy", rng)
        n = 20_000
        data = EncodedDataset.from_arrays(sim.y[:n], sim.delta[:n], sim.a[:n], sim.X[:n])
        t = fit_intercept_lognormal_aft(data)
        ly, unc = np.log(data.y), data.delta == 1
        g, _ = _score_and_hessian(t.mu_aft, math.log(t.sigma_aft), ly[unc], ly[~unc])
        assert np.linalg.norm(g) < 1e-14 * n


class TestScoreAndHessian:
    @pytest.fixture
    def problem(self, rng):
        n = 30
        ly = rng.normal(0.5, 0.8, n)
        unc = rng.random(n) < 0.6
        return ly[unc], ly[~unc]

    def test_derivatives_match_finite_differences(self, problem):
        lu, lc = problem
        theta = np.array([0.4, math.log(0.9)])
        g, H = _score_and_hessian(*theta, lu, lc)

        def loglik(t):
            return _censored_lognormal_loglik(*t, lu, lc)

        def grad(t):
            return _score_and_hessian(*t, lu, lc)[0]

        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            assert g[j] == pytest.approx((loglik(theta + e) - loglik(theta - e)) / (2 * h),
                                         rel=1e-6, abs=1e-6)
            assert np.allclose(H[:, j], (grad(theta + e) - grad(theta - e)) / (2 * h),
                               rtol=1e-6, atol=1e-6)
        assert np.allclose(H, H.T, rtol=1e-12, atol=0)

    def test_fit_stops_at_a_stationary_maximum(self, problem):
        lu, lc = problem
        data = EncodedDataset.from_arrays(
            np.exp(np.concatenate([lu, lc])), np.repeat([1, 0], [lu.size, lc.size]),
            np.zeros(lu.size + lc.size, int), np.zeros((lu.size + lc.size, 1)))
        t = fit_intercept_lognormal_aft(data)
        g, H = _score_and_hessian(t.mu_aft, math.log(t.sigma_aft), lu, lc)
        assert np.linalg.norm(g) < 1e-10
        assert np.all(np.linalg.eigvalsh(H) < 0)


class TestTransform:
    def test_exact_cancellation(self):
        data = EncodedDataset.from_arrays(
            [math.e ** 2, math.e ** 2], [1, 1], [0, 1], np.zeros((2, 1)))
        out = transform_responses(data, ResponseTransform(2.0, 1.0))
        assert np.allclose(out.y, 1.0, rtol=1e-14)

    def test_identity(self, small_data):
        out = transform_responses(small_data, ResponseTransform(0.0, 1.0))
        assert np.array_equal(out.y, small_data.y)

    def test_direct_evaluation(self):
        data = EncodedDataset.from_arrays([2.0, 4.0], [1, 1], [0, 1], np.zeros((2, 1)))
        out = transform_responses(data, ResponseTransform(math.log(2.0), 1.0))
        assert np.allclose(out.y, [1.0, 2.0], rtol=1e-14)

    def test_roundtrip_recovers_responses(self, small_data):
        t = fit_intercept_lognormal_aft(small_data)
        out = transform_responses(small_data, t)
        back = out.y * math.exp(t.mu_aft)
        assert np.all(np.abs(back - small_data.y) / small_data.y < 1e-12)

    def test_delta_unchanged(self, small_data):
        out = transform_responses(small_data, ResponseTransform(0.3, 1.0))
        assert np.array_equal(out.delta, small_data.delta)


class TestSplitPointGrid:
    def test_binary_convention(self):
        assert np.array_equal(split_point_grid(np.array([0, 0, 1, 1])), [0.5])

    def test_constant_column_empty(self):
        assert split_point_grid(np.full(10, 3.3)).size == 0

    def test_thousand_values_hundred_percentile_cuts(self):
        col = np.arange(1, 1001, dtype=float)
        cuts = split_point_grid(col, 100)
        assert cuts.shape[0] == 100
        # each adjacent pair of cuts should bracket about 1% of the mass
        fractions = np.searchsorted(np.sort(col), cuts, side="right") / 1000.0
        inc = np.diff(np.concatenate(([0.0], fractions, [1.0])))
        assert np.all(inc > 0.004) and np.all(inc < 0.02)
        expected = np.quantile(col, np.arange(1, 101) / 101.0)
        assert np.allclose(cuts, expected)

    def test_few_uniques_midpoints(self):
        cuts = split_point_grid(np.array([1.0, 2.0, 2.0, 5.0]), 100)
        assert np.allclose(cuts, [1.5, 3.5])

    @given(st.lists(st.integers(-50, 50), min_size=2, max_size=200),
           st.integers(1, 60))
    @settings(max_examples=80, deadline=None)
    def test_every_cut_strictly_separates(self, values, max_points):
        col = np.asarray(values, dtype=float)
        cuts = split_point_grid(col, max_points)
        assert cuts.shape[0] <= max_points
        assert np.unique(cuts).shape[0] == cuts.shape[0]
        for c in cuts:
            assert np.any(col <= c) and np.any(col > c)


TINY_FIT = FitConfig(seed=1, iterations=12, burn_in=6, prior=ForestPrior(n_trees=3),
                     hyper=CdpHyper(H=5))


def cohort(y, delta, X=None):
    """A cohort with alternating arms and, by default, two random covariates."""
    n = len(y)
    if X is None:
        X = np.random.default_rng(n).standard_normal((n, 2))
    return EncodedDataset.from_arrays(np.asarray(y, float), np.asarray(delta, int),
                                      np.arange(n) % 2, X)


def fit_before_intercept(data):
    """``fit`` with the intercept fit made to fail, so an error raised before
    it surfaces as itself."""
    with mock.patch.object(engine, "fit_intercept_lognormal_aft",
                           side_effect=AssertionError("reached the intercept fit")):
        return fit(data, TINY_FIT)


class TestDegenerateResponses:
    @given(st.lists(st.floats(1e-300, 1e300), min_size=2, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_every_row_censored_is_a_data_error(self, y):
        with pytest.raises(DataError, match="every row is censored"):
            fit_before_intercept(cohort(y, np.zeros(len(y))))

    @given(st.integers(2, 30), st.floats(1e-300, 1e300))
    @settings(max_examples=30, deadline=None)
    def test_every_row_an_event_at_one_time_is_a_data_error(self, n, time):
        with pytest.raises(DataError, match="every row is an event at the same time"):
            fit_before_intercept(cohort(np.full(n, time), np.ones(n)))

    @pytest.mark.parametrize("case", ["one event", "tied events, some censored",
                                      "constant covariates", "times near 1e300",
                                      "times near 1e-300"])
    def test_near_degenerate_responses_still_fit(self, case):
        g = np.random.default_rng(5)
        n = 24
        y, delta, X = np.exp(g.normal(1.0, 0.5, n)), np.ones(n), None
        if case == "one event":
            delta = np.zeros(n)
            delta[3] = 1
        elif case == "tied events, some censored":
            y, delta = np.full(n, 2.0), np.arange(n) % 3 > 0
        elif case == "constant covariates":
            X = np.ones((n, 2))
        else:
            y = y * float(case.split()[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            draws = fit(cohort(y, delta, X), TINY_FIT)
        assert np.all(np.isfinite(draws.m0)) and np.all(np.isfinite(draws.m1))
        assert np.all(np.isfinite(draws.sigma)) and draws.sigma_tau_sq > 0
