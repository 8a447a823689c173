import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from npaft import EncodedDataset, PosteriorDraws, ResponseTransform, engine, fit, hte
from npaft.errors import ConfigError, DataError
from npaft.forest import PackedForest
from npaft.hte import (IteDraws, allocate, default_bandwidth, effect_distribution,
                       partial_dependence, proportion_benefiting, survival_curve)
from conftest import make_dataset
from test_engine import small_config
from test_forest import COVARIATE_TREE, NAN, packed


def bandwidth(values):
    return default_bandwidth(IteDraws(np.asarray(values, dtype=float), "log"))


class TestDefaultBandwidth:
    def test_ordinary_case_uses_interquartile_range(self):
        # per-draw sd 1.58 and 3.16, IQR 2 and 4: min(mean sd, mean IQR / 1.34)
        got = bandwidth([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]])
        assert got == pytest.approx(0.9 * (3.0 / 1.34) * 5 ** -0.2, rel=1e-14)

    def test_ordinary_case_uses_sd_when_smaller(self):
        # sd sqrt(0.2) = 0.447 < IQR / 1.34 = 0.75 / 1.34 = 0.560
        got = bandwidth([[0, 0, 1, 1, 0.5, 0.5]])
        assert got == pytest.approx(0.9 * math.sqrt(0.2) * 6 ** -0.2, rel=1e-14)

    def test_zero_iqr_falls_back_to_sd(self):
        # IQR 0, sd sqrt(0.2)
        got = bandwidth([[0, 0, 0, 0, 1]])
        assert got == pytest.approx(0.9 * math.sqrt(0.2) * 5 ** -0.2, rel=1e-14)

    def test_zero_spread_falls_back_to_first_effect(self):
        # every patient shares the effect within a draw
        got = bandwidth([[-0.5] * 4, [0.25] * 4])
        assert got == pytest.approx(0.9 * 0.5 * 4 ** -0.2, rel=1e-14)

    def test_all_zero_effects_fall_back_to_one(self):
        got = bandwidth(np.zeros((3, 4)))
        assert got == pytest.approx(0.9 * 4 ** -0.2, rel=1e-14)

    def test_effect_distribution_runs_at_default_bandwidth_without_spread(self):
        ite = IteDraws(np.zeros((3, 4)), "log")
        dist = effect_distribution(ite, np.linspace(-1.0, 1.0, 5))
        assert dist.bandwidth == pytest.approx(0.9 * 4 ** -0.2, rel=1e-14)
        assert np.array_equal(dist.cdf, [0.0, 0.0, 1.0, 1.0, 1.0])
        assert np.all(np.isfinite(dist.density)) and dist.density[2] > 0

    def test_rounding_noise_iqr_falls_back_to_sd(self):
        # Most draws give every patient the same effect up to one ulp, so
        # their IQR is rounding noise; two draws spread three patients
        # across -0.012..0.026, which leaves their IQR 0 but their sd real.
        theta = np.full((20, 40), 0.01)
        theta[:18, 20:] = np.nextafter(0.01, 1.0)
        theta[18:, :3] = [-0.012, 0.026, 0.02]
        iqr = np.subtract(*np.percentile(theta, [75, 25], axis=1)).mean()
        assert 0 < iqr < 1e-17
        sd = theta.std(axis=1, ddof=1).mean()
        assert bandwidth(theta) == pytest.approx(0.9 * sd * 40 ** -0.2, rel=1e-14)

    def test_rounding_noise_sd_falls_back_to_first_effect(self):
        theta = np.full((4, 10), -0.3)
        theta[:, 5:] = np.nextafter(-0.3, 0.0)
        theta[3] = 0.7
        assert bandwidth(theta) == pytest.approx(0.9 * 0.3 * 10 ** -0.2, rel=1e-14)


def all_effects_density(theta, grid, bandwidth):
    """The kernel average over every effect draw at every grid point: the
    formula the windowed sum over distinct values replaced, kept as its oracle."""
    flat = np.asarray(theta).ravel()
    return np.array([float(np.mean(norm.pdf((t - flat) / bandwidth))) / bandwidth
                     for t in grid])


def _tied():
    g = np.random.default_rng(3)
    return g.choice(g.normal(0.0, 0.3, 12), size=(200, 150)), None


def _continuous():
    return np.random.default_rng(4).normal(0.1, 0.5, (60, 80)), None


def _one_draw():
    return np.random.default_rng(5).normal(0.0, 1.0, (1, 30)), None


def _two_distant_clusters():
    g = np.random.default_rng(6)
    theta = np.where(g.random((40, 25)) < 0.5, -5.0, 5.0) + g.normal(0.0, 0.05, (40, 25))
    return theta, 0.1


def _ratio():
    return np.exp(np.random.default_rng(7).normal(0.0, 0.4, (50, 40))), None


def _explicit_bandwidth():
    return np.random.default_rng(8).normal(0.0, 1.0, (30, 50)), 0.37


DENSITY_CASES = {"tied": _tied, "continuous": _continuous, "one_draw": _one_draw,
                 "empty_windows": _two_distant_clusters, "ratio": _ratio,
                 "explicit_bandwidth": _explicit_bandwidth}


class TestEffectDistribution:
    @pytest.mark.parametrize("case", DENSITY_CASES)
    def test_density_matches_the_all_effects_kernel_average(self, case):
        theta, bandwidth = DENSITY_CASES[case]()
        ite = IteDraws(theta, "ratio" if case == "ratio" else "log")
        grid = np.linspace(theta.min() - 1.0, theta.max() + 1.0, 61)
        if case == "empty_windows":
            grid = np.append(grid, [15.0, 20.0])
        dist = effect_distribution(ite, grid, bandwidth)
        if bandwidth is not None:
            assert dist.bandwidth == bandwidth
        oracle = all_effects_density(theta, grid, dist.bandwidth)
        np.testing.assert_allclose(dist.density, oracle, rtol=1e-12,
                                   atol=1e-13 / dist.bandwidth)

    @pytest.mark.parametrize("case", ["tied", "continuous", "one_draw"])
    def test_default_bandwidth_is_bit_identical(self, case):
        # effect_distribution takes the quartiles from its own sorted rows
        theta, _ = DENSITY_CASES[case]()
        ite = IteDraws(theta, "log")
        dist = effect_distribution(ite, np.linspace(-1.0, 1.0, 5))
        assert dist.bandwidth == default_bandwidth(ite)

    def test_grid_points_with_no_effect_within_eight_bandwidths_get_zero(self):
        theta, bandwidth = _two_distant_clusters()
        grid = np.array([-5.0, 0.0, 5.0, 15.0])  # between the clusters and beyond both
        dist = effect_distribution(IteDraws(theta, "log"), grid, bandwidth)
        assert dist.density[0] > 0 and dist.density[2] > 0
        assert dist.density[1] == 0.0 and dist.density[3] == 0.0
        assert np.all(all_effects_density(theta, grid, bandwidth)[[1, 3]] < 1e-13 / bandwidth)

    def test_cdf_and_bands_by_hand(self):
        theta = np.array([[0.0, 1.0, 2.0, 3.0],
                          [1.0, 1.0, 2.0, 5.0],
                          [-1.0, 0.0, 4.0, 4.0]])
        grid = np.array([-1.0, 0.5, 2.0, 4.5])
        # per draw, the share of its four effects <= t:
        #   [0, 1/4, 3/4, 1], [0, 0, 3/4, 3/4], [1/4, 1/2, 1/2, 1]
        dist = effect_distribution(IteDraws(theta, "log"), grid, bandwidth=1.0, level=0.5)
        np.testing.assert_allclose(dist.cdf, [1 / 12, 1 / 4, 2 / 3, 11 / 12], rtol=1e-15)
        # level 0.5: the 25% and 75% quantiles of three values are the
        # midpoints of the lower and the upper pair
        np.testing.assert_allclose(dist.cdf_lower, [0.0, 0.125, 0.625, 0.875], rtol=1e-15)
        np.testing.assert_allclose(dist.cdf_upper, [0.125, 0.375, 0.75, 1.0], rtol=1e-15)


# Effects of 4 draws (rows) on 7 patients (columns), signs set by hand:
# patient 3 has a zero-sum positive and negative part (a tie), 5 benefits
# in most draws but loses more in one, 6 benefits in exactly half the draws.
BENEFIT_THETA = np.array([
    [0.5, -0.2, 0.3, 0.0, 0.05, 0.1, 0.3],
    [0.4, 0.1, 0.2, -0.1, 0.2, 0.1, -0.1],
    [0.6, -0.3, -0.1, 0.0, 0.3, 0.1, 0.2],
    [0.2, -0.4, 0.3, 0.1, -0.05, -1.0, -0.2],
])


class TestProportionBenefiting:
    def test_log_scale_by_hand(self):
        got = proportion_benefiting(IteDraws(BENEFIT_THETA, "log"))
        # positive effects per draw: 5, 5, 4, 3 of 7
        np.testing.assert_allclose(got.q_draws, [5 / 7, 5 / 7, 4 / 7, 3 / 7], rtol=1e-15)
        assert got.q_mean == got.p_hat_mean == 17 / 28
        np.testing.assert_allclose(got.p_hat, [1, 0.25, 0.75, 0.25, 0.75, 0.75, 0.5])
        # effects above 0.1: 4 + 0 + 3 + 0 + 2 + 0 + 2; above 0.25: 3 + 2 + 1 + 1
        assert got.q_eps == {0.0: 17 / 28, 0.1: 11 / 28, 0.25: 7 / 28}
        # 95% quantiles of (3, 4, 5, 5)/7 at positions 0.075 and 2.925
        assert got.q_lower == pytest.approx(3.075 / 7, rel=1e-14)
        assert got.q_upper == pytest.approx(5 / 7, rel=1e-14)
        assert [label for label, _ in got.bands] == [
            "(0.99,1]", "(0.95,0.99]", "(0.75,0.95]", "(0.25,0.75]", "[0,0.25]"]
        np.testing.assert_allclose([pct for _, pct in got.bands],
                                   [100 / 7, 0, 0, 400 / 7, 200 / 7], rtol=1e-15)

    def test_ratio_scale_counts_ratios_above_one(self):
        log = proportion_benefiting(IteDraws(BENEFIT_THETA, "log"), thresholds=(0.0,))
        ratio = proportion_benefiting(IteDraws(np.exp(BENEFIT_THETA), "ratio"),
                                      thresholds=(0.0,))
        assert np.array_equal(ratio.q_draws, log.q_draws)
        assert np.array_equal(ratio.p_hat, log.p_hat)
        assert ratio.q_eps == log.q_eps == {0.0: 17 / 28}
        assert ratio.bands == log.bands


class TestAllocate:
    def test_misclassification_treats_above_one_half(self):
        got = allocate(IteDraws(BENEFIT_THETA, "log"), "misclassification")
        # benefit probabilities 1, 1/4, 3/4, 1/4, 3/4, 3/4, 1/2
        assert got.tolist() == [1, 0, 1, 0, 1, 1, 0]
        assert got.dtype == np.int8

    def test_weighted_compares_mean_gain_with_mean_loss(self):
        got = allocate(IteDraws(BENEFIT_THETA, "log"), "weighted")
        # patient 3 gains 0.1/4 and loses 0.1/4: the tie goes to control;
        # 5 gains 0.3/4 but loses 1/4; 6 gains 0.5/4 and loses 0.3/4
        assert got.tolist() == [1, 0, 1, 0, 1, 0, 1]

    def test_ratio_scale_centres_at_one(self):
        got = allocate(IteDraws(np.exp(BENEFIT_THETA), "ratio"), "misclassification")
        assert got.tolist() == [1, 0, 1, 0, 1, 1, 0]

    def test_unknown_rule_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown allocation rule"):
            allocate(IteDraws(BENEFIT_THETA, "log"), "coin")


def Phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def hand_draws(**columns):
    """Posterior draws with the given columns; every other column is zeros."""
    D = len(columns["sigma"])
    base = {c.name: np.zeros(D) for c in engine._COLUMNS}
    base.update({k: np.asarray(v, dtype=float) for k, v in columns.items()})
    return PosteriorDraws(**base, transform=ResponseTransform(0.0, 1.0), config={},
                          sigma_tau_sq=1.0)


class TestSurvivalCurve:
    # Two draws, H = 2, at log times 0, 1 and 2. Draw 0: m = 1, sigma = 1,
    # tau = (-1, 1), pi = (1/2, 1/2), so z = (log t, log t - 2). Draw 1: m = 0,
    # sigma = 2, tau = (0, 2), pi = (1/4, 3/4), so z = (log t / 2, log t / 2 - 1).
    DRAWS = dict(m1=[[1.0, 9.0], [0.0, 9.0]], m0=[[5.0, 5.0], [5.0, 5.0]],
                 sigma=[1.0, 2.0], tau=[[-1.0, 1.0], [0.0, 2.0]],
                 pi=[[0.5, 0.5], [0.25, 0.75]])
    CURVES = np.array([
        [1 - 0.5 * Phi(0) - 0.5 * Phi(-2), 1 - 0.5 * Phi(1) - 0.5 * Phi(-1),
         1 - 0.5 * Phi(2) - 0.5 * Phi(0)],
        [1 - 0.25 * Phi(0) - 0.75 * Phi(-1), 1 - 0.25 * Phi(0.5) - 0.75 * Phi(-0.5),
         1 - 0.25 * Phi(1) - 0.75 * Phi(0)],
    ])

    def test_hand_computed_table_and_bands(self):
        times = np.exp([0.0, 1.0, 2.0])
        got = survival_curve(hand_draws(**self.DRAWS), 1, times, patient=0)
        assert np.array_equal(got.times, times)
        np.testing.assert_allclose(got.mean, self.CURVES.mean(axis=0), rtol=1e-12)
        # the 2.5% and 97.5% quantiles of two values sit 1/40 of the way in
        lo, hi = self.CURVES.min(axis=0), self.CURVES.max(axis=0)
        np.testing.assert_allclose(got.lower, lo + (hi - lo) / 40, rtol=1e-12)
        np.testing.assert_allclose(got.upper, hi - (hi - lo) / 40, rtol=1e-12)

    def test_control_arm_reads_m0(self):
        draws = hand_draws(**{**self.DRAWS, "m0": self.DRAWS["m1"],
                              "m1": self.DRAWS["m0"]})
        got = survival_curve(draws, 0, np.exp([0.0, 1.0, 2.0]), patient=0)
        np.testing.assert_allclose(got.mean, self.CURVES.mean(axis=0), rtol=1e-12)

    def test_blocks_of_draws_give_the_same_curves(self, small_data, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            draws = fit(small_data, small_config())
        times = np.linspace(0.5, 30.0, 12)
        whole = survival_curve(draws, 1, times, patient=3)
        # 80 draws: eleven blocks of 7 in one reused array, then a block of 3
        monkeypatch.setattr(hte, "SURVIVAL_CHUNK", 7)
        blocks = survival_curve(draws, 1, times, patient=3)
        for name in ("mean", "lower", "upper"):
            assert np.array_equal(getattr(blocks, name), getattr(whole, name)), name

    @pytest.mark.parametrize("patient, x", [(None, None), (0, np.zeros(3))])
    def test_needs_exactly_one_of_patient_and_covariates(self, patient, x):
        with pytest.raises(ConfigError, match="exactly one"):
            survival_curve(hand_draws(**self.DRAWS), 1, [1.0, 2.0], patient=patient, x=x)

    @pytest.mark.parametrize("patient", [-1, 2, 5])
    def test_patient_index_outside_the_rows_is_a_data_error(self, patient):
        with pytest.raises(DataError, match=rf"patient index {patient} out of range \(n=2\)"):
            survival_curve(hand_draws(**self.DRAWS), 1, [1.0, 2.0], patient=patient)

    @pytest.mark.parametrize("patient", [1.5, np.float64(1.0), True, np.bool_(False), "1"])
    def test_patient_index_that_is_not_an_integer_is_a_data_error(self, patient):
        with pytest.raises(DataError, match="patient index must be an integer, got "):
            survival_curve(hand_draws(**self.DRAWS), 1, [1.0, 2.0], patient=patient)

    @pytest.mark.parametrize("patient", [np.int64(1), np.int32(1), np.uint8(1)])
    def test_numpy_integer_patient_index_is_accepted(self, patient):
        draws = hand_draws(**self.DRAWS)
        got = survival_curve(draws, 1, [1.0, 2.0], patient=patient)
        want = survival_curve(draws, 1, [1.0, 2.0], patient=1)
        assert np.array_equal(got.mean, want.mean)

    @pytest.mark.parametrize("arm", [2, -1, 0.5])
    def test_arm_other_than_0_or_1_is_a_config_error(self, arm):
        with pytest.raises(ConfigError, match=f"arm must be 0 or 1, got {arm}"):
            survival_curve(hand_draws(**self.DRAWS), arm, [1.0, 2.0], patient=0)

    def test_non_finite_covariate_is_a_data_error(self, forest_fit):
        data, draws = forest_fit
        x = data.X[0].copy()
        x[1] = np.nan
        with pytest.raises(DataError, match="non-finite covariate nan at row 0, column 1"):
            survival_curve(draws, 1, [1.0, 2.0], x=x)

    def test_covariates_of_a_training_row_match_its_patient_index(self, small_data):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            draws = fit(small_data, small_config(keep_forests=True))
        times = np.linspace(0.5, 30.0, 12)
        for a in (0, 1):
            for i in (0, 7, 59):
                by_index = survival_curve(draws, a, times, patient=i)
                by_x = survival_curve(draws, a, times, x=small_data.X[i])
                for name in ("mean", "lower", "upper"):
                    np.testing.assert_allclose(getattr(by_x, name), getattr(by_index, name),
                                               rtol=0, atol=1e-9, err_msg=name)


# Draw 0: a tree on x1 alone (it cancels) and x1 <= 0 ? 1 : (arm <= 0.5 ? -0.5 : 1.5),
# so with x1 pinned at z every patient's effect is 0 for z <= 0 and 2 above.
# Draw 1: arm <= 0.5 ? 0 : (x2 <= 0.5 ? 0.25 : -0.5), effects (0.25, -0.5, -0.5)
# for x2 = (0, 1, 2) whatever z, mean -0.25. Draw 2: no arm split, so 0.
PDP_FORESTS = (
    [COVARIATE_TREE, ([1, -1, 0, -1, -1], [0.0, NAN, 0.5, NAN, NAN], [4, -1, 6, -1, -1],
                      [5, -1, 7, -1, -1], [0.0, 1.0, 0.0, -0.5, 1.5])],
    [([0, -1, 2, -1, -1], [0.5, NAN, 0.5, NAN, NAN], [1, -1, 3, -1, -1],
      [2, -1, 4, -1, -1], [0.0, 0.0, 0.0, 0.25, -0.5])],
    [COVARIATE_TREE],
)
PDP_DATA = EncodedDataset.from_arrays(np.ones(3), np.ones(3, int), np.array([0, 1, 0]),
                                      np.array([[-1.0, 0.0], [0.5, 1.0], [1.0, 2.0]]))
PDP_GRID = np.array([-1.0, 1.0, 3.0])  # 3 lies beyond the observed x1


def pdp_hand_draws(*forests):
    draws = hand_draws(sigma=np.ones(len(forests)))
    draws.forests = PackedForest.stack([packed(trees) for trees in forests])
    return draws


def all_trees_rho(draws, data, column, grid, draw_stride):
    """Per draw and grid value, the mean over patients of every tree's
    treated-minus-control fit: the all-trees routing that arm-only routing
    replaced, kept as its oracle."""
    n = data.n
    rho = np.empty((len(range(0, draws.n_draws, draw_stride)), grid.shape[0]))
    X_mod = data.X.copy()
    for gi, z in enumerate(grid):
        X_mod[:, column] = z
        U1 = np.column_stack([np.ones(n), X_mod])
        U0 = np.column_stack([np.zeros(n), X_mod])
        f1, f0 = (draws.forests.predict_matrix(U)[::draw_stride] for U in (U1, U0))
        for di in range(rho.shape[0]):
            rho[di, gi] = float((f1[di] - f0[di]).mean())
    return rho


@pytest.fixture(scope="module")
def forest_fit():
    data = make_dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return data, fit(data, small_config(keep_forests=True))


class TestPartialDependence:
    def test_hand_computed_effects_and_bands(self):
        with pytest.warns(RuntimeWarning, match="beyond the observed"):
            got = partial_dependence(pdp_hand_draws(*PDP_FORESTS), PDP_DATA, 0, PDP_GRID,
                                     level=0.5)
        # rho per draw: (0, 2, 2), (-0.25, -0.25, -0.25), (0, 0, 0); at level
        # 0.5 the bands are the midpoints of the lower and of the upper pair
        assert np.array_equal(got.grid, PDP_GRID)
        np.testing.assert_allclose(got.mean, [-0.25 / 3, 1.75 / 3, 1.75 / 3], rtol=1e-15)
        assert np.array_equal(got.lower, [-0.125, -0.125, -0.125])
        assert np.array_equal(got.upper, [0.0, 1.0, 1.0])
        assert got.extrapolated.tolist() == [False, False, True]

    def test_draw_stride_takes_every_kth_draw(self):
        with pytest.warns(RuntimeWarning):
            got = partial_dependence(pdp_hand_draws(*PDP_FORESTS), PDP_DATA, 0, PDP_GRID,
                                     draw_stride=2, level=0.5)
        # draws 0 and 2
        assert np.array_equal(got.mean, [0.0, 1.0, 1.0])
        assert np.array_equal(got.lower, [0.0, 0.5, 0.5])
        assert np.array_equal(got.upper, [0.0, 1.5, 1.5])

    def test_draw_with_no_arm_split_is_exactly_zero(self):
        with pytest.warns(RuntimeWarning):
            got = partial_dependence(pdp_hand_draws(PDP_FORESTS[2]), PDP_DATA, 0, PDP_GRID)
        for name in ("mean", "lower", "upper"):
            assert np.array_equal(getattr(got, name), np.zeros(3)), name

    @pytest.mark.parametrize("draw_stride", [1, 7])
    def test_matches_the_all_trees_oracle_on_a_fit(self, forest_fit, draw_stride):
        data, draws = forest_fit
        for column in range(data.p_enc):
            grid = np.quantile(data.X[:, column], [0.05, 0.3, 0.7, 0.95])
            got = partial_dependence(draws, data, column, grid, draw_stride)
            rho = all_trees_rho(draws, data, column, grid, draw_stride)
            assert rho.shape[0] == {1: 80, 7: 12}[draw_stride]
            for name, want in (("mean", rho.mean(axis=0)),
                               ("lower", np.quantile(rho, 0.025, axis=0)),
                               ("upper", np.quantile(rho, 0.975, axis=0))):
                np.testing.assert_allclose(getattr(got, name), want, rtol=1e-12,
                                           atol=1e-12, err_msg=name)
            assert not got.extrapolated.any()

    @pytest.mark.parametrize("draw_stride", [0, -1])
    def test_draw_stride_below_one_is_a_config_error(self, draw_stride):
        with pytest.raises(ConfigError, match="draw stride"):
            partial_dependence(pdp_hand_draws(*PDP_FORESTS), PDP_DATA, 0, PDP_GRID[:2],
                               draw_stride)


LEVEL_CALLS = {
    "intervals": lambda lv: IteDraws(BENEFIT_THETA, "log").intervals(lv),
    "effect_distribution": lambda lv: effect_distribution(
        IteDraws(BENEFIT_THETA, "log"), np.linspace(-1.0, 1.0, 5), level=lv),
    "proportion_benefiting": lambda lv: proportion_benefiting(
        IteDraws(BENEFIT_THETA, "log"), level=lv),
    "survival_curve": lambda lv: survival_curve(
        hand_draws(**TestSurvivalCurve.DRAWS), 1, [1.0, 2.0], patient=0, level=lv),
    "partial_dependence": lambda lv: partial_dependence(
        pdp_hand_draws(*PDP_FORESTS), PDP_DATA, 0, PDP_GRID[:2], level=lv),
}


@pytest.mark.parametrize("call", LEVEL_CALLS)
@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, math.nan])
def test_level_outside_zero_one_is_a_config_error(call, level):
    with pytest.raises(ConfigError, match="level must be strictly between 0 and 1"):
        LEVEL_CALLS[call](level)


POINT_CALLS = {
    "effect_distribution": lambda points: effect_distribution(
        IteDraws(BENEFIT_THETA, "log"), points),
    "survival_curve": lambda points: survival_curve(
        hand_draws(**TestSurvivalCurve.DRAWS), 1, points, patient=0),
    "partial_dependence": lambda points: partial_dependence(
        pdp_hand_draws(*PDP_FORESTS), PDP_DATA, 0, points),
}


@pytest.mark.parametrize("call", POINT_CALLS)
@pytest.mark.parametrize("points", [[1.0, math.nan], [math.nan, 1.0], [0.5, math.inf]])
def test_non_finite_evaluation_point_is_a_data_error(call, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="finite"):
            POINT_CALLS[call](np.array(points))
