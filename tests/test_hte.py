import math

import numpy as np
import pytest

from npaft import stdnorm as norm
from npaft.errors import ConfigError
from npaft.hte import (IteDraws, allocate, default_bandwidth, effect_distribution,
                       proportion_benefiting)


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
