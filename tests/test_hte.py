import math

import numpy as np
import pytest

from npaft.hte import IteDraws, default_bandwidth, effect_distribution


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
