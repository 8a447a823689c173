import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq
from scipy.stats import chi2, kstest, norm

from npaft import CdpHyper, ConfigError, NumericError, calibrate_scale, \
    sample_truncnorm_lower
from npaft import mixture
from npaft.mixture import (CdpState, _weights_from_sticks,
                           impute_censored, init_state, mass_posterior_params,
                           scale_posterior_params, update_cluster_labels,
                           update_cluster_locations, update_mass_and_scale,
                           update_stick_weights, variance_factor_cdf)


# -- Monte Carlo and closed-form oracles ------------------------------------

def variance_factor_draws(hyper: CdpHyper, n_draws: int,
                          rng: np.random.Generator,
                          fixed_M: float | None = None) -> np.ndarray:
    """Draws of the approximate residual-variance factor
    ``nu/chi2_nu + Normal(1, 2/(M+1))`` with ``M ~ Gamma(psi1, psi2)``
    (or fixed)."""
    chi2 = rng.chisquare(hyper.nu, n_draws)
    if fixed_M is None:
        M = rng.gamma(hyper.psi1, 1.0 / hyper.psi2, n_draws)
    else:
        M = np.full(n_draws, float(fixed_M))
    normal_part = rng.normal(1.0, np.sqrt(2.0 / (M + 1.0)))
    return hyper.nu / chi2 + normal_part


def dp_dispersion_draws(M: float, H: int, n_draws: int,
                        rng: np.random.Generator,
                        chunk: int = 2000) -> np.ndarray:
    """Monte Carlo draws of the weighted centered atom dispersion
    ``sum_h pi_h (tau*_h - mu_G*)^2 / sigma_tau^2`` under the truncated
    stick-breaking prior at a fixed mass value (sigma_tau = 1 WLOG)."""
    out = np.empty(n_draws)
    for start in range(0, n_draws, chunk):
        m = min(chunk, n_draws - start)
        V = rng.beta(1.0, M, size=(m, H))
        V[:, -1] = 1.0
        pi = V.copy()
        pi[:, 1:] *= np.cumprod(1.0 - V[:, :-1], axis=1)
        tau = rng.standard_normal((m, H))
        mu = np.einsum("ij,ij->i", pi, tau)
        out[start:start + m] = np.einsum("ij,ij->i", pi, (tau - mu[:, None]) ** 2)
    return out


def simulate_residual_variance(hyper: CdpHyper, n_draws: int,
                               rng: np.random.Generator,
                               chunk: int = 2000) -> np.ndarray:
    """Exact draws of Var(W | G, sigma) = sigma^2 + sum pi_h (tau*_h - mu_G*)^2
    from the full prior (used to audit the calibration approximation)."""
    st2 = hyper.kappa
    out = np.empty(n_draws)
    for start in range(0, n_draws, chunk):
        m = min(chunk, n_draws - start)
        M = rng.gamma(hyper.psi1, 1.0 / hyper.psi2, m)
        V = rng.beta(1.0, np.repeat(M[:, None], hyper.H, axis=1))
        V[:, -1] = 1.0
        pi = V.copy()
        pi[:, 1:] *= np.cumprod(1.0 - V[:, :-1], axis=1)
        tau = rng.normal(0.0, math.sqrt(st2), (m, hyper.H))
        mu = np.einsum("ij,ij->i", pi, tau)
        disp = np.einsum("ij,ij->i", pi, (tau - mu[:, None]) ** 2)
        sigma_sq = st2 * hyper.nu / rng.chisquare(hyper.nu, m)
        out[start:start + m] = sigma_sq + disp
    return out


def residual_density(w, state: CdpState) -> np.ndarray:
    """Mixture density (1/sigma) sum_h pi_h phi((w - tau_h)/sigma)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    z = (w[:, None] - state.tau[None, :]) / state.sigma
    dens = (state.pi[None, :] * norm.pdf(z)).sum(axis=1) / state.sigma
    return dens if dens.shape[0] > 1 else dens[0]


def make_state(pi, tau, sigma_sq=1.0, M=1.0, S=None, n=0):
    pi = np.asarray(pi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    H = pi.shape[0]
    if S is None:
        S = np.zeros(n, dtype=np.int32)
    S = np.asarray(S, dtype=np.int32)
    V = np.zeros(H)
    V[-1] = 1.0
    return CdpState(V=V, pi=pi, tau_star=tau.copy(), mu_gstar=0.0, tau=tau,
                    M=M, sigma_sq=sigma_sq, S=S,
                    n_h=np.bincount(S, minlength=H))


@pytest.fixture
def hyper():
    return CdpHyper(sigma_tau_sq=1.0)


class TestHyper:
    def test_defaults_match_documented_values(self):
        h = CdpHyper()
        assert (h.psi1, h.psi2, h.nu, h.q, h.H) == (2.0, 0.1, 3.0, 0.5, 50)

    def test_mass_prior_moments(self):
        # Gamma(2, 0.1): mean 20, variance 200, mode 10
        h = CdpHyper()
        assert h.psi1 / h.psi2 == pytest.approx(20.0)
        assert h.psi1 / h.psi2 ** 2 == pytest.approx(200.0)
        assert (h.psi1 - 1) / h.psi2 == pytest.approx(10.0)

    @pytest.mark.parametrize("kwargs", [
        dict(psi1=0), dict(psi2=-1), dict(nu=0), dict(q=0.0), dict(q=1.0),
        dict(H=1), dict(sigma_tau_sq=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            CdpHyper(**kwargs)


# the settings the calibration is checked at: the defaults, a high quantile,
# and a lighter-tailed kernel variance with a small mass parameter
CALIBRATION_SETS = [CdpHyper(), CdpHyper(q=0.9), CdpHyper(nu=10.0, psi1=1.0, psi2=1.0)]


def factor_quantile(hyper: CdpHyper) -> float:
    """The factor's calibrated quantile: sigma_w_hat = 1 gives 1/f*."""
    return 1.0 / calibrate_scale(1.0, hyper)


class TestCalibrate:
    def test_quantile_inversion_definition(self):
        # sigma_w^2 = 4 and factor q-quantile f* give sigma_tau^2 = 4/f*,
        # where f* puts mass q below it among the positive factor values
        h = CdpHyper()
        quantile = factor_quantile(h)
        assert calibrate_scale(2.0, h) == pytest.approx(4.0 / quantile, rel=1e-15)
        cdf = variance_factor_cdf(h)
        p0 = cdf(0.0)
        assert (cdf(quantile) - p0) / (1.0 - p0) == pytest.approx(h.q, abs=1e-12)

    @pytest.mark.parametrize("hyper", CALIBRATION_SETS, ids=["defaults", "q0.9", "nu10"])
    def test_cdf_at_its_quantile_matches_monte_carlo(self, hyper):
        quantile = factor_quantile(hyper)
        cdf = variance_factor_cdf(hyper)
        rng = np.random.default_rng(20)
        n, below, nonpositive = 10_000_000, 0, 0
        for _ in range(10):
            factor = variance_factor_draws(hyper, n // 10, rng)
            below += int(np.count_nonzero(factor <= quantile))
            nonpositive += int(np.count_nonzero(factor <= 0.0))
        for t, count in ((quantile, below), (0.0, nonpositive)):
            p = cdf(t)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(count / n - p) <= 4.0 * se, (t, count / n, p)

    @pytest.mark.parametrize("hyper", CALIBRATION_SETS + [
        CdpHyper(q=0.01), CdpHyper(q=0.999), CdpHyper(nu=0.5), CdpHyper(psi2=0.001)])
    def test_chosen_nodes_match_a_dense_rule(self, hyper, monkeypatch):
        chosen = calibrate_scale(1.0, hyper)
        monkeypatch.setattr(mixture, "CAL_PANEL_NODES", 8 * mixture.CAL_PANEL_NODES)
        monkeypatch.setattr(mixture, "CAL_MASS_NODES", 8 * mixture.CAL_MASS_NODES)
        assert chosen == pytest.approx(calibrate_scale(1.0, hyper), rel=2e-5)

    def test_repeat_calls_are_bit_identical(self):
        for h in CALIBRATION_SETS:
            assert calibrate_scale(1.3, h) == calibrate_scale(1.3, h)

    def test_default_value(self):
        # 2.33619 from a 512 x 1024 rule; 10^6-draw Monte Carlo runs gave
        # 2.3357 with an sd of 0.0015 over 8 seeds
        assert factor_quantile(CdpHyper()) == pytest.approx(2.336190, rel=1e-6)

    def test_large_mass_limit_median(self):
        # M -> infinity: factor -> nu/chi2_nu + 1
        h = CdpHyper()
        factor = variance_factor_draws(h, 400_000, np.random.default_rng(6),
                                       fixed_M=1e12)
        expected_median = 1.0 + h.nu / chi2.ppf(0.5, h.nu)
        assert np.median(factor) == pytest.approx(expected_median, rel=0.01)

    def test_excessive_negative_draws_error(self, monkeypatch):
        # the >10% guard is unreachable for real hyperparameters (the positive
        # chi-square term shields zero), so drive it through the CDF: a
        # Normal(1, 1) factor has 16% of its mass below zero
        monkeypatch.setattr(mixture, "variance_factor_cdf",
                            lambda hyper: lambda t: float(norm.cdf(t - 1.0)))
        with pytest.raises(NumericError, match="nonpositive"):
            calibrate_scale(1.0, CdpHyper())

    def test_input_validation(self, hyper):
        with pytest.raises(ConfigError):
            calibrate_scale(0.0, hyper)


# function families with a single sign change at r, each exactly 0 at x = r
BRENTQ_FAMILIES = {
    "cubic": lambda r, k: lambda x: (x - r) ** 3 + k * (x - r),
    "tanh+linear": lambda r, k: lambda x: math.tanh(k * (x - r)) + 0.01 * (x - r),
    "exp": lambda r, k: lambda x: k * math.expm1(x - r),
    "atan": lambda r, k: lambda x: 1e3 * k * math.atan(x - r),
    "power0.3": lambda r, k: lambda x: math.copysign(abs(x - r) ** 0.3, x - r),
}

# the settings the calibration's quadrature rule was chosen on (see
# CAL_PANEL_NODES)
CAL_PANEL_SETTINGS = [
    CdpHyper(), CdpHyper(q=0.01), CdpHyper(q=0.9), CdpHyper(q=0.99), CdpHyper(q=0.999),
    CdpHyper(nu=0.5), CdpHyper(nu=100.0), CdpHyper(psi2=0.001),
    CdpHyper(nu=10.0, psi1=1.0, psi2=1.0)]


class TestBrentq:
    def test_same_float_as_scipy(self):
        rng = np.random.default_rng(21)
        cases = []
        for make in BRENTQ_FAMILIES.values():
            for xtol in (2e-12, 1e-10, 1e-4):
                for _ in range(700):
                    r = float(rng.uniform(-50.0, 50.0))
                    lo, hi = r - 10.0 ** rng.uniform(-3, 2), r + 10.0 ** rng.uniform(-3, 2)
                    if rng.random() < 0.5:
                        lo, hi = hi, lo
                    cases.append((make(r, float(10.0 ** rng.uniform(-2, 2))), lo, hi, xtol))
                # a root exactly at either end
                cases += [(make(r, 1.0), r, r + 1.5, xtol) for r in (0.0, 2.5, -7.25)]
                cases += [(make(r, 1.0), r - 0.5, r, xtol) for r in (0.0, 2.5, -7.25)]
        assert len(cases) >= 10_000
        mismatched = [(lo, hi, xtol) for f, lo, hi, xtol in cases
                      if mixture.brentq(f, lo, hi, xtol=xtol).hex()
                      != scipy_brentq(f, lo, hi, xtol=xtol).hex()]
        assert not mismatched, (len(mismatched), mismatched[:5])

    @pytest.mark.parametrize("hyper", CAL_PANEL_SETTINGS)
    def test_calibration_equal_under_scipy(self, hyper, monkeypatch):
        ported = calibrate_scale(1.3, hyper)
        monkeypatch.setattr(mixture, "brentq", scipy_brentq)
        assert ported == calibrate_scale(1.3, hyper)

    # scipy raises ValueError where the port raises, except on an infinite
    # value, which scipy's wrapper lets through
    @pytest.mark.parametrize("f, match, scipy_raises", [
        (lambda x: x * x + 1.0, "same sign", True),
        (lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, "= nan", True),
        (lambda x: math.nan if x == 1.0 else x - 0.5, "= nan", True),
        (lambda x: math.inf if x == 1.0 else x - 0.5, "= inf", False),
    ], ids=["no-sign-change", "nan-inside", "nan-at-end", "inf-at-end"])
    def test_errors(self, f, match, scipy_raises):
        with pytest.raises(NumericError, match=match):
            mixture.brentq(f, 0.0, 1.0)
        if scipy_raises:
            with pytest.raises(ValueError):
                scipy_brentq(f, 0.0, 1.0)

    def test_iteration_budget(self):
        f = BRENTQ_FAMILIES["power0.3"](1.0 / 3.0, 1.0)
        with pytest.raises(NumericError, match="2 iterations"):
            mixture.brentq(f, 0.0, 1.0, maxiter=2)
        with pytest.raises(RuntimeError):
            scipy_brentq(f, 0.0, 1.0, maxiter=2)
        assert mixture.brentq(f, 0.0, 1.0).hex() == scipy_brentq(f, 0.0, 1.0).hex()


class TestStickWeights:
    def test_exhausted_first_stick(self):
        V = np.array([1.0, 0.3, 1.0])
        assert np.array_equal(_weights_from_sticks(V), [1.0, 0.0, 0.0])

    def test_halves(self):
        V = np.array([0.5, 0.5, 1.0])
        assert np.allclose(_weights_from_sticks(V), [0.5, 0.25, 0.25])
        assert _weights_from_sticks(V).sum() == 1.0

    def test_exact_unit_sum_random(self, rng):
        for _ in range(3000):
            H = int(rng.integers(2, 80))
            V = rng.beta(rng.uniform(0.5, 30), rng.uniform(0.5, 30), H)
            V[-1] = 1.0
            pi = _weights_from_sticks(V)
            assert pi.sum() == 1.0
            assert np.all(pi >= 0)

    def test_empty_counts_beta_prior_moment(self, rng, hyper):
        # with no occupied clusters, sticks are Beta(1, M): mean 1/(1+M)
        M = 4.0
        state = make_state(np.full(4, 0.25), np.zeros(4), M=M, n=0)
        draws = np.empty(20_000)
        for i in range(draws.shape[0]):
            update_stick_weights(state, rng)
            draws[i] = state.V[0]
        assert draws.mean() == pytest.approx(1.0 / (1.0 + M), rel=0.01)

    def test_posterior_parameters(self, rng):
        # Beta(1 + n_h, M + sum_{k>h} n_k): check the first stick's moments
        M = 2.0
        S = np.array([0, 0, 0, 1, 1, 2], dtype=np.int32)
        state = make_state(np.full(3, 1 / 3), np.zeros(3), M=M, S=S)
        draws = np.empty(40_000)
        for i in range(draws.shape[0]):
            update_stick_weights(state, rng)
            draws[i] = state.V[0]
        a, b = 1.0 + 3, M + 3  # three rows above cluster 0
        assert draws.mean() == pytest.approx(a / (a + b), rel=0.01)


class TestLabels:
    def test_degenerate_weights(self, rng):
        state = make_state([1.0, 0.0], [0.0, 5.0], n=6)
        update_cluster_labels(state, np.linspace(-2, 7, 6), rng)
        assert np.all(state.S == 0)
        assert state.n_h[0] == 6

    def test_likelihood_dominance(self, rng):
        r = np.full(50, 0.0)
        state = make_state([0.5, 0.5], [0.0, 40.0], sigma_sq=1.0, n=50)
        update_cluster_labels(state, r, rng)
        assert np.all(state.S == 0)

    def test_three_component_frequencies(self, rng):
        pi = np.array([0.5, 0.3, 0.2])
        tau = np.array([-1.0, 0.0, 1.0])
        sigma_sq = 0.7
        r = np.array([0.4])
        state = make_state(pi, tau, sigma_sq=sigma_sq, n=1)
        tallies = np.zeros(3)
        n_draws = 100_000
        for _ in range(n_draws):
            update_cluster_labels(state, r, rng)
            tallies[state.S[0]] += 1
        probs = pi * norm.pdf((r[0] - tau) / math.sqrt(sigma_sq))
        probs /= probs.sum()
        assert np.all(np.abs(tallies / n_draws - probs) < 0.01)

    def test_extreme_residual_never_errors(self, rng):
        state = make_state([0.5, 0.5], [0.0, 1.0], sigma_sq=1e-6, n=2)
        update_cluster_labels(state, np.array([1e4, -1e4]), rng)
        assert np.all((state.S >= 0) & (state.S < 2))

    @staticmethod
    def dense_labels(pi, tau, sigma_sq, r, rng):
        """Row-major (n, H) formula the component-major kernel must match."""
        with np.errstate(divide="ignore"):
            logw = np.log(pi)[None, :]
        logw = logw - (r[:, None] - tau[None, :]) ** 2 / (2.0 * sigma_sq)
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        w /= w.sum(axis=1, keepdims=True)
        u = rng.random(r.shape[0])
        S = (u[:, None] > np.cumsum(w, axis=1)).sum(axis=1).astype(np.int32)
        np.clip(S, 0, pi.shape[0] - 1, out=S)
        return S, np.bincount(S, minlength=pi.shape[0])

    @pytest.mark.parametrize("H", [2, 7, 8, 9, 16, 50, 129, 200])
    @pytest.mark.parametrize("n", [1, 3, 2000])
    def test_matches_dense_oracle_bit_for_bit(self, H, n):
        gen = np.random.default_rng(1000 * H + n)
        cases = []
        for zeros in (False, True):
            pi = gen.dirichlet(np.full(H, 0.5))
            if zeros:
                pi[gen.random(H) < 0.4] = 0.0
                pi[gen.integers(H)] = 0.5
                pi /= pi.sum()
            cases.append((pi, gen.normal(0, 1, H), gen.uniform(0.05, 2.0),
                          gen.normal(0, 1.5, n)))
        extreme = np.where(np.arange(n) % 2 == 0, 1e4, -1e4)
        cases.append((cases[1][0], cases[1][1], 1e-6, extreme))
        for pi, tau, sigma_sq, r in cases:
            seed = int(gen.integers(2**32))
            oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            S, n_h = self.dense_labels(pi, tau, sigma_sq, r, oracle_rng)
            state = make_state(pi, tau.copy(), sigma_sq=sigma_sq, n=n)
            update_cluster_labels(state, r, rng)
            assert state.S.dtype == np.int32
            np.testing.assert_array_equal(state.S, S)
            np.testing.assert_array_equal(state.n_h, n_h)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestLocations:
    def test_empty_cluster_draws_from_base(self, rng, hyper):
        state = make_state([0.5, 0.5], [0.0, 0.0], n=4)  # all rows in cluster 0
        draws = np.empty(30_000)
        for i in range(draws.shape[0]):
            update_cluster_locations(state, np.zeros(4), hyper, rng)
            draws[i] = state.tau_star[1]
        assert draws.mean() == pytest.approx(0.0, abs=0.02)
        assert draws.var() == pytest.approx(hyper.sigma_tau_sq, rel=0.03)

    def test_recentering_identity(self, rng, hyper):
        state = make_state(np.full(5, 0.2), np.zeros(5), n=20,
                           S=np.arange(20, dtype=np.int32) % 5)
        for _ in range(200):
            update_cluster_locations(state, rng.normal(0, 2, 20), hyper, rng)
            assert abs(float(state.pi @ state.tau)) < 1e-10

    def test_conjugate_posterior(self, rng, hyper):
        # one occupied cluster: n=4, residual sum 4, sigma = sigma_tau = 1
        r = np.array([2.0, 0.5, 1.0, 0.5])
        state = make_state([1.0, 0.0], [0.0, 0.0], sigma_sq=1.0, n=4)
        draws = np.empty(200_000)
        for i in range(draws.shape[0]):
            update_cluster_locations(state, r, hyper, rng)
            draws[i] = state.tau_star[0]
        assert draws.mean() == pytest.approx(4.0 / 5.0, abs=0.005)
        assert draws.var() == pytest.approx(1.0 / 5.0, rel=0.02)


class TestMassAndScale:
    def test_no_data_reduces_to_prior(self, rng):
        hyper = CdpHyper(sigma_tau_sq=2.0)
        state = make_state([0.5, 0.5], [0.0, 0.0], n=0,
                           S=np.empty(0, dtype=np.int32))
        draws = np.empty(100_000)
        for i in range(draws.shape[0]):
            update_mass_and_scale(state, np.empty(0), hyper, rng)
            draws[i] = state.sigma_sq
        # sigma^2 ~ kappa*nu/chi2_nu: median = kappa*nu / chi2_median
        expect_median = hyper.kappa * hyper.nu / chi2.ppf(0.5, hyper.nu)
        assert np.median(draws) == pytest.approx(expect_median, rel=0.02)

    def test_posterior_parameters_hand_computed(self):
        hyper = CdpHyper(sigma_tau_sq=0.5, nu=3.0, psi1=2.0, psi2=0.1)
        S = np.array([0, 0, 1, 1, 1], dtype=np.int32)
        state = make_state([0.6, 0.4], [0.3, -0.45], sigma_sq=1.0, S=S)
        state.V = np.array([0.6, 1.0])
        r = np.array([0.5, 0.1, -0.2, -0.7, -0.4])
        shape, rate = mass_posterior_params(state, hyper)
        assert shape == pytest.approx(2.0 + 2 - 1)
        assert rate == pytest.approx(0.1 - math.log(1 - 0.6))
        ig_shape, ig_scale = scale_posterior_params(state, r, hyper)
        dev = r - state.tau[S]
        assert ig_shape == pytest.approx((3.0 + 5) / 2)
        assert ig_scale == pytest.approx((float(dev @ dev) + 0.5 * 3.0) / 2)

    def test_stick_at_one_is_clamped(self, rng):
        hyper = CdpHyper(sigma_tau_sq=1.0)
        state = make_state([1.0, 0.0], [0.0, 0.0], n=2)
        state.V = np.array([1.0, 1.0])  # log(1-V) would be -inf unclamped
        update_mass_and_scale(state, np.zeros(2), hyper, rng)
        assert np.isfinite(state.M) and state.M > 0


class TestImpute:
    def test_uncensored_passthrough(self, rng):
        state = make_state([1.0, 0.0], [0.0, 0.0], n=5)
        log_y = np.linspace(-1, 1, 5)
        out = impute_censored(state, np.zeros(5), np.ones(5, int), log_y, rng)
        assert np.array_equal(out, log_y)

    def test_imputed_values_exceed_bounds(self, rng):
        state = make_state([1.0, 0.0], [0.0, 0.0], sigma_sq=0.25, n=8)
        log_y = np.linspace(-1, 2, 8)
        delta = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        for _ in range(200):
            out = impute_censored(state, np.full(8, 0.3), delta, log_y, rng)
            cens = delta == 0
            assert np.all(out[cens] > log_y[cens])
            assert np.array_equal(out[~cens], log_y[~cens])

    def test_truncated_mean_at_two_sigma(self, rng):
        # bound = mean + 2 sigma: E[X | X > b] = mean + sigma * phi(2)/(1-Phi(2))
        mean, sigma = 0.4, 0.8
        bound = mean + 2.0 * sigma
        draws = sample_truncnorm_lower(np.full(100_000, mean), sigma, bound, rng)
        lam = norm.pdf(2.0) / norm.sf(2.0)
        assert draws.mean() == pytest.approx(mean + sigma * lam, rel=0.01)


class TestTruncnormSampler:
    @pytest.mark.parametrize("z_bound", [-2.0, 0.0, 2.0, 6.0])
    def test_ks_against_analytic_cdf(self, z_bound, rng):
        mu, sigma = 1.0, 2.0
        bound = mu + z_bound * sigma
        draws = sample_truncnorm_lower(np.full(100_000, mu), sigma, bound, rng)
        assert np.all(draws > bound)

        def cdf(x):
            tail = norm.sf(z_bound)
            return np.clip((norm.cdf((x - mu) / sigma) - norm.cdf(z_bound)) / tail,
                           0.0, 1.0)
        stat = kstest(draws, cdf).statistic
        assert stat < 0.02, f"KS={stat:.4f} at bound {z_bound} sigma"

    def test_far_tail_is_finite_and_fast(self, rng):
        draws = sample_truncnorm_lower(np.zeros(10_000), 1.0, 12.0, rng)
        assert np.all(np.isfinite(draws))
        assert np.all(draws > 12.0)


class TestResidualDensity:
    def test_single_component_normal(self):
        state = make_state([1.0, 0.0], [0.4, 0.0], sigma_sq=2.25)
        w = np.linspace(-4, 5, 9)
        assert np.allclose(residual_density(w, state),
                           norm.pdf(w, 0.4, 1.5), atol=1e-14)

    def test_integrates_to_one(self):
        state = make_state([0.3, 0.5, 0.2], [-1.0, 0.2, 1.1], sigma_sq=0.49)
        grid = np.linspace(-12, 12, 20001)
        mass = np.trapezoid(residual_density(grid, state), grid)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_symmetric_state_symmetric_density(self):
        state = make_state([0.5, 0.5], [-0.8, 0.8], sigma_sq=1.0)
        w = np.linspace(0.1, 3.0, 30)
        assert np.allclose(residual_density(w, state), residual_density(-w, state),
                           rtol=0, atol=1e-15)


class TestDispersionLaw:
    """Exact moments of the weighted centered atom dispersion.

    The centered weighted sum has exact mean M/(M+1) (not 1: the centering
    correction subtracts E[mu_G*^2]/sigma_tau^2 = 1/(M+1)), and its variance
    sits a little below 2/(M+1).
    """

    @pytest.mark.parametrize("M", [25.0, 50.0])
    def test_exact_mean_and_variance_envelope(self, M):
        draws = dp_dispersion_draws(M, 500, 50_000, np.random.default_rng(31))
        se = draws.std() / math.sqrt(draws.shape[0])
        assert draws.mean() == pytest.approx(M / (M + 1.0), abs=4 * se)
        ratio = draws.var() / (2.0 / (M + 1.0))
        assert 0.8 < ratio < 1.0

    def test_variance_audit_matches_calibration_target(self):
        # simulate Var(W) from the full prior and compare the calibrated
        # quantile: the approximating factor should put ~q mass below
        hyper = CdpHyper(sigma_tau_sq=None)
        st2 = calibrate_scale(1.0, hyper)
        hyper2 = CdpHyper(sigma_tau_sq=st2)
        var_draws = simulate_residual_variance(hyper2, 50_000,
                                               np.random.default_rng(10))
        frac = float(np.mean(var_draws <= 1.0))
        assert 0.42 <= frac <= 0.58


class TestStateInvariants:
    def test_full_sweep_keeps_invariants(self, rng):
        hyper = CdpHyper(H=12, sigma_tau_sq=0.8)
        n = 40
        state = init_state(n, hyper, 1.0)
        r = rng.normal(0, 1, n)
        for _ in range(300):
            update_cluster_labels(state, r, rng)
            update_stick_weights(state, rng)
            update_cluster_locations(state, r, hyper, rng)
            update_mass_and_scale(state, r, hyper, rng)
            state.check_invariants()

    def test_check_invariants_catches_violation(self):
        state = make_state([0.6, 0.4], [1.0, 1.0], n=2)
        with pytest.raises(NumericError, match="mean-zero"):
            state.check_invariants()

    def test_init_state_shape(self):
        hyper = CdpHyper(H=10, sigma_tau_sq=1.0)
        state = init_state(7, hyper, 2.0)
        state.check_invariants()
        assert state.M == pytest.approx(20.0)
        assert state.sigma_sq == pytest.approx(2.0)
        assert state.occupied == 1
        assert state.max_occupied_index == 1
