"""Mean-constrained mixture model for the residual distribution.

The residual density is a location mixture of Gaussians whose mixing
distribution follows a truncated stick-breaking construction with ``H``
components: ``V_h ~ Beta(1, M)`` for h < H, ``V_H = 1``, weights
``pi_h = V_h prod_{k<h}(1 - V_k)``. Raw atoms ``tau*_h`` are drawn around a
Normal(0, sigma_tau^2) base; the reported atoms are recentered,
``tau_h = tau*_h - sum_h pi_h tau*_h``, which pins the mixture mean at zero.

``calibrate_scale`` picks sigma_tau^2 so that the prior on the residual
variance puts probability ``q`` below a rough variance estimate, using the
approximation that the weighted atom dispersion behaves like a
Normal(1, 2/(M+1)) factor on top of the inverse-chi-square kernel variance.

Censored responses are imputed each sweep from lower-truncated normals; the
sampler switches from inverse-CDF to an exponential-proposal rejection step
when the bound sits more than five kernel scales above the mean, so heavy
censoring cannot stall the chain.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import stdnorm as norm
from .errors import ConfigError, NumericError

TAIL_SWITCH = 5.0  # standardized bound beyond which the tail sampler takes over
STICK_CLAMP = 1.0 - 1e-12


@dataclass
class CdpHyper:
    """Hyperparameters of the residual mixture."""

    psi1: float = 2.0          # Gamma shape for the mass parameter
    psi2: float = 0.1          # Gamma rate for the mass parameter
    nu: float = 3.0            # inverse-chi-square degrees of freedom
    q: float = 0.5             # calibration quantile
    H: int = 50                # truncation level
    sigma_tau_sq: float | None = None  # base-measure variance (= kappa), set by calibration

    def __post_init__(self):
        if self.psi1 <= 0 or self.psi2 <= 0:
            raise ConfigError("psi1 and psi2 must be positive")
        if self.nu <= 0:
            raise ConfigError("nu must be positive")
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"q must be in (0, 1), got {self.q}")
        if self.H < 2:
            raise ConfigError(f"H must be >= 2, got {self.H}")
        if self.sigma_tau_sq is not None and self.sigma_tau_sq <= 0:
            raise ConfigError("sigma_tau_sq must be positive")

    @property
    def kappa(self) -> float:
        if self.sigma_tau_sq is None:
            raise ConfigError("sigma_tau_sq is unset; run calibrate_scale first")
        return self.sigma_tau_sq


def _weights_from_sticks(V: np.ndarray) -> np.ndarray:
    """Stick-breaking weights with the last stick forced to 1.

    The last weight is the complement of the others, then ulp-level
    corrections force the stored weights to sum to 1.0 exactly under
    numpy's (pairwise) summation.
    """
    H = V.shape[0]
    pi = np.empty(H)
    pi[0] = V[0]
    if H > 1:
        pi[1:] = V[1:] * np.cumprod(1.0 - V[:-1])
    pi[-1] = max(0.0, 1.0 - pi[:-1].sum())
    defect = pi.sum() - 1.0
    if defect == 0.0:
        return pi
    j = int(np.argmax(pi))
    pi[j] = max(0.0, pi[j] - defect)
    if pi.sum() == 1.0:
        return pi
    # adjusting the largest weight moves the rounded total in jumps that can
    # straddle 1.0; single-ulp steps on a mid-scale weight move it through
    # every representable value near 1.0, so exact equality is reachable
    order = np.argsort(np.abs(np.log2(np.maximum(pi, 1e-300)) + 6.0))
    for j in order[:4]:
        j = int(j)
        original = pi[j]
        for _ in range(8192):
            defect = pi.sum() - 1.0
            if defect == 0.0:
                return pi
            stepped = np.nextafter(pi[j], -np.inf if defect > 0 else np.inf)
            if stepped < 0.0:
                break
            pi[j] = stepped
        pi[j] = original
    raise NumericError("stick-breaking weights failed to normalize exactly")


@dataclass
class CdpState:
    """Mutable mixture state carried across Gibbs sweeps."""

    V: np.ndarray          # stick fractions, V[H-1] == 1
    pi: np.ndarray         # weights, sums to 1 exactly
    tau_star: np.ndarray   # raw atoms
    mu_gstar: float        # weighted raw-atom mean
    tau: np.ndarray        # centered atoms
    M: float               # mass parameter
    sigma_sq: float        # kernel variance
    S: np.ndarray          # cluster labels, int32 in [0, H)
    n_h: np.ndarray        # cluster counts

    @property
    def H(self) -> int:
        return self.pi.shape[0]

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma_sq)

    @property
    def occupied(self) -> int:
        return int(np.count_nonzero(self.n_h))

    @property
    def max_occupied_index(self) -> int:
        """1-based index of the highest occupied component (0 when empty)."""
        nz = np.nonzero(self.n_h)[0]
        return int(nz[-1]) + 1 if nz.size else 0

    def check_invariants(self, tol: float = 1e-10) -> None:
        if self.pi.sum() != 1.0:
            raise NumericError("mixture weights do not sum to 1 exactly")
        if np.any(self.pi < 0):
            raise NumericError("negative mixture weight")
        mean = float(self.pi @ self.tau)
        if abs(mean) >= tol:
            raise NumericError(f"mixture mean-zero constraint violated: {mean:.3e}")
        if self.sigma_sq <= 0 or self.M <= 0:
            raise NumericError("sigma_sq and M must stay positive")
        counts = np.bincount(self.S, minlength=self.H)
        if not np.array_equal(counts, self.n_h):
            raise NumericError("cluster counts out of sync with labels")


def init_state(n: int, hyper: CdpHyper, sigma_w_hat: float) -> CdpState:
    """Deterministic starting state: one occupied cluster, atoms at zero,
    sticks at their prior mean, kernel variance at half the rough estimate."""
    M = hyper.psi1 / hyper.psi2
    V = np.full(hyper.H, 1.0 / (1.0 + M))
    V[-1] = 1.0
    pi = _weights_from_sticks(V)
    tau_star = np.zeros(hyper.H)
    S = np.zeros(n, dtype=np.int32)
    n_h = np.bincount(S, minlength=hyper.H)
    return CdpState(V=V, pi=pi, tau_star=tau_star, mu_gstar=0.0,
                    tau=np.zeros(hyper.H), M=M,
                    sigma_sq=sigma_w_hat ** 2 / 2.0, S=S, n_h=n_h)


# -- prior calibration ------------------------------------------------------

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


def calibrate_scale(sigma_w_hat: float, hyper: CdpHyper,
                    mc_draws: int = 1_000_000,
                    rng: np.random.Generator | None = None) -> float:
    """Base-measure variance solving P{Var(W) <= sigma_w_hat^2} = q.

    The bracketed factor is simulated ``mc_draws`` times; nonpositive draws
    (possible through the normal component's lower tail) are discarded with
    a warning, and more than 10% discarded is an error.
    """
    if sigma_w_hat <= 0:
        raise ConfigError(f"sigma_w_hat must be positive, got {sigma_w_hat}")
    if rng is None:
        rng = np.random.default_rng(0)
    factor = variance_factor_draws(hyper, int(mc_draws), rng)
    keep = factor > 0
    n_bad = int(factor.shape[0] - keep.sum())
    if n_bad:
        frac = n_bad / factor.shape[0]
        if frac > 0.10:
            raise NumericError(
                f"{frac:.1%} of variance-factor draws were nonpositive; "
                "calibration approximation breaks down for these hyperparameters")
        warnings.warn(f"discarded {n_bad} nonpositive variance-factor draws "
                      f"({frac:.2%})", RuntimeWarning)
        factor = factor[keep]
    quant = float(np.quantile(factor, hyper.q))
    return sigma_w_hat ** 2 / quant


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


# -- blocked Gibbs updates ---------------------------------------------------

def update_cluster_labels(state: CdpState, centered_residuals: np.ndarray,
                          rng: np.random.Generator) -> CdpState:
    """Resample labels with P(S_i = h) proportional to
    pi_h * phi((r_i - tau_h)/sigma), computed in log space.

    The work array is component-major, ``(H, n)``, and every pass runs in
    place over it, so each reduction over the H components is H contiguous
    vector operations of length n rather than n short inner loops. The
    result is bit-identical to the row-major formula

        w = exp(logw - logw.max(1)); w /= w.sum(1)
        S = (u[:, None] > cumsum(w, 1)).sum(1)

    because every elementwise step is the same, ``max`` is exact, the
    cumulative rows add the components one at a time in the order ``cumsum``
    does, counting the rows below ``u`` gives the same count, and
    ``_pairwise_rows`` adds the normaliser's H terms in the order numpy's
    pairwise ``sum`` uses for a contiguous row. Keeping that summation order,
    and the one ``rng.random(n)`` call, keeps ``draws.npz`` byte-identical.
    """
    r = np.asarray(centered_residuals)
    with np.errstate(divide="ignore"):
        logpi = np.log(state.pi)[:, None]
    d = np.subtract(r[None, :], state.tau[:, None])
    np.square(d, out=d)
    d /= 2.0 * state.sigma_sq
    np.subtract(logpi, d, out=d)
    d -= d.max(axis=0)
    np.exp(d, out=d)
    d /= _pairwise_rows(d)
    u = rng.random(r.shape[0])
    for h in range(1, state.H):
        np.add(d[h - 1], d[h], out=d[h])
    S = np.greater(u, d).sum(axis=0, dtype=np.int32)
    np.clip(S, 0, state.H - 1, out=S)
    state.S = S
    state.n_h = np.bincount(S, minlength=state.H)
    return state


def _pairwise_rows(w: np.ndarray) -> np.ndarray:
    """Column sums of ``w`` (k, n), adding the k terms of each column in the
    order numpy's pairwise summation adds a contiguous length-k row: left to
    right below 8 terms; up to 128 terms, eight running sums over the first
    ``k - k % 8`` terms combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``,
    then the rest; above 128, the two halves split at a multiple of 8."""
    k = w.shape[0]
    if k < 8:
        res = w[0].copy()
        for row in w[1:]:
            res += row
        return res
    if k <= 128:
        r = w[:8].copy()
        stop = k - k % 8
        for i in range(8, stop, 8):
            r += w[i:i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        res = r[0] + r[1]
        for row in w[stop:]:
            res += row
        return res
    half = k // 2 - (k // 2) % 8
    return _pairwise_rows(w[:half]) + _pairwise_rows(w[half:])


def update_stick_weights(state: CdpState, rng: np.random.Generator) -> CdpState:
    """V_h ~ Beta(1 + n_h, M + sum_{k>h} n_k) for h < H, V_H = 1."""
    H = state.H
    tail = np.concatenate((np.cumsum(state.n_h[::-1])[::-1][1:], [0.0]))
    a = 1.0 + state.n_h[:-1]
    b = state.M + tail[:-1]
    V = np.empty(H)
    V[:-1] = rng.beta(a, b)
    V[-1] = 1.0
    state.V = V
    state.pi = _weights_from_sticks(V)
    return state


def update_cluster_locations(state: CdpState, centered_residuals: np.ndarray,
                             hyper: CdpHyper, rng: np.random.Generator) -> CdpState:
    """Conjugate raw-atom draws followed by recentering."""
    r = np.asarray(centered_residuals)
    st2 = hyper.kappa
    sums = np.bincount(state.S, weights=r, minlength=state.H)
    denom = state.n_h * st2 + state.sigma_sq
    mean = st2 * sums / denom
    sd = np.sqrt(st2 * state.sigma_sq / denom)
    state.tau_star = mean + sd * rng.standard_normal(state.H)
    state.mu_gstar = float(state.pi @ state.tau_star)
    state.tau = state.tau_star - state.mu_gstar
    return state


def update_mass_and_scale(state: CdpState, centered_residuals: np.ndarray,
                          hyper: CdpHyper, rng: np.random.Generator) -> CdpState:
    """Gamma update for the mass parameter, inverse-gamma for the kernel variance."""
    shape, rate = mass_posterior_params(state, hyper)
    state.M = float(rng.gamma(shape, 1.0 / rate))
    shape, scale = scale_posterior_params(state, centered_residuals, hyper)
    state.sigma_sq = scale / float(rng.gamma(shape, 1.0))
    return state


def mass_posterior_params(state: CdpState, hyper: CdpHyper) -> tuple[float, float]:
    """(shape, rate) of the mass-parameter update given current sticks."""
    V = np.minimum(state.V[:-1], STICK_CLAMP)
    return hyper.psi1 + state.H - 1, hyper.psi2 - float(np.sum(np.log1p(-V)))


def scale_posterior_params(state: CdpState, centered_residuals: np.ndarray,
                           hyper: CdpHyper) -> tuple[float, float]:
    """(shape, scale) of the inverse-gamma kernel-variance update."""
    r = np.asarray(centered_residuals)
    dev = r - state.tau[state.S]
    return 0.5 * (hyper.nu + r.shape[0]), 0.5 * (float(dev @ dev) + hyper.kappa * hyper.nu)


# -- truncated-normal sampling ----------------------------------------------

def sample_truncnorm_lower(mean, sd, lower, rng: np.random.Generator) -> np.ndarray:
    """Draws of Normal(mean, sd^2) conditioned on exceeding ``lower``.

    Inverse-CDF for moderate truncation; for standardized bounds above
    TAIL_SWITCH, a shifted-exponential proposal with the classic optimal
    rate, so extreme bounds still return finite draws.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    a = (np.asarray(lower, dtype=float) - mean) / sd
    a = np.atleast_1d(a)
    out = np.empty(a.shape[0])
    easy = a <= TAIL_SWITCH
    if easy.any():
        ae = a[easy]
        lo = norm.cdf(ae)
        u = lo + (1.0 - lo) * rng.random(ae.shape[0])
        # u can round to 1.0 when the bound is far left; ppf stays finite
        out[easy] = norm.ppf(np.minimum(u, 1.0 - 1e-16))
    hard = ~easy
    if hard.any():
        ah = a[hard]
        draws = np.empty(ah.shape[0])
        pending = np.arange(ah.shape[0])
        alpha = 0.5 * (ah + np.sqrt(ah * ah + 4.0))
        while pending.size:
            z = ah[pending] + rng.exponential(1.0, pending.size) / alpha[pending]
            accept = rng.random(pending.size) <= np.exp(-0.5 * (z - alpha[pending]) ** 2)
            draws[pending[accept]] = z[accept]
            pending = pending[~accept]
        out[hard] = draws
    res = mean + sd * np.reshape(out, np.shape(a))
    # the affine map back can round onto/below the bound; keep draws strictly above
    floor = np.nextafter(np.broadcast_to(np.asarray(lower, dtype=float), res.shape), np.inf)
    return np.maximum(res, floor)


def impute_censored(state: CdpState, m_values: np.ndarray, delta: np.ndarray,
                    log_y_tr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Complete log responses: observed rows pass through, censored rows get
    truncated-normal draws above their censoring bound."""
    out = np.array(log_y_tr, dtype=float, copy=True)
    cens = np.asarray(delta) == 0
    if cens.any():
        mean = np.asarray(m_values)[cens] + state.tau[state.S[cens]]
        out[cens] = sample_truncnorm_lower(mean, state.sigma, log_y_tr[cens], rng)
    return out


def residual_density(w, state: CdpState) -> np.ndarray:
    """Mixture density (1/sigma) sum_h pi_h phi((w - tau_h)/sigma)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    z = (w[:, None] - state.tau[None, :]) / state.sigma
    dens = (state.pi[None, :] * norm.pdf(z)).sum(axis=1) / state.sigma
    return dens if dens.shape[0] > 1 else dens[0]
