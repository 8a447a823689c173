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
The factor's quantile comes from quadrature over its closed-form CDF, so the
calibration draws no random numbers and depends only on the hyperparameters
and the variance estimate.

Censored responses are imputed each sweep from lower-truncated normals; the
sampler switches from inverse-CDF to an exponential-proposal rejection step
when the bound sits more than five kernel scales above the mean, so heavy
censoring cannot stall the chain.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, chdtri, gammaincinv, ndtr, ndtri

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


# -- root finding -----------------------------------------------------------

def brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
           rtol: float = 4 * 2.0 ** -52, maxiter: int = 100) -> float:
    """Root of ``f`` in ``[a, b]`` by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``Zeros/brentq.c`` (BSD-3-Clause,
    Charles Harris): for the same inputs and finite function values it makes
    the same float operations in the same order, so it returns the same
    float as ``scipy.optimize.brentq``. The loop keeps the root bracketed by
    ``xcur`` and ``xblk`` with ``|f(xcur)| <= |f(xblk)|``, and tries inverse
    quadratic extrapolation (or secant interpolation, once the bracket has
    reversed) before falling back to bisection. Raises ``NumericError`` on a
    bracket without a sign change, a non-finite function value, or when
    ``maxiter`` iterations do not converge.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if not math.isfinite(fx):
            raise NumericError(f"root finding: f({x!r}) = {fx}")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericError(f"root finding: f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's quotient is then inf or nan: bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NumericError(f"root finding failed to converge in {maxiter} iterations")


# -- prior calibration ------------------------------------------------------

# Gauss-Legendre nodes per panel of Y's probability scale, and over M's (see
# ``variance_factor_cdf``). Doubling both from 8 x 16, 32 x 64 is the first
# pair whose calibrated scale moves by less than 2e-5 relative on the next
# doubling at the defaults, at q = 0.01, 0.9, 0.99 and 0.999, at nu = 0.5
# and 100, at psi2 = 0.001, and at nu = 10 with psi1 = psi2 = 1. Its error
# against a 512 x 1024 rule is then at most 1.4e-5 there: far below the 7e-4
# relative sd of a 10^6-draw Monte Carlo quantile at the defaults.
CAL_PANEL_NODES = 32
CAL_MASS_NODES = 64
CAL_WINDOW = 6.0  # kernel sds either side of the integrand's step


def variance_factor_cdf(hyper: CdpHyper) -> Callable[[float], float]:
    """CDF of the approximate residual-variance factor ``F = Y + 1 + s Z``,
    with ``Y = nu/C``, ``C ~ chi2_nu``, ``s^2 = 2/(M+1)``,
    ``M ~ Gamma(psi1, psi2)`` and Z standard normal:
    ``P(F <= t) = E[Phi((t - 1 - Y) / s)]``.

    Gauss-Legendre rules integrate over the probability scales of M and Y,
    mapped through their quantile functions. The integrand steps from 1 to
    0 around ``Y = t - 1`` over a few s, which is narrow on Y's probability
    scale when t is far in Y's tail, so that scale is cut into six panels
    at ``t - 1`` and at ``t - 1 +- CAL_WINDOW s`` for the smallest and the
    largest s, each with its own rule.
    """
    x, wx = np.polynomial.legendre.leggauss(CAL_PANEL_NODES)
    v, wv = np.polynomial.legendre.leggauss(CAL_MASS_NODES)
    nu = hyper.nu
    sd = np.sqrt(2.0 / (gammaincinv(hyper.psi1, (v + 1.0) / 2.0) / hyper.psi2 + 1.0))
    offsets = CAL_WINDOW * np.array([-sd.max(), -sd.min(), 0.0, sd.min(), sd.max()])

    # a cut at y <= 0 sits at probability 0, and an empty panel at 0 or 1
    # maps to Y = 0 or inf with weight 0
    @np.errstate(divide="ignore")
    def cdf(t: float) -> float:
        cuts = chdtrc(nu, nu / np.maximum(t - 1.0 + offsets, 0.0))  # P(Y <= y)
        edges = np.concatenate(([0.0], cuts, [1.0]))
        half = np.diff(edges)[:, None] / 2.0
        y = nu / chdtri(nu, (edges[:-1, None] + half * (x + 1.0)).ravel())
        wy = (half * wx).ravel()
        return float(wy @ ndtr((t - 1.0 - y)[:, None] / sd) @ wv) / 2.0
    return cdf


def calibrate_scale(sigma_w_hat: float, hyper: CdpHyper) -> float:
    """Base-measure variance solving P{Var(W) <= sigma_w_hat^2} = q: the
    squared rough scale over the factor's q-quantile among its positive
    values, the root of ``CDF(t) = p0 + q (1 - p0)`` with ``p0 = CDF(0)``.
    More than 10% of the factor's mass at or below zero is an error."""
    if sigma_w_hat <= 0:
        raise ConfigError(f"sigma_w_hat must be positive, got {sigma_w_hat}")
    cdf = variance_factor_cdf(hyper)
    p0 = cdf(0.0)
    if p0 > 0.10:
        raise NumericError(
            f"{p0:.1%} of the variance factor's mass is nonpositive; "
            "calibration approximation breaks down for these hyperparameters")
    target = p0 + hyper.q * (1.0 - p0)
    hi = 1.0
    while cdf(hi) < target:
        if hi > 1e300:
            raise NumericError(f"the variance factor's {hyper.q} quantile is out of "
                               "reach of the calibration quadrature")
        hi *= 2.0
    return sigma_w_hat ** 2 / brentq(lambda t: cdf(t) - target, 0.0, hi)


# -- blocked Gibbs updates ---------------------------------------------------

def update_cluster_labels(state: CdpState, centered_residuals: np.ndarray,
                          rng: np.random.Generator) -> CdpState:
    """Resample labels with P(S_i = h) proportional to
    pi_h * phi((r_i - tau_h)/sigma), computed in log space.

    The work array is component-major, ``(H, n)``, and every pass runs in
    place over it, so each reduction over the H components is H contiguous
    vector operations of length n rather than n short inner loops. The
    weights are not normalised: the label counts the cumulative weights
    C_0..C_{H-2} below ``u * Z``, where Z = C_{H-1}. That is the same draw
    as comparing ``u`` with C_h / Z, as P(C_{h-1} < u Z <= C_h) = w_h / Z,
    and from the same single ``rng.random(n)`` call it gives the labels of
    ``S = (u[:, None] > cumsum(w / w.sum(1), 1)).sum(1)`` unless rounding
    puts ``u`` within a few ulps of a cumulative weight.
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
    for h in range(1, state.H):
        np.add(d[h - 1], d[h], out=d[h])
    u = rng.random(r.shape[0]) * d[-1]
    state.S = np.greater(u, d[:-1]).sum(axis=0, dtype=np.int32)
    state.n_h = np.bincount(state.S, minlength=state.H)
    return state


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
        lo = ndtr(ae)
        u = lo + (1.0 - lo) * rng.random(ae.shape[0])
        # u can round to 1.0 when the bound is far left; ndtri stays finite
        out[easy] = ndtri(np.minimum(u, 1.0 - 1e-16))
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
    truncated-normal draws above their censoring bound. The censored rows
    are gathered and scattered by index, in row order: a boolean mask takes
    the same rows, but about ten times slower at n = 20,000."""
    out = np.array(log_y_tr, dtype=float, copy=True)
    cens = np.flatnonzero(np.asarray(delta) == 0)
    if cens.size:
        mean = np.asarray(m_values).take(cens) + state.tau.take(state.S.take(cens))
        out[cens] = sample_truncnorm_lower(mean, state.sigma, out.take(cens), rng)
    return out
