"""Standard normal density, distribution and quantile functions.

The same formulas and ``scipy.special`` kernels that ``scipy.stats.norm``
evaluates, without importing ``scipy.stats``, whose import takes nearly as
long as everything else the package loads. Each function returns the bits
``norm`` returns for location 0 and scale 1, at finite values, at +-inf and
at the quantile boundaries 0 and 1.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

_SQRT_2PI = np.sqrt(2 * np.pi)
_LOG_SQRT_2PI = np.log(_SQRT_2PI)


def pdf(x):
    return np.exp(-np.asarray(x, dtype=float) ** 2 / 2.0) / _SQRT_2PI


def logpdf(x):
    return -np.asarray(x, dtype=float) ** 2 / 2.0 - _LOG_SQRT_2PI


def cdf(x):
    return ndtr(x)


def logsf(x):
    x = np.asarray(x, dtype=float)
    out = np.asarray(log_ndtr(-x))
    out[x == -np.inf] = 0.0  # norm.logsf's value there; log_ndtr(inf) is -0.0
    return out[()]


def ppf(q):
    # norm.ppf adds its location 0, which maps -0.0 to 0.0
    return ndtri(q) + 0.0
