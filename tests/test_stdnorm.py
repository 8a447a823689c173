import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

import npaft
from npaft import stdnorm

X = np.concatenate([np.linspace(-40.0, 40.0, 20001),
                    [0.0, -0.0, 1e-300, -1e-300, 8.3, -8.3, 38.5, -38.5, 1e300, -1e300,
                     np.inf, -np.inf, 2.5]])
Q = np.concatenate([np.linspace(0.0, 1.0, 20001),
                    [0.0, 1.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, np.nextafter(1.0, 0.0)]])
SPECIAL = 7  # the last entries of X (+-inf among them) and Q, also checked as scalars


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("name,args", [("pdf", X), ("logpdf", X), ("cdf", X),
                                       ("logsf", X), ("ppf", Q)])
def test_matches_scipy_norm_bit_for_bit(name, args):
    ours, theirs = getattr(stdnorm, name), getattr(norm, name)
    with np.errstate(over="ignore"):
        assert same_bits(ours(args), theirs(args))
        assert same_bits(ours(args.reshape(-1, 2)[:7]), theirs(args.reshape(-1, 2)[:7]))
        for v in args[-SPECIAL:]:
            got, want = ours(v), theirs(v)
            assert type(got) is type(want)
            assert same_bits(got, want), (v, got, want)


def test_import_does_not_load_scipy_stats():
    code = "import sys, npaft; print('scipy.stats' in sys.modules)"
    src = os.path.dirname(os.path.dirname(npaft.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"
