"""Hot kernels for operator assembly.

The dominant cost outside LAPACK is evaluating kernel families on all grid
pairs (M * N^2 evaluations).  Those loops are JIT-compiled with numba when it
is available; setting the environment variable ``NCLP_NUMBA=0`` forces the
pure-numpy broadcasting path (same math, vectorized).  ``backend_name()``
reports which path is active.
"""
from __future__ import annotations

import os

import numpy as np

_WANT_NUMBA = os.environ.get("NCLP_NUMBA", "1") != "0"
_HAS_NUMBA = False
if _WANT_NUMBA:
    try:
        from numba import njit
        _HAS_NUMBA = True
    except ImportError:  # pragma: no cover - numba is a declared dependency
        _HAS_NUMBA = False


def backend_name() -> str:
    return "numba" if _HAS_NUMBA else "numpy"


def _bump(t: np.ndarray | float):
    """Odd, mean-zero, Lipschitz bump supported on [-1, 1]."""
    a = np.abs(t)
    return np.where(a < 1.0, t * (1.0 - t * t) ** 2, 0.0)


def torus_diff_1d(N: int) -> np.ndarray:
    """Signed torus differences x_i - y_j between cell midpoints, in
    [-0.5, 0.5)."""
    i = np.arange(N)
    diff = (i[:, None] - i[None, :]) / N
    return (diff + 0.5) % 1.0 - 0.5


# -- pure numpy paths -------------------------------------------------------

def _lp_bumps_numpy(diff: np.ndarray, M: int) -> np.ndarray:
    out = np.empty((M,) + diff.shape)
    for m in range(1, M + 1):
        scale = 2.0 ** m
        out[m - 1] = scale * _bump(scale * diff)
    return out


def _hilbert_numpy(diff: np.ndarray, cutoff: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        vals = np.where(diff != 0.0, 1.0 / np.where(diff == 0.0, 1.0, diff), 0.0)
    vals = np.where(np.abs(diff) > cutoff, 0.0, vals)
    return vals[None, :, :]


# -- numba paths ------------------------------------------------------------

if _HAS_NUMBA:

    @njit(cache=True)
    def _lp_bumps_numba(diff, M):  # pragma: no cover - exercised via wrapper
        n0, n1 = diff.shape
        out = np.zeros((M, n0, n1))
        for m in range(1, M + 1):
            scale = 2.0 ** m
            for i in range(n0):
                for j in range(n1):
                    t = scale * diff[i, j]
                    if -1.0 < t < 1.0:
                        u = 1.0 - t * t
                        out[m - 1, i, j] = scale * t * u * u
        return out

    @njit(cache=True)
    def _hilbert_numba(diff, cutoff):  # pragma: no cover
        n0, n1 = diff.shape
        out = np.zeros((1, n0, n1))
        for i in range(n0):
            for j in range(n1):
                t = diff[i, j]
                if t != 0.0 and abs(t) <= cutoff:
                    out[0, i, j] = 1.0 / t
        return out


def lp_bumps_components(diff: np.ndarray, M: int) -> np.ndarray:
    """k_m(x, y) = 2^m * bump(2^m (x - y)) for m = 1..M (values only, no
    quadrature weight)."""
    if _HAS_NUMBA:
        return _lp_bumps_numba(np.ascontiguousarray(diff), M)
    return _lp_bumps_numpy(diff, M)


def hilbert_component(diff: np.ndarray, cutoff: float) -> np.ndarray:
    """Truncated odd kernel 1/(x - y) on |x - y| <= cutoff (n = 1)."""
    if _HAS_NUMBA:
        return _hilbert_numba(np.ascontiguousarray(diff), cutoff)
    return _hilbert_numpy(diff, cutoff)
