"""Dense simplex tableau kernels.

The pivot loop is the hot path of every efficiency solve, so it is compiled
with numba when available.  A pure-numpy build of the same source is kept as
a fallback and can be forced with ``UDEA_BACKEND=numpy``; set
``UDEA_BACKEND=numba`` to fail loudly when numba is missing.
"""

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    njit = None
    HAVE_NUMBA = False

# status codes returned by the core loop
OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2


def _simplex_core(T, basis, allowed, tol, max_iter):
    """Run Bland-rule simplex iterations on tableau ``T`` in place.

    ``T`` is ``(m+1, n+1)``: ``m`` constraint rows, a reduced-cost row at the
    bottom and the right-hand side in the last column.  ``basis[i]`` is the
    column basic in row ``i``; ``allowed`` masks columns eligible to enter
    (``solve_lp`` allows every column).
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    for _ in range(max_iter):
        enter = -1
        for j in range(n):
            if allowed[j] and T[m, j] < -tol:
                enter = j
                break
        if enter == -1:
            return OPTIMAL
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > tol:
                # degenerate pivots leave round-off negatives (~-1e-12) in
                # basic right-hand sides; as strict minima they would break
                # Bland's tie-break and let the loop cycle, so read them as 0
                rhs = T[i, n]
                if rhs < 0.0:
                    rhs = 0.0
                r = rhs / a
                if r < best - 1e-12:
                    best = r
                    leave = i
                elif r <= best + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    # tie on the ratio: Bland picks the lowest basic index
                    leave = i
        if leave == -1:
            return UNBOUNDED
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(m + 1):
            if i != leave:
                f = T[i, enter]
                if f != 0.0:
                    T[i, :] -= f * T[leave, :]
        basis[leave] = enter
    return ITERATION_LIMIT


simplex_core_numpy = _simplex_core

if HAVE_NUMBA:
    simplex_core_numba = njit(cache=True)(_simplex_core)
else:
    simplex_core_numba = None


def _select_backend():
    choice = os.environ.get("UDEA_BACKEND", "").strip().lower()
    if choice == "numpy":
        return "numpy", simplex_core_numpy
    if choice == "numba":
        if not HAVE_NUMBA:
            raise ImportError("UDEA_BACKEND=numba but numba is not installed")
        return "numba", simplex_core_numba
    if choice not in ("", "auto"):
        raise ValueError(f"unknown UDEA_BACKEND value: {choice!r}")
    if HAVE_NUMBA:
        return "numba", simplex_core_numba
    return "numpy", simplex_core_numpy


BACKEND, simplex_core = _select_backend()
