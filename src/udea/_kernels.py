"""Dense simplex tableau kernels.

The pivot loop is the hot path of every efficiency solve, so it is compiled
with numba when available.  A pure-numpy build of the same source is kept as
a fallback and can be forced with ``UDEA_BACKEND=numpy``; set
``UDEA_BACKEND=numba`` to fail loudly when numba is missing.  Unset or
empty picks numba when it is installed; any other value is an error.

The pivot rule is written out at ``_simplex_core``.

Each pivot is a fixed handful of array calls, so the numpy build does not
pay per-element Python work: the entering column is one ``argmin`` over
the reduced costs (a second one, over the costs with the disallowed
columns masked to inf, runs only when the first picks a disallowed
column), the ratio test is a sequential loop over the ``m`` rows (it
keeps the exact tie-break order), and the row update is one rank-1
update of the whole tableau, every row included, after which the divided
pivot row is written back.  Only calls numba's nopython mode supports
are used, so both backends run the same source and the same
floating-point operations.
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
    """Run simplex iterations on tableau ``T`` in place: Dantzig pricing
    with a lexicographic ratio test.

    ``T`` is ``(m+1, n+1)``: ``m`` constraint rows, a reduced-cost row at the
    bottom and the right-hand side in the last column.  The ``m`` columns
    just before the right-hand side must start as the identity (the slack
    block of ``[A | I | b]``, as ``solve_lp`` builds it), so that they hold
    B^-1 at every basis.  ``basis[i]`` is the column basic in row ``i``;
    ``allowed`` masks columns eligible to enter (``solve_lp`` allows every
    column).  Returns ``OPTIMAL``, ``UNBOUNDED`` or ``ITERATION_LIMIT``
    after ``max_iter`` pivots.  The rule keeps no state between calls,
    so a run stepped with ``max_iter=1`` until it stops ends exactly as
    one call.

    Per pivot: the entering column is the allowed one with the most
    negative reduced cost (the first on ties), and the run stops when that
    cost is not below ``-tol``.  It is read from one ``argmin`` over all
    the reduced costs: when that first minimum is allowed, it is also the
    first allowed minimum (for finite costs).  Only when it is masked are
    the costs taken again with 0 added on allowed columns and inf on
    masked ones, and their first minimum enters.
    The leaving row comes from the sequential ratio test.  Rows whose
    ratios tie within 1e-12 are ordered lexicographically by their slack
    block divided by their entry in the entering column,
    ``T[i, n-m:n] / T[i, enter]``, and then by the lowest basic index.
    As the rows of B^-1 are independent, the lexicographic order has no
    ties in exact arithmetic, and the reduced-cost row rises
    lexicographically at every pivot, so no basis repeats and the loop
    ends (Dantzig, Orden & Wolfe 1955).

    The pivot row is divided by the pivot, ``f * row`` is subtracted from
    every row with entry ``f`` in the entering column as one rank-1 update
    of the whole tableau, and the divided row then replaces the pivot row.
    Every cell gets one multiply and one subtract, rows with ``f == 0``
    included: that can flip only the sign of a zero cell, which no
    pivot decision reads.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    cost = T[m, :n]
    rhs = T[:m, n]
    for _ in range(max_iter):
        enter = cost.argmin()
        if not allowed[enter]:
            # the first minimum is masked: the first allowed one enters
            enter = np.argmin(cost + np.where(allowed, 0.0, np.inf))
        if not (allowed[enter] and cost[enter] < -tol):
            return OPTIMAL
        col = T[:m, enter]
        leave = -1
        best = np.inf
        for i in range(m):
            a = col[i]
            if a > tol:
                # degenerate pivots leave round-off negatives (~-1e-12) in
                # basic right-hand sides; as strict minima they would
                # override the tie-break, so read them as 0
                r = rhs[i]
                if r < 0.0:
                    r = 0.0
                r = r / a
                if r < best - 1e-12:
                    best = r
                    leave = i
                elif r <= best + 1e-12 and leave >= 0:
                    # tie on the ratio: the lexicographically smaller row
                    # of B^-1 / a leaves, then the lowest basic index
                    b = col[leave]
                    k = n - m
                    while k < n and T[i, k] / a == T[leave, k] / b:
                        k += 1
                    if k < n:
                        if T[i, k] / a < T[leave, k] / b:
                            leave = i
                    elif basis[i] < basis[leave]:
                        leave = i
        if leave == -1:
            return UNBOUNDED
        prow = T[leave] / T[leave, enter]
        # the product is a new array: the column is read before T changes
        T -= T[:, enter][:, None] * prow
        T[leave, :] = prow
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
    if choice:
        raise ValueError(f"unknown UDEA_BACKEND value: {choice!r}")
    if HAVE_NUMBA:
        return "numba", simplex_core_numba
    return "numpy", simplex_core_numpy


BACKEND, simplex_core = _select_backend()
