"""The dense simplex tableau kernel.

The pivot loop is the hot path of every efficiency solve.  Its rule is
written out at ``_simplex_core``.

Each pivot is a fixed handful of array calls: the entering column is one
``argmin`` over the reduced costs (a second one, over the costs with the
disallowed columns masked to inf, runs only when the first picks a
disallowed column), the ratio test is a sequential loop over the ``m``
rows (it keeps the exact tie-break order), and the row update is one
matrix product (BLAS) of the entering column by the divided pivot row,
subtracted from the whole tableau, after which the divided row is
written back.  Each product is ``f * p`` rounded once, except that a
zero factor gives +0.0, so the update differs from an element-by-element
one only in the sign of a zero cell.

The ratio test is the one per-element loop.  It reads Python floats, not
numpy scalars: the entering column and the right-hand side by one
``tolist()`` each per pivot, and the two tied rows of the slack block by
one each per tie.  They are the same IEEE doubles, so every comparison
and division decides as on the array, bit for bit; only a ratio that
overflows reads ``inf`` without numpy's ``RuntimeWarning``, and decides
the same way.
"""

import math

import numpy as np

# the one kernel is numpy's; these names remain for the benchmark, which
# records them
BACKEND = "numpy"
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
    block of ``[A | I | b]``, as ``dataset._frontier_tableau`` and
    ``lp.solve_lp`` build it), so that they hold B^-1 at every basis.
    ``basis[i]`` is the column basic in row ``i``; ``allowed`` masks
    columns eligible to enter (both callers allow every column).  Returns
    ``OPTIMAL``, ``UNBOUNDED`` or ``ITERATION_LIMIT`` after ``max_iter``
    pivots.  The rule keeps no state between calls, so a run stepped with
    ``max_iter=1`` until it stops ends exactly as one call.

    Per pivot: the entering column is the allowed one with the most
    negative reduced cost (the first on ties), and the run stops when that
    cost is not below ``-tol``.  It is read from one ``argmin`` over all
    the reduced costs: when that first minimum is allowed, it is also the
    first allowed minimum (for finite costs).  Only when it is masked are
    the costs taken again with 0 added on allowed columns and inf on
    masked ones, and their first minimum enters.
    The leaving row comes from the sequential ratio test, on the entering
    column and the right-hand side read as Python floats.  Rows whose
    ratios tie within 1e-12 are ordered lexicographically by their slack
    block divided by their entry in the entering column,
    ``T[i, n-m:n] / T[i, enter]``, and then by the lowest basic index.
    As the rows of B^-1 are independent, the lexicographic order has no
    ties in exact arithmetic, and the reduced-cost row rises
    lexicographically at every pivot, so no basis repeats and the loop
    ends (Dantzig, Orden & Wolfe 1955).  A tie reads the two rows' slack
    blocks as Python floats too, which decide as numpy scalars would (see
    the module docstring).

    The pivot row is divided by the pivot (its Python float), and
    ``f * row`` is subtracted from every row with entry ``f`` in the
    entering column: the products are one matrix product (BLAS ``gemm``)
    of the column by the row, subtracted from the whole tableau, and the
    divided row then replaces the pivot row.  With one inner term each
    product is ``f * p`` rounded once, except that a zero factor gives
    +0.0 whatever the other factor's sign.  Every cell gets one product
    and one subtract, rows with ``f == 0`` included: that can flip only
    the sign of a zero cell, which no pivot decision reads.
    """
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    cost = T[m, :n]
    for _ in range(max_iter):
        enter = cost.argmin()
        if not allowed[enter]:
            # the first minimum is masked: the first allowed one enters
            enter = np.argmin(cost + np.where(allowed, 0.0, np.inf))
        if not (allowed[enter] and cost[enter] < -tol):
            return OPTIMAL
        # Python floats: the same doubles, without a numpy scalar per read
        col = T[:m, enter].tolist()
        rhs = T[:m, n].tolist()
        leave = -1
        best = math.inf
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
                    u = T[i, n - m:n].tolist()
                    v = T[leave, n - m:n].tolist()
                    k = 0
                    while k < m and u[k] / a == v[k] / b:
                        k += 1
                    if k < m:
                        if u[k] / a < v[k] / b:
                            leave = i
                    elif basis[i] < basis[leave]:
                        leave = i
        if leave == -1:
            return UNBOUNDED
        prow = T[leave:leave + 1] / col[leave]
        # the product is a new array: the column is read before T changes
        T -= np.dot(T[:, enter:enter + 1], prow)
        T[leave] = prow
        basis[leave] = enter
    return ITERATION_LIMIT


# ``simplex_core`` is the name ``udea.lp`` and ``udea.dataset`` each bind
# and call; the benchmark's tracing swaps only ``udea.lp``'s, and the
# benchmark's own tests (perfbench/tests) read ``simplex_core_numpy``
simplex_core = simplex_core_numpy = _simplex_core
