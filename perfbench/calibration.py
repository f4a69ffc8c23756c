"""A fixed slice of calibration work, timed between the units of a pass.

This host's speed drifts by up to a third over minutes and switches
between a fast and a slow state for seconds at a time, because other
machines' work shares its cores.  Slices run in the same interpreter as
the pass, interleaved with its units, so they see the same state; the pass
time divided by the mean slice time (``wall_rel``) cancels most of the
drift.  In a four-minute trial on this host, pass time and the time of a
calibration run after it correlated at 0.73, and 30-second medians of
their ratio varied by +-3% where those of the pass time varied by +-8%.

The work resembles the package's hot path (a dense Bland-rule simplex
loop on small tableaus, in numpy) but is this file's own frozen copy: a
change to the package must never change the calibration.
"""

import time

import numpy as np

ROWS, COLS, TABLEAUS = 5, 60, 150


def _tableaus():
    rng = np.random.default_rng(0)
    out = []
    for _ in range(TABLEAUS):
        T = np.zeros((ROWS + 1, COLS + ROWS + 1))
        T[:ROWS, :COLS] = rng.uniform(0.1, 1.0, (ROWS, COLS))
        T[:ROWS, COLS:COLS + ROWS] = np.eye(ROWS)
        T[:ROWS, -1] = rng.uniform(1.0, 2.0, ROWS)
        T[ROWS, :COLS] = -rng.uniform(0.1, 1.0, COLS)
        out.append(T)
    return out


def _simplex(T, basis, tol=1e-9):
    m = T.shape[0] - 1
    n = T.shape[1] - 1
    while True:
        enter = -1
        for j in range(n):
            if T[m, j] < -tol:
                enter = j
                break
        if enter == -1:
            return
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > tol:
                r = T[i, n] / a
                if r < best - 1e-12:
                    best = r
                    leave = i
        if leave == -1:
            return
        T[leave, :] /= T[leave, enter]
        for i in range(m + 1):
            if i != leave:
                f = T[i, enter]
                if f != 0.0:
                    T[i, :] -= f * T[leave, :]
        basis[leave] = enter


def run():
    """Seconds taken by one slice (about 0.05 s on this host)."""
    tableaus = _tableaus()
    start = time.perf_counter()
    for T in tableaus:
        _simplex(T, np.arange(COLS, COLS + ROWS))
    return time.perf_counter() - start
