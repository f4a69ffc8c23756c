"""Self-contained dense linear-programming engine.

Two-phase simplex on a dense tableau with Bland's rule.  Problems here are
small and frequently degenerate (many efficiency solves share a facet), so
anti-cycling matters more than pivot speed heuristics.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import ITERATION_LIMIT, OPTIMAL, UNBOUNDED, simplex_core

DEFAULT_TOL = 1e-9

LEQ = "<="
GEQ = ">="
EQ = "="

_SENSES = (LEQ, GEQ, EQ)


class MalformedProgramError(ValueError):
    """Raised when a LinearProgram fails its shape or finiteness checks."""


class SolverFault(RuntimeError):
    """Raised when the simplex loop gives up (iteration limit)."""


@dataclass
class LinearProgram:
    """min c'x  s.t.  A x {<=,>=,=} b,  x >= lb."""

    c: np.ndarray
    A: np.ndarray
    senses: list
    b: np.ndarray
    lb: np.ndarray = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        self.senses = list(self.senses)
        n = self.c.shape[0]
        m = self.A.shape[0]
        if self.A.shape != (m, n):
            raise MalformedProgramError(
                f"constraint matrix is {self.A.shape}, expected ({m}, {n})"
            )
        if len(self.senses) != m or self.b.shape != (m,):
            raise MalformedProgramError("row count mismatch between A, senses and b")
        for s in self.senses:
            if s not in _SENSES:
                raise MalformedProgramError(f"unknown row sense {s!r}")
        if self.lb is None:
            self.lb = np.zeros(n)
        else:
            self.lb = np.asarray(self.lb, dtype=float)
        if self.lb.shape != (n,):
            raise MalformedProgramError("bound length mismatch")
        for arr in (self.c, self.A, self.b, self.lb):
            if not np.all(np.isfinite(arr)):
                raise MalformedProgramError("non-finite entry in program data")


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float = np.nan
    x: np.ndarray = None

    @property
    def optimal(self):
        return self.status == "optimal"


def solve_lp(lp: LinearProgram, tol: float = DEFAULT_TOL,
             max_iter: int = 100_000) -> LpSolution:
    """Solve ``lp``, returning a basic optimal solution when one exists.

    Deterministic for a fixed input: Bland's rule breaks all pivot ties by
    lowest index.
    """
    n0 = lp.c.shape[0]
    m = lp.A.shape[0]

    # shift out lower bounds (x = lb + x', x' >= 0), then make b >= 0
    A = lp.A.copy()
    b = lp.b - A @ lp.lb
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    flip = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}
    senses = [flip[s] if f else s for s, f in zip(lp.senses, neg)]

    # column layout: originals, slacks/surpluses, artificials
    n_slack = sum(1 for s in senses if s != EQ)
    art_rows = [i for i, s in enumerate(senses) if s != LEQ]
    n_art = len(art_rows)
    n_total = n0 + n_slack + n_art

    T = np.zeros((m + 1, n_total + 1))
    T[:m, :n0] = A
    T[:m, n_total] = b
    basis = np.full(m, -1, dtype=np.int64)
    col = n0
    for i, s in enumerate(senses):
        if s == LEQ:
            T[i, col] = 1.0
            basis[i] = col
            col += 1
        elif s == GEQ:
            T[i, col] = -1.0
            col += 1
    art_start = col
    for i in art_rows:
        T[i, col] = 1.0
        basis[i] = col
        col += 1

    allowed = np.ones(n_total, dtype=np.bool_)

    if n_art:
        # phase 1: minimise the artificial sum
        T[m, art_start:n_total] = 1.0
        for i in art_rows:
            T[m, :] -= T[i, :]
        status = simplex_core(T, basis, allowed, tol, max_iter)
        if status == ITERATION_LIMIT:
            raise SolverFault("simplex iteration limit reached in phase 1")
        if -T[m, n_total] > tol * max(1.0, np.abs(b).max()):
            return LpSolution(status="infeasible")
        # drive remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= art_start:
                piv = -1
                for j in range(art_start):
                    if abs(T[i, j]) > tol:
                        piv = j
                        break
                if piv >= 0:
                    p = T[i, piv]
                    T[i, :] /= p
                    for r in range(m + 1):
                        if r != i and T[r, piv] != 0.0:
                            T[r, :] -= T[r, piv] * T[i, :]
                    basis[i] = piv
                # else: redundant row, artificial stays basic at zero
        allowed[art_start:] = False

    # phase 2 cost row rebuilt from the original objective
    T[m, :] = 0.0
    T[m, :n0] = lp.c
    for i in range(m):
        cb = lp.c[basis[i]] if basis[i] < n0 else 0.0
        if cb != 0.0:
            T[m, :] -= cb * T[i, :]
    status = simplex_core(T, basis, allowed, tol, max_iter)
    if status == ITERATION_LIMIT:
        raise SolverFault("simplex iteration limit reached in phase 2")
    if status == UNBOUNDED:
        return LpSolution(status="unbounded")
    assert status == OPTIMAL

    x_std = np.zeros(n_total)
    x_std[basis] = T[:m, n_total]
    x = lp.lb + x_std[:n0]
    return LpSolution(status="optimal", objective=float(lp.c @ x), x=x)
