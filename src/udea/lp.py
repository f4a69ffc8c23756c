"""General dense linear programs and their one-phase simplex solve.

``solve_lp`` solves a ``LinearProgram`` on a dense tableau ``[A | I | b]``,
started from the slack basis at x = lb; the pivot rule is
``_kernels._simplex_core``'s.  The package's own frontier programs do not
come through here: ``dataset._frontier_tableau`` writes their tableau in
this same layout straight from the data, and ``dataset._frontier_run``
runs the kernel on it.  ``solve_lp`` remains for programs a caller builds,
``dataset.build_envelopment_lp`` among them, and as the reference that
the tests hold the frontier solve to.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import ITERATION_LIMIT, OPTIMAL, UNBOUNDED, simplex_core

DEFAULT_TOL = 1e-9
# pivot budget of one solve; the lexicographic rule cannot cycle, so only
# a far larger program than the package builds could exhaust it
MAX_PIVOTS = 100_000

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
    """min c'x  s.t.  A x {<=,>=,=} b,  x >= lb.

    ``solve_lp`` takes the program only when x = lb satisfies every row
    and no row is an equality.
    """

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
    """An optimal status carries ``x`` and ``duals``, the reduced costs of
    the row slacks: one multiplier per row in ``<=`` form (``>=`` rows
    negated), y >= 0 with c + A'y >= 0 up to the pivot tolerance, and
    c'x = c'lb - y'(b - A lb)."""

    status: str  # "optimal" | "unbounded"
    objective: float = np.nan
    x: np.ndarray = None
    duals: np.ndarray = None

    @property
    def optimal(self):
        return self.status == "optimal"


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` from its feasible vertex x = lb.

    ``>=`` rows are negated to ``<=``; an ``=`` row, or a row that x = lb
    violates, raises ``MalformedProgramError``.  The status is "optimal",
    with a basic optimal solution, or "unbounded".  Deterministic for a
    fixed input, as the pivot rule (``_kernels._simplex_core``, at
    tolerance ``DEFAULT_TOL``) keeps no state between kernel calls.
    ``SolverFault`` is raised after ``MAX_PIVOTS`` pivots.
    """
    n0 = lp.c.shape[0]
    m = lp.A.shape[0]
    if EQ in lp.senses:
        raise MalformedProgramError("solve_lp takes no equality rows")
    # shift out lower bounds (x = lb + x', x' >= 0), rows to <= form
    A = lp.A
    b = lp.b - A @ lp.lb
    if GEQ in lp.senses:
        sign = np.where(np.array(lp.senses) == GEQ, -1.0, 1.0)
        A = sign[:, None] * A
        b = sign * b
    if (b < 0).any():
        raise MalformedProgramError("x = lb violates a row: no start vertex")

    # tableau [A | I | b] over [c | 0 | 0]; the slack basis is x' = 0
    T = np.zeros((m + 1, n0 + m + 1))
    T[:m, :n0] = A
    basis = np.arange(n0, n0 + m, dtype=np.int64)
    T[np.arange(m), basis] = 1.0
    T[:m, -1] = b
    T[m, :n0] = lp.c
    allowed = np.ones(n0 + m, dtype=np.bool_)
    status = simplex_core(T, basis, allowed, DEFAULT_TOL, MAX_PIVOTS)
    if status == ITERATION_LIMIT:
        raise SolverFault("simplex iteration limit reached")
    if status == UNBOUNDED:
        return LpSolution(status="unbounded")
    assert status == OPTIMAL

    x_std = np.zeros(n0 + m)
    x_std[basis] = T[:m, -1]
    x = lp.lb + x_std[:n0]
    return LpSolution(status="optimal", objective=float(lp.c @ x), x=x,
                      duals=T[m, n0:n0 + m].copy())
