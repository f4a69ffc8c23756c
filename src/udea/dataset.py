"""Data model and the nominal input-oriented variable-returns efficiency model.

A dataset holds I units, an N x I input matrix and an M x I output matrix.
The nominal score of unit ``i`` is the optimal value of

    min theta  s.t.  Y lam >= y_i,  X lam <= theta x_i,  sum(lam) = 1, lam >= 0

which is always feasible (the unit is its own peer) and bounded in (0, 1].
It is solved with lam_i eliminated and z = 1 - theta, so that the simplex
starts at the unit itself (``_frontier_lp``), and its weights are read back
onto the simplex (``_frontier_optimum``).
"""

from dataclasses import dataclass, field

import numpy as np

from .lp import DEFAULT_TOL, LEQ, LinearProgram, SolverFault, solve_lp

SCORE_TOL = 1e-6
PEER_TOL = 1e-6


@dataclass
class DeaDataset:
    """Named units with nonnegative input/output matrices.

    ``env_outputs`` flags output rows that are environmental: they enter the
    output constraints unchanged but are exempt from uncertainty transforms.
    Variable names are unique across inputs and outputs, so a name picks
    out one row.
    """

    names: list
    X: np.ndarray  # N x I
    Y: np.ndarray  # M x I
    env_outputs: np.ndarray = None  # bool, length M
    input_names: list = None
    output_names: list = None

    def __post_init__(self):
        self.names = list(self.names)
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        n, i_x = self.X.shape
        m, i_y = self.Y.shape
        if i_x != i_y or i_x != len(self.names):
            raise ValueError("inconsistent unit counts across names, X and Y")
        if i_x == 0:
            raise ValueError("dataset must contain at least one unit")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate unit names")
        for mat, what in ((self.X, "input"), (self.Y, "output")):
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"non-finite {what} value")
            if np.any(mat < 0):
                raise ValueError(f"negative {what} value")
        if np.any(self.X.sum(axis=0) <= 0):
            raise ValueError("every unit needs at least one positive input")
        if self.env_outputs is None:
            self.env_outputs = np.zeros(m, dtype=bool)
        else:
            self.env_outputs = np.asarray(self.env_outputs, dtype=bool)
            if self.env_outputs.shape != (m,):
                raise ValueError("env_outputs length mismatch")
        if self.input_names is None:
            self.input_names = [f"in{k + 1}" for k in range(n)]
        if self.output_names is None:
            self.output_names = [f"out{k + 1}" for k in range(m)]
        if len(self.input_names) != n or len(self.output_names) != m:
            raise ValueError("variable name length mismatch")
        variables = self.variable_names()
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")

    @property
    def n_units(self):
        return len(self.names)

    @property
    def n_inputs(self):
        return self.X.shape[0]

    @property
    def n_outputs(self):
        return self.Y.shape[0]

    def variable_names(self):
        return list(self.input_names) + list(self.output_names)


@dataclass
class EfficiencyResult:
    """Score, weights and constraint diagnostics for one unit."""

    dmu: int
    theta: float
    lam: np.ndarray
    input_slacks: np.ndarray
    output_slacks: np.ndarray
    peers: list = field(default_factory=list)
    binding_inputs: list = field(default_factory=list)

    @property
    def efficient(self):
        return _efficient(self.theta)


def _efficient(theta) -> bool:
    """The one efficiency test: a score within ``SCORE_TOL`` of 1."""
    return theta >= 1.0 - SCORE_TOL


def build_envelopment_lp(ds: DeaDataset, dmu: int) -> LinearProgram:
    """Assemble the envelopment program for unit ``dmu`` in the frontier
    form of ``_frontier_lp``, with z = 1 - theta.

    Variables are (lam_1..lam_I, z); rows are M output rows, N input rows
    and the convexity row, all ``<=``.  The z column is 0 on outputs and
    x_i on inputs, so an input row reads X lam <= theta x_i, and the
    objective -z is theta - 1.
    """
    i = _check_index(ds, dmu)
    return _frontier_lp(ds, i, np.concatenate([np.zeros(ds.n_outputs),
                                               ds.X[:, i]]))


def _frontier_lp(ds: DeaDataset, i: int, z_col) -> LinearProgram:
    """The block every frontier program shares, over (lam_1..lam_I, z),
    written with lam_i = 1 - sum_{k != i} lam_k substituted:

        min -z  s.t.  -(Y - y_i) lam + z_y z <= 0,
                       (X - x_i) lam + z_x z <= 0,
                       sum_{k != i} lam_k   <= 1,   lam, z >= 0

    where ``z_col`` = (z_y, z_x) is the z column, output rows first.
    Column i is all zero, so lam_i stays 0 and is read back as one minus
    the other weights.  x = 0 is the unit itself (lam = e_i), which every
    row admits, so the simplex starts there.
    """
    n_units, m = ds.n_units, ds.n_outputs
    A = np.zeros((m + ds.n_inputs + 1, n_units + 1))
    A[:m, :n_units] = ds.Y[:, i:i + 1] - ds.Y
    A[m:-1, :n_units] = ds.X - ds.X[:, i:i + 1]
    A[-1, :n_units] = 1.0
    A[-1, i] = 0.0
    A[:-1, -1] = z_col
    c = np.zeros(n_units + 1)
    c[-1] = -1.0
    b = np.zeros(m + ds.n_inputs + 1)
    b[-1] = 1.0
    # float, finite and shaped by construction from a validated dataset,
    # so the program skips LinearProgram.__post_init__
    lp = LinearProgram.__new__(LinearProgram)
    vars(lp).update(c=c, A=A, senses=[LEQ] * b.size, b=b,
                    lb=np.zeros(n_units + 1))
    return lp


def _frontier_optimum(ds: DeaDataset, i: int, lp: LinearProgram):
    """``(z*, lam*, duals)`` of a program of unit ``i`` in ``_frontier_lp``'s
    layout.  ``lam*`` is a point of the simplex: ``lam_i`` is one minus the
    other weights, round-off negatives are set to 0 and the sum rescaled
    to 1.  ``duals`` are the rows' multipliers (``LpSolution.duals``):
    output rows, input rows, then the convexity row."""
    sol = solve_lp(lp)
    if not sol.optimal:
        # feasible at x = 0, and bounded by the convexity and input rows
        raise SolverFault(f"frontier program of unit {i} ended {sol.status}")
    lam = sol.x[:ds.n_units]
    lam[i] = 1.0 - lam.sum()
    np.maximum(lam, 0.0, out=lam)
    lam /= lam.sum()
    return float(sol.x[-1]), lam, sol.duals


def solve_nominal(ds: DeaDataset, dmu: int) -> EfficiencyResult:
    """Nominal efficiency score of unit ``dmu`` with slack and peer analysis."""
    i = _check_index(ds, dmu)
    z, lam, _ = _frontier_optimum(ds, i, build_envelopment_lp(ds, i))
    return _result(ds, i, lam, 1.0 - z)


def _result(ds: DeaDataset, i: int, lam, theta) -> EfficiencyResult:
    """Score ``theta`` of unit ``i`` at weights ``lam``, with the slacks,
    peers and binding inputs read from them."""
    # slacks recomputed from lam so they are basis-independent
    output_slacks = ds.Y @ lam - ds.Y[:, i]
    input_slacks = theta * ds.X[:, i] - ds.X @ lam
    peers = (lam > PEER_TOL).nonzero()[0].tolist()
    binding = (np.abs(input_slacks) <= 1e-7).nonzero()[0].tolist()
    return EfficiencyResult(dmu=i, theta=float(theta), lam=lam,
                            input_slacks=input_slacks,
                            output_slacks=output_slacks,
                            peers=peers, binding_inputs=binding)


def solve_all(ds: DeaDataset) -> list:
    return [solve_nominal(ds, i) for i in range(ds.n_units)]


def is_extreme(ds: DeaDataset, dmu: int) -> bool:
    """True iff unit ``dmu`` is an extreme point of the production set.

    Operational test: can the other units radially reproduce ``dmu`` at
    its own input level, within ``SCORE_TOL`` (lam_i = 0 and theta <=
    1 + SCORE_TOL)?  On the envelopment rows without z and with input
    right-hand side ``SCORE_TOL * x_i``, maximise the other units' weight
    sum(lam) = 1 - lam_i.  It reaches 1 exactly when they can, so the unit
    is extreme iff its own weight lam_i stays above ``DEFAULT_TOL``.
    """
    i = _check_index(ds, dmu)
    lp = build_envelopment_lp(ds, i)
    lp.A[:, -1] = 0.0
    lp.b[ds.n_outputs:-1] = SCORE_TOL * ds.X[:, i]
    lp.c = -lp.A[-1]
    return bool(_frontier_optimum(ds, i, lp)[1][i] > DEFAULT_TOL)


def scale_dataset(ds: DeaDataset, factors) -> DeaDataset:
    """Multiply each variable row by its positive factor.

    Efficiency scores are invariant to this (units invariance of the
    variable-returns model); it is how raw data are brought to the common
    percent scale that makes one uncertainty half-width meaningful.
    """
    factors = np.asarray(factors, dtype=float)
    n, m = ds.n_inputs, ds.n_outputs
    if factors.shape != (n + m,):
        raise ValueError(f"expected {n + m} factors, got {factors.shape}")
    if np.any(factors <= 0) or not np.all(np.isfinite(factors)):
        raise ValueError("scale factors must be positive and finite")
    return DeaDataset(
        names=list(ds.names),
        X=ds.X * factors[:n, None],
        Y=ds.Y * factors[n:, None],
        env_outputs=ds.env_outputs.copy(),
        input_names=list(ds.input_names),
        output_names=list(ds.output_names),
    )


def _check_index(ds: DeaDataset, dmu: int) -> int:
    i = int(dmu)
    if not 0 <= i < ds.n_units:
        raise IndexError(f"unit index {dmu} out of range for {ds.n_units} units")
    return i
