"""The frontier solve against ``solve_lp``, which stays its reference.

Every frontier program (nominal, directional distance, the extreme-point
test, and the nominal program on a sigma-corner) is written straight into
its simplex tableau by ``dataset._frontier_tableau`` and solved by
``dataset._frontier_solve``.  Here each tableau the package hands to the
kernel must equal, byte for byte, the one ``solve_lp`` builds from the
same program written out as a ``LinearProgram`` (with the corner made as
the box transform makes it), and the solve's (z*, lam*, duals) must equal
the bits read back from ``solve_lp``'s solution.
"""

import numpy as np
import pytest

import udea
import udea.dataset
import udea.lp
from conftest import DATA_DIR
from helpers import (clamp_dataset, random_dataset, table1_dataset,
                     table1_plus_g)
from udea._kernels import simplex_core
from udea.cli import RunConfig, _robust_scores, apply_scaling, ingest_csv
from udea.dataset import (SCORE_TOL, DeaDataset, _frontier_solve,
                          build_envelopment_lp, is_extreme, solve_nominal)
from udea.facets import enumerate_efficient_facets, exact_udea
from udea.iterative import iterative_udea
from udea.lp import LEQ, LinearProgram, solve_lp
from udea.robust import (UncertaintyConfig, _directional_optimum,
                         directional_distance, robust_efficiency,
                         transform_box)

PRESETS = {"case_study_s11_p0.csv": "radiotherapy",
           "case_study_s3_p4.csv": "radiotherapy"}


def _data_files():
    files = sorted(DATA_DIR.glob("*.csv"))
    assert len(files) == 5
    return [apply_scaling(ingest_csv(path),
                          RunConfig(mode="nominal",
                                    preset=PRESETS.get(path.name)))
            for path in files]


def _zero_input_dataset():
    """Rivals with a zero input, so the eps floor binds on rival inputs
    once eps exceeds sigma."""
    return DeaDataset(names=list("abcde"),
                      X=[[2.0, 0.0, 3.0, 1.5, 0.0], [1.0, 2.5, 0.0, 2.0, 3.0]],
                      Y=[[3.0, 1.0, 2.0, 0.2, 4.0]])


def _reference_corner(ds, i, sigma, eps):
    """The box corner of unit ``i`` as the box transform makes it: inputs
    x + sigma, outputs y - sigma, the unit's own the other way, then the
    floors (eps on inputs, 0 on outputs) when sigma > 0; environmental
    outputs untouched.  Also whether a floor moved a cell."""
    X = ds.X + sigma
    X[:, i] = ds.X[:, i] - sigma
    Y = ds.Y - sigma
    Y[:, i] = ds.Y[:, i] + sigma
    Y[ds.env_outputs, :] = ds.Y[ds.env_outputs, :]
    floored = sigma > 0 and bool((X < eps).any() or (Y < 0.0).any())
    if sigma > 0:
        np.maximum(X, eps, out=X)
        np.maximum(Y, 0.0, out=Y)
    return X, Y, floored


def _reference_lp(X, Y, i, z_col, extreme=False):
    """The frontier program of unit ``i`` over (lam, z), lam_i eliminated,
    as a ``LinearProgram``: rows -(Y - y_i) lam + z_y z <= 0,
    (X - x_i) lam + z_x z <= 0, sum_{k != i} lam_k <= 1; min -z.  The
    extreme-point test drops z, puts SCORE_TOL * x_i on the input
    right-hand sides and minimises minus the convexity row."""
    m, n_units = Y.shape
    rows = m + X.shape[0] + 1
    A = np.zeros((rows, n_units + 1))
    A[:m, :n_units] = Y[:, i:i + 1] - Y
    A[m:-1, :n_units] = X - X[:, i:i + 1]
    A[-1, :n_units] = 1.0
    A[-1, i] = 0.0
    A[:-1, -1] = z_col
    c = np.zeros(n_units + 1)
    c[-1] = -1.0
    b = np.zeros(rows)
    b[-1] = 1.0
    if extreme:
        A[:, -1] = 0.0
        b[m:-1] = SCORE_TOL * X[:, i]
        c = -A[-1]
    return LinearProgram(c, A, [LEQ] * rows, b)


def _reference_solve(monkeypatch, lp, i):
    """The tableau ``solve_lp`` hands to the kernel for ``lp``, and
    (z*, lam*, duals) read back from its solution: lam_i as one minus the
    other weights, negatives set to 0, the sum rescaled to 1."""
    tableaus = []

    def record(T, *args):
        tableaus.append(T.copy())
        return simplex_core(T, *args)
    monkeypatch.setattr(udea.lp, "simplex_core", record)
    sol = solve_lp(lp)
    monkeypatch.undo()
    assert sol.optimal and len(tableaus) == 1
    lam = sol.x[:-1]
    lam[i] = 1.0 - lam.sum()
    np.maximum(lam, 0.0, out=lam)
    lam /= lam.sum()
    return tableaus[0], (float(sol.x[-1]), lam, sol.duals)


def _bits(optimum):
    z, lam, duals = optimum
    return z.hex(), lam.tobytes(), duals.tobytes()


class _Recorder:
    """Every tableau the package's frontier solve hands to the kernel."""

    def __init__(self, monkeypatch):
        self.tableaus = []
        monkeypatch.setattr(udea.dataset, "simplex_core", self._record)

    def _record(self, T, *args):
        self.tableaus.append(T.copy())
        return simplex_core(T, *args)

    def take(self):
        taken, self.tableaus = self.tableaus, []
        return taken


def _check(monkeypatch, recorder, lp, i, optimum=None):
    """The one tableau recorded since the last check is ``solve_lp``'s
    for ``lp``, and solving it gives ``solve_lp``'s read-back bits (and
    ``optimum``'s, where the package returned one)."""
    (T,) = recorder.take()
    with monkeypatch.context() as mp:
        want_T, want = _reference_solve(mp, lp, i)
    assert T.tobytes() == want_T.tobytes()
    assert _bits(_frontier_solve(T.copy(), i)) == _bits(want)
    recorder.take()  # that solve's own tableau
    if optimum is not None:
        assert _bits(optimum) == _bits(want)
    return want


def _sigmas(ds, i):
    """sigma = 0, grid points, and the largest grid point at which the
    unit's own inputs still exceed sigma (where the zero floor binds on
    the outputs of rivals that produce little)."""
    top = np.floor(0.5 * ds.X[:, i].min() / 0.01 - 1) * 0.01
    return sorted({0.0, 0.05, 0.3, max(top, 0.0)})


def test_frontier_tableaus_are_solve_lps(monkeypatch, rng):
    datasets = _data_files() + [table1_dataset(), table1_plus_g(),
                                clamp_dataset(), _zero_input_dataset()]
    datasets += [random_dataset(rng, max_units=10, lo=0.01)
                 for _ in range(8)]
    recorder = _Recorder(monkeypatch)
    corners = floored = 0
    for ds in datasets:
        for i in range(ds.n_units):
            X, Y = ds.X, ds.Y
            # nominal
            res = solve_nominal(ds, i)
            want = _check(monkeypatch, recorder,
                          _reference_lp(X, Y, i, np.r_[np.zeros(len(Y)),
                                                       X[:, i]]), i)
            assert res.theta == 1.0 - want[0]
            assert res.lam.tobytes() == want[1].tobytes()
            # directional distance
            g = np.r_[np.where(ds.env_outputs, 0.0, 1.0), np.ones(len(X))]
            _check(monkeypatch, recorder, _reference_lp(X, Y, i, g), i,
                   _directional_optimum(ds, i))
            # the extreme-point test
            extreme = is_extreme(ds, i)
            want = _check(monkeypatch, recorder,
                          _reference_lp(X, Y, i, 0.0, extreme=True), i)
            assert extreme == (want[1][i] > udea.lp.DEFAULT_TOL)
            # the nominal program on sigma-corners
            for sigma, eps in [(s, 1e-9) for s in _sigmas(ds, i)] + [
                    (0.05, 0.2)]:
                res = robust_efficiency(ds, i, sigma, eps)
                Xc, Yc, floors = _reference_corner(ds, i, sigma, eps)
                if sigma > 0 and Xc[:, i].min() <= sigma:
                    # the floor rule scores it without a solve
                    assert recorder.take() == []
                    continue
                corners += 1
                floored += floors
                z_col = np.r_[np.zeros(len(Yc)), Xc[:, i]]
                want = _check(monkeypatch, recorder,
                              _reference_lp(Xc, Yc, i, z_col), i)
                assert res.theta == 1.0 - want[0]
                assert res.lam.tobytes() == want[1].tobytes()
    # corners at 0, on the grid, and with floors binding were all covered
    assert corners > 500 and floored > 50


def test_envelopment_lp_is_the_nominal_tableau(monkeypatch, rng):
    # build_envelopment_lp is a LinearProgram view of the nominal tableau
    for ds in _data_files() + [random_dataset(rng) for _ in range(4)]:
        for i in range(ds.n_units):
            lp = build_envelopment_lp(ds, i)
            ref = _reference_lp(ds.X, ds.Y, i,
                                np.r_[np.zeros(ds.n_outputs), ds.X[:, i]])
            for got, want in ((lp.c, ref.c), (lp.A, ref.A), (lp.b, ref.b),
                              (lp.lb, ref.lb)):
                assert got.tobytes() == want.tobytes()
            assert lp.senses == ref.senses


def test_package_solves_without_solve_lp(monkeypatch):
    # no path of the package goes through solve_lp any more
    def refuse(*args, **kwargs):
        raise AssertionError("solve_lp called")
    for module in (udea, udea.lp):
        monkeypatch.setattr(module, "solve_lp", refuse)
    ds = _data_files()[0]
    cfg = UncertaintyConfig(nu=3.6, step=0.01)
    facet_set = enumerate_efficient_facets(ds)
    for i in range(ds.n_units):
        solve_nominal(ds, i)
        iterative_udea(ds, i, cfg)
        exact_udea(ds, i, nu=cfg.nu, facet_set=facet_set)
        _robust_scores(ds, i, [0.0, 0.5, 1.0])
        directional_distance(ds, i)


ENTRIES = {
    "solve_nominal": lambda ds, i: solve_nominal(ds, i),
    "robust_efficiency": lambda ds, i: robust_efficiency(ds, i, 0.5),
    "directional_distance": lambda ds, i: directional_distance(ds, i),
    "iterative_udea": lambda ds, i: iterative_udea(ds, i),
    "exact_udea": lambda ds, i: exact_udea(ds, i),
    "is_extreme": lambda ds, i: is_extreme(ds, i),
    "transform_box": lambda ds, i: transform_box(ds, i, 0.5),
    "build_envelopment_lp": lambda ds, i: build_envelopment_lp(ds, i),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_unit_index_checked_at_every_entry(table1, entry):
    call = ENTRIES[entry]
    for bad in (-1, table1.n_units):
        with pytest.raises(IndexError, match="out of range"):
            call(table1, bad)
    # a float is not an index, even one that truncates to a unit
    with pytest.raises(TypeError, match="must be an integer"):
        call(table1, 2.7)
    # numpy integers are indices
    call(table1, np.int64(2))


def test_negative_zero_right_hand_side_reads_as_solve_lps(monkeypatch):
    # a -0.0 right-hand side is a valid start (x = 0 meets it); z enters
    # on it and stays basic at -0.0, which solve_lp reads back as
    # lb + (-0.0) = +0.0, and so must the frontier solve
    ds = table1_dataset()
    lp = _reference_lp(ds.X, ds.Y, 0, np.r_[0.0, ds.X[:, 0]])
    lp.b[1] = -0.0
    T, want = _reference_solve(monkeypatch, lp, 0)
    assert np.signbit(T[1, -1])
    assert _bits(_frontier_solve(T, 0)) == _bits(want)
    assert want[0].hex() == "0x0.0p+0"
