"""The simplex kernel against its scalar reference, and against HiGHS.

Each bit-for-bit case runs ``helpers.scalar_simplex_core``, an
element-by-element loop of the same rule (Dantzig pricing, lexicographic
ratio-test tie-break), and the package kernel on copies of one tableau,
and requires the same status, basis and tableau bytes, so even the sign
of a zero counts.  The reference forms each product of the row update as
the kernel's BLAS matrix product does (``helpers.blas_product``); one
test checks that model against ``np.dot`` itself, so a BLAS that forms
them otherwise fails there first.  The optimality cases do not depend on
the pivoting rule: every ending must be optimal or unbounded as scipy's
HiGHS sees the same program.
"""

import numpy as np
import pytest

import udea.dataset
from conftest import DATA_DIR
from helpers import (blas_product, clamp_dataset, random_dataset,
                     scalar_simplex_core, table1_dataset, table1_plus_g)
from udea._kernels import ITERATION_LIMIT, OPTIMAL, UNBOUNDED, simplex_core
from udea.cli import RunConfig, apply_scaling, ingest_csv
from udea.dataset import is_extreme
from udea.lp import LEQ, LinearProgram, solve_lp
from udea.robust import directional_distance, robust_efficiency

TOL = 1e-9


def _run(core, T, basis, allowed, max_iter=100_000):
    T, basis = T.copy(), basis.copy()
    status = core(T, basis, allowed, TOL, max_iter)
    return status, basis.tolist(), T.tobytes()


def _assert_same(T, basis, allowed, max_iter=100_000):
    """The kernel ends as the scalar loop does; returns the status."""
    want = _run(scalar_simplex_core, T, basis, allowed, max_iter)
    assert _run(simplex_core, T, basis, allowed, max_iter) == want
    return want[0]


def _stepped(T, basis, allowed):
    """The kernel run one pivot per call until it stops."""
    T, basis = T.copy(), basis.copy()
    while True:
        status = simplex_core(T, basis, allowed, TOL, 1)
        if status != ITERATION_LIMIT:
            return status, basis.tolist(), T.tobytes()


def _slack_tableau(A, b, c):
    """[A | I | b] over [c | 0 | 0] with the slack basis, as solve_lp
    builds it."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = c
    return T, np.arange(n, n + m, dtype=np.int64)


def _degenerate_tableau(rng):
    """Small integer data, so that pivot-column zeros, zero right-hand
    sides and ratio ties are common; rows negated as solve_lp negates
    ``>=`` rows carry -0.0 cells."""
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 9))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    b = rng.choice([0.0, 0.0, 1.0, 2.0], size=m)
    flip = rng.random(m) < 0.4
    A[flip] = -A[flip]
    b[flip & (b == 0.0)] = -0.0
    c = rng.integers(-3, 3, size=n).astype(float)
    return _slack_tableau(A, b, c)


@pytest.fixture
def recorded(monkeypatch):
    """Every (T, basis, allowed) that the frontier solve
    (``udea.dataset._frontier_run``) hands to the kernel."""
    calls = []

    def record(T, basis, allowed, tol, max_iter):
        calls.append((T.copy(), basis.copy(), allowed.copy()))
        return scalar_simplex_core(T, basis, allowed, tol, max_iter)
    monkeypatch.setattr(udea.dataset, "simplex_core", record)
    return calls


def _frontier_programs(ds, sigmas):
    for i in range(ds.n_units):
        directional_distance(ds, i)
        is_extreme(ds, i)
        for sigma in sigmas:
            robust_efficiency(ds, i, sigma)


def _case_study(name):
    return apply_scaling(ingest_csv(DATA_DIR / name),
                         RunConfig(mode="iterative", preset="radiotherapy"))


def test_blas_product_model(rng):
    # np.dot of a column by a row, as the kernel's update takes them from
    # the tableau, gives blas_product's bytes: signed zeros, subnormal,
    # underflowing and overflowing products included
    vals = np.array([0.0, -0.0, 1.5, -2.25, 5e-324, -1e-310, 3e-160,
                     -3e-160, 1e-200, -1e-200, 1e200, -1e200, 1e308])
    for _ in range(2000):
        m, n = rng.integers(2, 12), rng.integers(2, 40)
        T = rng.choice(vals, (m, n)) * rng.choice([1.0, 0.7, 1.3], (m, n))
        j, i = rng.integers(n), rng.integers(m)
        col, row = T[:, j:j + 1], T[i:i + 1] / 1.0
        with np.errstate(over="ignore", under="ignore"):
            want = blas_product(col, row)
            assert np.dot(col, row).tobytes() == want.tobytes()


def test_random_degenerate_tableaus(rng):
    statuses = set()
    zero_signs = 0
    for _ in range(400):
        T, basis = _degenerate_tableau(rng)
        zero_signs += int(np.signbit(T[T == 0.0]).sum())
        statuses.add(_assert_same(T, basis, np.ones(T.shape[1] - 1, bool)))
    # the cases reach both endings and carry signed zeros to compare
    assert statuses == {OPTIMAL, UNBOUNDED}
    assert zero_signs > 0


def test_random_tableaus_with_masked_columns(rng):
    for _ in range(200):
        T, basis = _degenerate_tableau(rng)
        allowed = rng.random(T.shape[1] - 1) < 0.6
        _assert_same(T, basis, allowed)
    # a mask with no eligible column stops at once, tableau untouched
    T, basis = _degenerate_tableau(rng)
    T[-1, :-1] = -1.0
    none = np.zeros(T.shape[1] - 1, bool)
    assert _assert_same(T, basis, none) == OPTIMAL


def test_masked_minimum_falls_back_to_first_allowed():
    # the most negative reduced cost (column 0) is masked, and columns 1
    # and 2 tie for the next best: the first of them enters
    A = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0]])
    T, basis = _slack_tableau(A, np.array([4.0, 6.0]),
                              np.array([-5.0, -2.0, -2.0]))
    allowed = np.array([False, True, True, True, True])
    assert _assert_same(T, basis, allowed, max_iter=1) == ITERATION_LIMIT
    T1, basis1 = T.copy(), basis.copy()
    simplex_core(T1, basis1, allowed, TOL, 1)
    assert 1 in basis1.tolist() and 2 not in basis1.tolist()
    assert _assert_same(T, basis, allowed) == OPTIMAL


def test_overflowing_ratios_decide_as_the_reference():
    # the first two ratios, 1e305 / 1e-8, overflow and tie at inf: the
    # kernel's Python floats read inf without numpy's RuntimeWarning (an
    # error in this suite) and pick the row the reference's numpy scalars
    # pick
    A = np.array([[1e-8], [1e-8], [1.0]])
    T, basis = _slack_tableau(A, np.array([1e305, 1e305, 1.0]),
                              np.array([-1.0]))
    allowed = np.ones(4, bool)
    with np.errstate(over="ignore"):
        want = _run(scalar_simplex_core, T, basis, allowed)
    assert want[0] == OPTIMAL
    assert _run(simplex_core, T, basis, allowed) == want


def test_frontier_programs_table1_and_random(recorded, rng):
    sigmas = (0.0, 0.05, 0.3, 0.8, 2.0)
    datasets = [table1_dataset(), table1_plus_g(), clamp_dataset()]
    datasets += [random_dataset(rng, max_units=10) for _ in range(6)]
    for ds in datasets:
        _frontier_programs(ds, sigmas)
    assert len(recorded) > 300
    for T, basis, allowed in recorded:
        assert _assert_same(T, basis, allowed) == OPTIMAL
        # the same programs with some columns barred from entering
        masked = allowed.copy()
        masked[::3] = False
        _assert_same(T, basis, masked)


@pytest.mark.parametrize("fixture, sigma", [
    ("case_study_s11_p0.csv", 0.14),
    ("case_study_s3_p4.csv", 1.36),
])
def test_case_study_cycling_fixtures(recorded, fixture, sigma):
    # the plan sets whose robust programs once cycled (test_lp); every
    # unit at the sigma that cycled, and nominally
    _frontier_programs(_case_study(fixture), (0.0, sigma))
    for T, basis, allowed in recorded:
        assert _assert_same(T, basis, allowed, max_iter=1000) == OPTIMAL


def test_unbounded_column():
    # min -x1 s.t. -x1 + x2 <= 1, x2 <= 2: x1 enters with no positive entry
    A = np.array([[-1.0, 1.0], [0.0, 1.0]])
    T, basis = _slack_tableau(A, np.array([1.0, 2.0]), np.array([-1.0, 0.0]))
    allowed = np.ones(4, bool)
    assert _assert_same(T, basis, allowed) == UNBOUNDED
    # with x1 barred, x2 alone is bounded
    allowed[0] = False
    assert _assert_same(T, basis, allowed) == OPTIMAL


def test_iteration_limit(recorded, rng):
    _frontier_programs(random_dataset(rng, max_units=12), (0.0, 0.3))
    cut = 0
    for T, basis, allowed in recorded:
        for max_iter in (1, 2, 3):
            if _assert_same(T, basis, allowed, max_iter) == ITERATION_LIMIT:
                cut += 1
    assert cut > 0


def test_stepping_ends_as_one_call(recorded, rng):
    # perfbench counts pivots by calling the kernel with max_iter=1
    # until it stops; that must leave what one call leaves
    _frontier_programs(table1_dataset(), (0.0, 0.5))
    _frontier_programs(_case_study("case_study_s3_p4.csv"), (1.36,))
    cases = list(recorded)
    for _ in range(100):
        T, basis = _degenerate_tableau(rng)
        cases.append((T, basis, rng.random(T.shape[1] - 1) < 0.8))
    for T, basis, allowed in cases:
        assert (_stepped(T, basis, allowed)
                == _run(simplex_core, T, basis, allowed))


def _highs(T):
    """scipy's HiGHS on the program a start tableau [A | I | b] over
    [c | 0 | 0] stands for: min c'x s.t. [A | I] x = b, x >= 0."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m = T.shape[0] - 1
    return linprog(T[m, :-1], A_eq=T[:m, :-1], b_eq=T[:m, -1],
                   bounds=(0, None), method="highs")


def _assert_optimal_or_unbounded(T0, basis0):
    """The kernel, with every column allowed, ends at a primal and dual
    feasible basis whose objective is HiGHS's, or unbounded as HiGHS
    finds it; whatever the pivoting rule.  Returns the status."""
    res = _highs(T0)
    m, n = T0.shape[0] - 1, T0.shape[1] - 1
    T, basis = T0.copy(), basis0.copy()
    status = simplex_core(T, basis, np.ones(n, bool), TOL, 100_000)
    if status == UNBOUNDED:
        assert res.status == 3
        return status
    assert status == OPTIMAL and res.status == 0
    assert np.all(T[:m, n] >= -1e-9)
    assert np.all(T[m, :n] >= -TOL)
    x = np.zeros(n)
    x[basis] = T[:m, n]
    assert T0[m, :n] @ x == pytest.approx(res.fun, abs=1e-9)
    return status


def test_random_degenerate_tableaus_are_solved(rng):
    statuses = set()
    for _ in range(400):
        statuses.add(_assert_optimal_or_unbounded(*_degenerate_tableau(rng)))
    assert statuses == {OPTIMAL, UNBOUNDED}


def test_frontier_programs_are_solved(recorded, rng):
    datasets = [table1_dataset(), table1_plus_g(), clamp_dataset(),
                _case_study("case_study_s3_p4.csv")]
    datasets += [random_dataset(rng, max_units=10) for _ in range(6)]
    for ds in datasets:
        _frontier_programs(ds, (0.0, 0.3, 1.36))
    assert len(recorded) > 300
    for T, basis, _ in recorded:
        assert _assert_optimal_or_unbounded(T, basis) == OPTIMAL


# Beale (1955): the classic program on which Dantzig pricing cycles when
# ratio ties go to the lowest basic index
BEALE_A = np.array([[0.25, -60.0, -1.0 / 25.0, 9.0],
                    [0.5, -90.0, -1.0 / 50.0, 3.0],
                    [0.0, 0.0, 1.0, 0.0]])
BEALE_B = np.array([0.0, 0.0, 1.0])
BEALE_C = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0])


def test_beale_example_does_not_cycle():
    T0, basis0 = _slack_tableau(BEALE_A, BEALE_B, BEALE_C)
    allowed = np.ones(T0.shape[1] - 1, bool)
    assert _assert_same(T0, basis0, allowed) == OPTIMAL
    T, basis = T0.copy(), basis0.copy()
    assert simplex_core(T, basis, allowed, TOL, 100_000) == OPTIMAL
    # the bottom-right cell holds minus the objective
    assert -T[-1, -1] == pytest.approx(-0.05, abs=1e-12)
    assert (_stepped(T0, basis0, allowed)
            == _run(simplex_core, T0, basis0, allowed))
    sol = solve_lp(LinearProgram(BEALE_C, BEALE_A, [LEQ] * 3, BEALE_B))
    assert sol.objective == pytest.approx(-0.05, abs=1e-12)
