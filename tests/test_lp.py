import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import udea.lp
from helpers import lp_vertex_oracle, table1_dataset
from udea.dataset import build_envelopment_lp, is_extreme, solve_nominal
from udea.lp import LinearProgram, MalformedProgramError, solve_lp
from udea.robust import directional_distance, robust_efficiency


def test_single_binding_bound():
    # max x s.t. x <= 3, written as a >= row that x = 0 satisfies
    lp = LinearProgram(c=[-1.0], A=[[-1.0]], senses=[">="], b=[-3.0])
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-9)


def test_lower_bound_is_the_start():
    # min x1 + x2 s.t. x1 + x2 >= 1 from lb = (1, 2): lb itself is optimal
    lp = LinearProgram(c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[">="],
                       b=[1.0], lb=[1.0, 2.0])
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.x == pytest.approx([1.0, 2.0], abs=1e-12)


def test_empty_feasible_set():
    # with no phase one, a row that x = lb violates (here every x) has no
    # start vertex and is rejected, as is a >= row with b > 0
    for senses, b in (("<=", -1.0), (">=", 3.0)):
        lp = LinearProgram(c=[0.0], A=[[1.0]], senses=[senses], b=[b])
        with pytest.raises(MalformedProgramError, match="x = lb"):
            solve_lp(lp)
    lp = LinearProgram(c=[0.0], A=[[1.0]], senses=["<="], b=[4.0], lb=[5.0])
    with pytest.raises(MalformedProgramError, match="x = lb"):
        solve_lp(lp)


def test_unbounded():
    lp = LinearProgram(c=[-1.0], A=[[1.0]], senses=[">="], b=[0.0])
    assert solve_lp(lp).status == "unbounded"


def test_envelopment_program_for_unit_e():
    # frontier segment B-C at output 5 needs input 13/3; 13/3 / 8 = 13/24
    ds = table1_dataset()
    sol = solve_lp(build_envelopment_lp(ds, 4))
    assert sol.optimal
    # the objective is -z = theta - 1
    assert 1.0 - sol.x[-1] == pytest.approx(13.0 / 24.0, abs=1e-9)
    assert sol.objective == pytest.approx(13.0 / 24.0 - 1.0, abs=1e-9)


def test_maximize():
    # max x1 + x2 as min -(x1 + x2)
    lp = LinearProgram(c=[-1.0, -1.0], A=[[1.0, 2.0], [3.0, 1.0]],
                       senses=["<=", "<="], b=[4.0, 6.0])
    sol = solve_lp(lp)
    assert sol.optimal
    assert sol.objective == pytest.approx(-2.8, abs=1e-9)
    assert sol.x == pytest.approx([1.6, 1.2], abs=1e-9)


def test_equality_rows():
    # an equality row needs a phase one, which solve_lp does not run, even
    # when x = lb satisfies it
    for b in (1.0, 0.0):
        lp = LinearProgram(c=[1.0, 2.0], A=[[1.0, 1.0]], senses=["="],
                           b=[b])
        with pytest.raises(MalformedProgramError, match="equality"):
            solve_lp(lp)


def test_dimension_mismatch_rejected():
    with pytest.raises(MalformedProgramError):
        LinearProgram(c=[1.0, 2.0], A=[[1.0]], senses=["<="], b=[1.0])
    with pytest.raises(MalformedProgramError):
        LinearProgram(c=[1.0], A=[[1.0]], senses=["<=", ">="], b=[1.0])


def test_non_finite_rejected():
    with pytest.raises(MalformedProgramError):
        LinearProgram(c=[np.nan], A=[[1.0]], senses=["<="], b=[1.0])
    with pytest.raises(MalformedProgramError):
        LinearProgram(c=[1.0], A=[[np.inf]], senses=["<="], b=[1.0])


def test_unknown_sense_rejected():
    with pytest.raises(MalformedProgramError):
        LinearProgram(c=[1.0], A=[[1.0]], senses=["<"], b=[1.0])


def test_frontier_programs_are_not_revalidated(monkeypatch, table1):
    # frontier programs come from a dataset validated at ingest; only
    # user-built programs run LinearProgram.__post_init__
    checked = []
    post_init = LinearProgram.__post_init__

    def counting(self):
        checked.append(self)
        post_init(self)
    monkeypatch.setattr(LinearProgram, "__post_init__", counting)
    for i in range(table1.n_units):
        solve_nominal(table1, i)
        robust_efficiency(table1, i, 0.5)
        directional_distance(table1, i)
        is_extreme(table1, i)
    assert checked == []
    with pytest.raises(MalformedProgramError):
        LinearProgram(c=[1.0, 2.0], A=[[1.0]], senses=["<="], b=[1.0])
    assert len(checked) == 1


def test_determinism_bit_for_bit():
    ds = table1_dataset()
    lp = build_envelopment_lp(ds, 4)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)


def test_objective_matches_primal_recomputation():
    ds = table1_dataset()
    for i in range(ds.n_units):
        lp = build_envelopment_lp(ds, i)
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(float(lp.c @ sol.x), abs=1e-9)


def _random_lp(rng):
    # x = 0 satisfies every row: b >= 0 on <= rows, b <= 0 on >= rows
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 7))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    senses = [str(rng.choice(["<=", ">="])) for _ in range(m)]
    b = rng.integers(0, 8, size=m).astype(float)
    b[np.array(senses) == ">="] *= -1.0
    # bounding row keeps the feasible region (and the oracle) finite
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, 20.0)
    senses.append("<=")
    c = rng.integers(-5, 6, size=n).astype(float)
    return LinearProgram(c=c, A=A, senses=senses, b=b)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    lp = _random_lp(rng)
    sol = solve_lp(lp)
    oracle = lp_vertex_oracle(lp)
    assert sol.optimal
    assert sol.objective == pytest.approx(oracle, abs=1e-7)


def _highs_objective(lp):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rows = {"<=": ([], []), ">=": ([], []), "=": ([], [])}
    for a, s, b in zip(lp.A, lp.senses, lp.b):
        rows[s][0].append(a)
        rows[s][1].append(b)
    A_ub = rows["<="][0] + [-a for a in rows[">="][0]]
    b_ub = rows["<="][1] + [-b for b in rows[">="][1]]
    res = linprog(lp.c, A_ub=A_ub, b_ub=b_ub, A_eq=rows["="][0] or None,
                  b_eq=rows["="][1] or None, bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return res.fun


# case-study plan sets (perfbench/workloads.py, case_study seeds 11 and 3)
# whose robust programs once cycled to the pivot limit: round-off negatives
# in basic right-hand sides broke Bland's tie-break in the two-phase form
# of the envelopment program (phase 1 for plan14, phase 2 for plan37)
@pytest.mark.parametrize("fixture, unit, sigma", [
    ("case_study_s11_p0.csv", "plan14", 0.14),
    ("case_study_s3_p4.csv", "plan37", 1.36),
])
def test_degenerate_case_study_programs_terminate(fixture, unit, sigma,
                                                  monkeypatch):
    from conftest import DATA_DIR
    from udea.cli import RunConfig, apply_scaling, ingest_csv
    from udea.robust import robust_efficiency, transform_box

    ds = apply_scaling(ingest_csv(DATA_DIR / fixture),
                       RunConfig(mode="iterative", preset="radiotherapy"))
    i = ds.names.index(unit)
    lp = build_envelopment_lp(transform_box(ds, i, sigma), i)
    # a cycle would exhaust a budget of 1000 pivots
    monkeypatch.setattr(udea.lp, "MAX_PIVOTS", 1000)
    sol = solve_lp(lp)
    assert sol.optimal
    assert robust_efficiency(ds, i, sigma).theta == 1.0 - sol.x[-1]
    assert sol.objective == pytest.approx(_highs_objective(lp), abs=1e-9)
