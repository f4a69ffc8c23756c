import numpy as np
import pytest

from conftest import DATA_DIR
from helpers import random_dataset
from udea.cli import RunConfig, apply_scaling, ingest_csv
from udea.dataset import (DeaDataset, build_envelopment_lp, is_extreme,
                          scale_dataset, solve_all, solve_nominal)
from udea.lp import solve_lp
from udea.robust import transform_box

TABLE1_SCORES = (1.0, 1.0, 1.0, 1.0, 0.542, 0.278)


def test_envelopment_program_shape(table1):
    lp = build_envelopment_lp(table1, 4)
    assert lp.c.size == 7              # six weights plus z = 1 - theta
    assert lp.A.shape == (3, 7)        # one output, one input, convexity
    assert lp.senses == ["<=", "<=", "<="]
    assert not np.any(lp.A[:, 4])      # lam_4 is eliminated
    assert np.array_equal(lp.b, [0.0, 0.0, 1.0])


def test_self_solution_feasible(table1):
    # x = 0 is the unit itself: lam = e_0 and theta = 1 (z = 0)
    lp = build_envelopment_lp(table1, 0)
    assert np.all(lp.A @ np.zeros(7) <= lp.b)
    # unit A is efficient, so the objective theta - 1 is 0
    assert solve_lp(lp).objective == pytest.approx(0.0, abs=1e-9)


def test_nominal_weights_lie_on_the_simplex(table1, rng):
    # lam_i is read back as one minus the other weights, with round-off
    # negatives set to 0 and the sum rescaled to 1
    preset = RunConfig(mode="nominal", preset="radiotherapy")
    datasets = [table1] + [
        apply_scaling(ingest_csv(DATA_DIR / name), preset)
        for name in ("case_study_s11_p0.csv", "case_study_s3_p4.csv")]
    datasets += [random_dataset(rng, max_units=30, max_dim=6)
                 for _ in range(20)]
    for ds in datasets:
        for i in range(ds.n_units):
            lam = solve_nominal(ds, i).lam
            assert lam.min() >= 0.0
            assert abs(lam.sum() - 1.0) <= 1e-15


def test_single_unit_dataset():
    ds = DeaDataset(names=["only"], X=[[2.0]], Y=[[3.0]])
    res = solve_all(ds)
    assert len(res) == 1
    assert res[0].theta == pytest.approx(1.0, abs=1e-9)
    assert res[0].lam[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("inputs,outputs", [
    (["a"], ["a"]),
    (["a", "a"], ["b"]),
    (["a"], ["b", "b"]),
])
def test_duplicate_variable_names_rejected(inputs, outputs):
    n, m = len(inputs), len(outputs)
    with pytest.raises(ValueError, match="duplicate variable names"):
        DeaDataset(names=["u1", "u2"], X=np.ones((n, 2)), Y=np.ones((m, 2)),
                   input_names=inputs, output_names=outputs)


def test_table1_scores(table1):
    for res, expected in zip(solve_all(table1), TABLE1_SCORES):
        assert res.theta == pytest.approx(expected, abs=1e-3)


def test_two_unit_geometry():
    ds = DeaDataset(names=["a", "b"], X=[[2.0, 4.0]], Y=[[5.0, 5.0]])
    scores = [r.theta for r in solve_all(ds)]
    assert scores == pytest.approx([1.0, 0.5], abs=1e-9)


def test_identical_units_all_efficient():
    ds = DeaDataset(names=["a", "b", "c"], X=[[2.0] * 3], Y=[[3.0] * 3])
    assert all(r.efficient for r in solve_all(ds))


def test_peers_are_efficient(table1):
    res = solve_nominal(table1, 4)
    assert res.peers == [1, 2]  # B and C
    assert all(solve_nominal(table1, p).efficient for p in res.peers)


def test_is_extreme_table1(table1):
    assert [is_extreme(table1, i) for i in range(6)] == [
        True, True, True, True, False, False]


def test_midpoint_unit_not_extreme(table1):
    # a seventh unit at the midpoint of segment AB is efficient but not
    # an extreme point
    ds = DeaDataset(names=list("ABCDEFG"),
                    X=[[1, 3, 7, 10, 8, 6, 2]],
                    Y=[[1, 4, 7, 8, 5, 2, 2.5]])
    assert solve_nominal(ds, 6).efficient
    assert not is_extreme(ds, 6)


def test_index_out_of_range(table1):
    with pytest.raises(IndexError):
        solve_nominal(table1, 6)
    with pytest.raises(IndexError):
        build_envelopment_lp(table1, -7)
    with pytest.raises(IndexError):
        is_extreme(table1, 99)
    with pytest.raises(IndexError):
        transform_box(table1, 6, 0.5)


def test_scale_examples():
    ds = DeaDataset(names=["p"], X=[[63.0]], Y=[[70.3]])
    scaled = scale_dataset(ds, [100.0 / 70.0, 100.0 / (74.0 * 0.95)])
    assert scaled.X[0, 0] == pytest.approx(90.0, abs=1e-9)
    assert scaled.Y[0, 0] == pytest.approx(100.0, abs=1e-9)


def test_scale_identity(table1):
    scaled = scale_dataset(table1, [1.0, 1.0])
    assert np.array_equal(scaled.X, table1.X)
    assert np.array_equal(scaled.Y, table1.Y)


def test_scale_rejects_nonpositive(table1):
    with pytest.raises(ValueError):
        scale_dataset(table1, [1.0, 0.0])
    with pytest.raises(ValueError):
        scale_dataset(table1, [-2.0, 1.0])
    with pytest.raises(ValueError, match="expected 2 factors"):
        scale_dataset(table1, [1.0, 1.0, 1.0])


def test_units_invariance(rng):
    for _ in range(8):
        ds = random_dataset(rng)
        factors = rng.uniform(0.1, 10.0, size=ds.n_inputs + ds.n_outputs)
        scaled = scale_dataset(ds, factors)
        for a, b in zip(solve_all(ds), solve_all(scaled)):
            assert a.theta == pytest.approx(b.theta, abs=1e-7)


def test_dataset_owns_its_data():
    # the dataset validates and keeps copies: C-ordered float arrays, a
    # bool flag array and name lists, which later writes into what the
    # caller passed do not reach
    X = np.asfortranarray([[2.0, 4.0], [1.0, 2.0]])
    Y = np.array([[5.0, 5.0]])
    names, inputs, outputs = ["a", "b"], ["x", "w"], ["y"]
    env = np.array([False])
    ds = DeaDataset(names=names, X=X, Y=Y, env_outputs=env,
                    input_names=inputs, output_names=outputs)
    assert ds.X.flags.c_contiguous and ds.Y.flags.c_contiguous
    X[0, 1] = -5.0
    Y[0, 0] = 0.0
    env[0] = True
    names[0], inputs[0] = "c", "z"
    outputs.append("v")
    assert ds.X.tolist() == [[2.0, 4.0], [1.0, 2.0]]
    assert ds.Y.tolist() == [[5.0, 5.0]]
    assert ds.env_outputs.tolist() == [False]
    assert (ds.names, ds.input_names, ds.output_names) == (
        ["a", "b"], ["x", "w"], ["y"])
    assert solve_nominal(ds, 1).theta == pytest.approx(0.5, abs=1e-9)


def test_dataset_validation():
    with pytest.raises(ValueError):
        DeaDataset(names=["a", "a"], X=[[1, 2]], Y=[[1, 2]])
    with pytest.raises(ValueError):
        DeaDataset(names=["a"], X=[[-1.0]], Y=[[1.0]])
    with pytest.raises(ValueError):
        DeaDataset(names=["a", "b"], X=[[1.0, 0.0]], Y=[[1.0, 1.0]])
    with pytest.raises(ValueError):
        DeaDataset(names=["a"], X=[[np.nan]], Y=[[1.0]])
    with pytest.raises(ValueError):
        DeaDataset(names=[], X=np.empty((1, 0)), Y=np.empty((1, 0)))
    with pytest.raises(ValueError, match="inconsistent unit counts"):
        DeaDataset(names=["a", "b"], X=[[1.0, 2.0]], Y=[[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="env_outputs length"):
        DeaDataset(names=["a"], X=[[1.0]], Y=[[1.0]],
                   env_outputs=[False, True])
    with pytest.raises(ValueError, match="variable name length"):
        DeaDataset(names=["a"], X=[[1.0]], Y=[[1.0]],
                   input_names=["x", "z"])
