"""Tests of the benchmark itself: inputs, pivot counter, oracle, tracing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads
import udea.lp
from udea import _kernels
from udea.dataset import DeaDataset, build_envelopment_lp, solve_nominal


def _same_tables(a, b):
    return all(np.array_equal(getattr(x, f), getattr(y, f))
               for x, y in zip(a, b) for f in ("X", "Y", "env"))


@pytest.mark.parametrize("name", ["case_study", "nominal_wide"])
def test_generators_are_deterministic_per_seed(name):
    first = workloads.generate(name, 7)
    again = workloads.generate(name, 7)
    other = workloads.generate(name, 8)
    assert [p[0] for p in first] == [p[0] for p in again]
    assert all(_same_tables(a[2], b[2]) for a, b in zip(first, again))
    assert not _same_tables(first[0][2], other[0][2])


def test_exact_generator_is_deterministic_and_mixes_shapes():
    a = workloads.generate("exact_enum", 3)[0]
    b = workloads.generate("exact_enum", 3)[0]
    assert _same_tables(a[2], b[2])
    shapes = {(t.X.shape[0], t.Y.shape[0]) for t in a[2]}
    assert shapes == set(workloads.EXACT_SHAPES)
    assert all(t.X.shape[1] == 64 for t in a[2])


def test_frontier_design_places_units_at_their_push_back_distance():
    rng = np.random.default_rng(5)
    X, Y, b = workloads.frontier_table(rng, 1, 2, 6, 20, x0=100.0, rx=40.0,
                                       y0=90.0, ry=10.0, b_max=8.0,
                                       decimals=12)
    env = np.zeros(2, dtype=bool)
    for i in range(X.shape[1]):
        assert oracle.ddf_beta(X, Y, env, i) == pytest.approx(b[i], abs=1e-7)


def _captured_kernel_calls(monkeypatch, ds):
    calls = []
    plain = udea.lp.simplex_core

    def capture(T, basis, allowed, tol, max_iter):
        calls.append((T.copy(), basis.copy(), allowed.copy(), tol, max_iter))
        return plain(T, basis, allowed, tol, max_iter)
    monkeypatch.setattr(udea.lp, "simplex_core", capture)
    for i in range(ds.n_units):
        udea.lp.solve_lp(build_envelopment_lp(ds, i))
    monkeypatch.setattr(udea.lp, "simplex_core", plain)
    return calls


def test_stepping_counter_is_bit_identical_to_one_kernel_call(monkeypatch):
    rng = np.random.default_rng(11)
    ds = DeaDataset(names=[f"u{k}" for k in range(25)],
                    X=rng.uniform(0.5, 10.0, (2, 25)).round(3),
                    Y=rng.uniform(0.5, 10.0, (2, 25)).round(3))
    plain = _kernels.simplex_core_numpy
    for T, basis, allowed, tol, max_iter in _captured_kernel_calls(
            monkeypatch, ds):
        counts = tracing.Counts()
        step = counts.stepping_kernel(plain)
        T1, b1 = T.copy(), basis.copy()
        T2, b2 = T.copy(), basis.copy()
        s1 = plain(T1, b1, allowed, tol, max_iter)
        s2 = step(T2, b2, allowed, tol, max_iter)
        assert s1 == s2
        assert np.array_equal(T1, T2) and np.array_equal(b1, b2)
        pivots = counts.summary()["pivots_phase2"]
        # the count is exact: one pivot fewer stops at the limit
        assert plain(T.copy(), basis.copy(), allowed, tol,
                     pivots + 1) == s1
        if pivots:
            assert plain(T.copy(), basis.copy(), allowed, tol,
                         pivots) == _kernels.ITERATION_LIMIT


def test_stepping_counter_gives_identical_solutions(monkeypatch):
    rng = np.random.default_rng(12)
    ds = DeaDataset(names=[f"u{k}" for k in range(30)],
                    X=rng.uniform(0.5, 10.0, (3, 30)).round(3),
                    Y=rng.uniform(0.5, 10.0, (3, 30)).round(3))
    expected = [solve_nominal(ds, i) for i in range(ds.n_units)]
    counts = tracing.Counts()
    monkeypatch.setattr(udea.lp, "simplex_core",
                        counts.stepping_kernel(udea.lp.simplex_core))
    for i, ref in enumerate(expected):
        got = solve_nominal(ds, i)
        assert got.theta == ref.theta
        assert np.array_equal(got.lam, ref.lam)
    assert counts.summary()["pivots_phase1"] + \
        counts.summary()["pivots_phase2"] > 0


def _small_case():
    X = np.array([[1.0, 3.0, 7.0, 10.0, 8.0, 6.0]])
    Y = np.array([[1.0, 4.0, 7.0, 8.0, 5.0, 2.0]])
    return X, Y, np.zeros(1, dtype=bool)


def test_oracle_flags_a_planted_wrong_theta():
    X, Y, env = _small_case()
    settings = workloads.Settings(mode="nominal")
    refs = oracle.reference(X, Y, env, settings)
    assert refs[4]["theta"] == pytest.approx(0.5417, abs=1e-4)
    good = {"name": "E", "theta": refs[4]["theta"]}
    bad = {"name": "E", "theta": refs[4]["theta"] + 1e-4}
    assert oracle.compare(good, refs[4], settings) == []
    assert "theta" in oracle.compare(bad, refs[4], settings)[0]

    checker = run.Checker({"t.csv": refs}, {"t.csv": settings})
    units = [{"name": n, "theta": r["theta"]} for n, r in zip("ABCDEF", refs)]
    units[4]["theta"] += 1e-4
    checker.check({"datasets": [{"path": "t.csv", "units": units,
                                 "errors": {"F": ["nominal: SolverFault"]}}]})
    assert (checker.attempted, checker.failed, checker.wrong) == (6, 2, 1)
    assert set(checker.failures) == {("t.csv", "E"), ("t.csv", "F")}
    # a second pass over the same input checks the same six operations
    checker.check({"datasets": [{"path": "t.csv", "units": units,
                                 "errors": {"F": ["nominal: SolverFault"]}}]})
    assert (checker.attempted, checker.failed, checker.wrong) == (6, 2, 1)
    assert checker.checked == 12
    assert checker.failures[("t.csv", "F")]["passes"] == 2


def test_oracle_reproduces_the_worked_example():
    X, Y, env = _small_case()
    exact = oracle.reference(X, Y, env, workloads.Settings(mode="exact"))
    assert exact[4]["upsilon"] == pytest.approx(11.0 / 14.0, abs=1e-9)
    grid = oracle.reference(X, Y, env, workloads.Settings(mode="iterative",
                                                          nu=4.0))
    assert grid[4]["upsilon"] == pytest.approx(0.79, abs=1e-12)
    assert grid[4]["capable"]


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    assert run.self_times(spans) == pytest.approx(
        {"a": 6.0, "b": 3.0, "c": 1.0})


def test_traced_worker_nests_kernel_spans_under_lp_solves(tmp_path):
    X, Y, env = _small_case()
    table = workloads.Table(names=list("ABCDEF"), X=X, Y=Y, env=env,
                            input_names=["x"], output_names=["y"])
    path = str(tmp_path / "t.csv")
    workloads.write_csv(table, path)
    request = {"record": "spans", "csv_paths": [path],
               "settings": vars(workloads.Settings(mode="iterative", nu=1.0)),
               "spans_path": str(tmp_path / "spans.json")}
    req = tmp_path / "req.json"
    req.write_text(json.dumps(request))
    env_vars = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(run.WORKER), os.pardir, "src"))
    subprocess.run([sys.executable, run.WORKER, str(req),
                    str(tmp_path / "out.json")], env=env_vars, check=True,
                   timeout=120)
    spans = json.loads((tmp_path / "spans.json").read_text())
    names = {s[0] for s in spans}
    assert {"cli.ingest", "iterative.unit", "lp.solve", "kernel.phase1",
            "kernel.phase2", "dataset.validate", "lp.validate"} <= names
    for name, start, end, parent in spans:
        assert end >= start
        if name.startswith("kernel."):
            assert spans[parent][0] == "lp.solve"
    result = json.loads((tmp_path / "out.json").read_text())
    assert result["datasets"][0]["errors"] == {}


def test_metric_names_match_the_benchmark_manifest():
    manifest_path = os.path.join(os.path.dirname(run.WORKER), os.pardir,
                                 "BENCHMARK.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    counts = tracing.Counts().summary()
    span_pass = {"label": "p0", "wall_s": 1.0,
                 "spans": [["iterative.unit", 0.0, 0.5, -1]]}
    layer = run.per_layer_metrics([span_pass], [{"wall_s": 0.9}],
                                  run.merge_counts([counts]))
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}
    plain = [{"wall_s": 1.0, "wall_rel": 5.0, "import_s": 0.1,
              "maxrss_kb": 1024}]
    checker = run.Checker({}, {})
    checker.runs[("t.csv", "A")] = 1
    e2e = run.end_to_end_metrics(plain, checker)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
