import os
import subprocess
import sys

import numpy as np
import pytest

import udea.lp
from conftest import DATA_DIR
from helpers import random_dataset, scalar_simplex_core, table1_dataset
from udea._kernels import (HAVE_NUMBA, _select_backend, simplex_core_numba,
                           simplex_core_numpy)
from udea.cli import RunConfig, _compute, apply_scaling, ingest_csv
from udea.dataset import solve_all
from udea.facets import exact_udea
from udea.iterative import iterative_udea
from udea.robust import UncertaintyConfig


@pytest.fixture
def backend(monkeypatch):
    def use(core):
        monkeypatch.setattr(udea.lp, "simplex_core", core)
    return use


def _solve_everything(ds):
    nominal = [(r.theta, r.lam.copy()) for r in solve_all(ds)]
    iterative = [iterative_udea(ds, i).upsilon for i in range(ds.n_units)]
    return nominal, iterative


def _report_bits(data, config):
    """The rows ``udea <mode>`` reports for ``config`` on the dataset file
    ``data``, every float as its ``float.hex``."""
    ds = apply_scaling(ingest_csv(DATA_DIR / data), config)
    cfg = UncertaintyConfig(nu=config.nu, step=config.step, eps=config.eps)
    _, rows = _compute(config, ds, cfg)
    return [[v.hex() if isinstance(v, float) else v for v in row]
            for row in rows]


@pytest.mark.parametrize("data, config", [
    ("example1.csv", RunConfig(mode="nominal")),
    ("example1.csv", RunConfig(mode="robust", sigma=0.5)),
    ("example1.csv", RunConfig(mode="sweep", nu=1.0, step=0.05)),
    ("example1.csv", RunConfig(mode="exact")),
    ("example1.csv", RunConfig(mode="iterative")),
    ("case_study_s11_p0.csv",
     RunConfig(mode="iterative", preset="radiotherapy")),
], ids=["nominal", "robust", "sweep", "exact", "iterative", "case_study"])
def test_reports_match_reference_kernel(backend, data, config):
    # every reported number, bit for bit, whether the package kernel or
    # the element-by-element reference of its rule solves each LP
    ours = _report_bits(data, config)
    backend(scalar_simplex_core)
    assert _report_bits(data, config) == ours


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_backends_agree_bit_for_bit(backend, rng):
    datasets = [table1_dataset()] + [random_dataset(rng, max_units=8)
                                     for _ in range(5)]
    for ds in datasets:
        backend(simplex_core_numpy)
        np_nominal, np_iter = _solve_everything(ds)
        backend(simplex_core_numba)
        nb_nominal, nb_iter = _solve_everything(ds)
        for (ta, la), (tb, lb) in zip(np_nominal, nb_nominal):
            assert ta == tb
            assert np.array_equal(la, lb)
        assert np_iter == nb_iter


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_exact_udea_backend_agreement(backend):
    ds = table1_dataset()
    backend(simplex_core_numpy)
    np_out = [exact_udea(ds, i) for i in range(ds.n_units)]
    backend(simplex_core_numba)
    nb_out = [exact_udea(ds, i) for i in range(ds.n_units)]
    for a, b in zip(np_out, nb_out):
        assert a.upsilon == b.upsilon
        assert a.facet_index == b.facet_index
        assert a.capable == b.capable


def test_select_backend_env(monkeypatch):
    monkeypatch.setenv("UDEA_BACKEND", "numpy")
    name, core = _select_backend()
    assert name == "numpy"
    assert core is simplex_core_numpy
    if HAVE_NUMBA:
        monkeypatch.setenv("UDEA_BACKEND", "numba")
        assert _select_backend() == ("numba", simplex_core_numba)
    # unset or empty is the default; no other name stands for it
    for choice in ("auto", "fortran"):
        monkeypatch.setenv("UDEA_BACKEND", choice)
        with pytest.raises(ValueError):
            _select_backend()


def test_numpy_backend_forced_in_subprocess():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    # the child imports udea from src/ as the suite does, installed or not
    path = os.pathsep.join(p for p in (os.path.join(root, "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, UDEA_BACKEND="numpy", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c",
         "import udea; print(udea.BACKEND); "
         "from tests.helpers import table1_dataset; "
         "from udea.dataset import solve_nominal; "
         "print(solve_nominal(table1_dataset(), 4).theta)"],
        capture_output=True, text=True, env=env, cwd=root)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.split()
    assert lines[0] == "numpy"
    assert float(lines[1]) == pytest.approx(13.0 / 24.0, abs=1e-9)
