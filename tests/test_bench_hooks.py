"""The package names the benchmark in ``perfbench/`` looks up still exist.

``perfbench/tracing.py`` wraps functions by module and attribute name and
``perfbench/worker.py`` calls the CLI module's names directly, so renaming
or removing one of them breaks the benchmark without failing any other
test.  ``tracing`` is imported here but never installed.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

import udea
import udea.cli
import udea.facets
import udea.lp
import udea.robust
from udea import _kernels
from udea.dataset import build_envelopment_lp

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_span_points_resolve(tracing):
    for name, (module, attr) in tracing.SPAN_POINTS.items():
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_method_points_resolve(tracing):
    for name, (cls, attr) in tracing.METHOD_POINTS.items():
        assert callable(getattr(cls, attr)), name


def test_counted_functions_resolve():
    assert callable(udea.facets.is_extreme)
    assert callable(udea.facets._unique_normal)


def test_kernel_hook(tracing, table1):
    # tracing replaces the kernel with a wrapper of this signature and
    # reads each program's senses and lower bounds
    params = list(inspect.signature(_kernels._simplex_core).parameters)
    assert params == ["T", "basis", "allowed", "tol", "max_iter"]
    assert callable(udea.lp.simplex_core)
    assert (udea.lp.GEQ, udea.lp.EQ) == (">=", "=")
    assert isinstance(_kernels.ITERATION_LIMIT, int)
    assert isinstance(_kernels.HAVE_NUMBA, bool)
    lp = build_envelopment_lp(table1, 4)
    assert lp.lb.shape == lp.c.shape
    assert not tracing.has_artificials(lp)


def test_worker_names_resolve():
    cli = udea.cli
    for name in ("ingest_csv", "apply_scaling", "solve_nominal",
                 "iterative_udea", "enumerate_efficient_facets",
                 "exact_udea"):
        assert callable(getattr(cli, name)), name
    assert isinstance(udea.robust.DEFAULT_EPS, float)
    assert isinstance(udea.BACKEND, str)
    config = cli.RunConfig(mode="iterative", nu=3.6, step=0.01,
                           preset="radiotherapy")
    cfg = cli.UncertaintyConfig(nu=config.nu, step=config.step,
                                eps=config.eps)
    assert cfg.eps == udea.robust.DEFAULT_EPS
