"""Every reported number, whether the package kernel or its scalar
reference solves each LP."""

import pytest

import udea.dataset
from conftest import DATA_DIR
from helpers import scalar_simplex_core
from udea.cli import RunConfig, _compute, apply_scaling, ingest_csv
from udea.robust import UncertaintyConfig


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
def test_reports_match_reference_kernel(monkeypatch, data, config):
    # every reported number, bit for bit, whether the package kernel or
    # the element-by-element reference of its rule solves each LP
    ours = _report_bits(data, config)
    monkeypatch.setattr(udea.dataset, "simplex_core", scalar_simplex_core)
    assert _report_bits(data, config) == ours
