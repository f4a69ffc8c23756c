"""End-to-end acceptance checks for the library.

Each test prints a single PASS line so the suite doubles as a release
checklist; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from helpers import (Segment2D, best_corner_score, dea_distance,
                     random_dataset, random_dataset_2d,
                     segment_min_uncertainty, select_segment_2d,
                     sorted_extremes_2d, table1_dataset)
from udea.cli import RADIOTHERAPY_INPUT_FACTOR, RADIOTHERAPY_OUTPUT_FACTOR
from udea.dataset import DeaDataset, scale_dataset, solve_all, solve_nominal
from udea.facets import enumerate_efficient_facets, exact_udea
from udea.geometry import Hyperplane, min_uncertainty_to_facet
from udea.iterative import iterative_udea
from udea.robust import (DEFAULT_CAP, DEFAULT_EPS, DEFAULT_STEP,
                         UncertaintyConfig, robust_efficiency, transform_box)

SEED = 20240811


def _facets():
    """Example frontier facets, steepest gradient first: the horizontal
    piece, then the lines through C-D, B-C, A-B, then the vertical piece."""
    return [
        Hyperplane(alpha=[0.0], beta=[-1.0], d=-8.0),
        Hyperplane(alpha=[1.0], beta=[-3.0], d=-14.0),
        Hyperplane(alpha=[3.0], beta=[-4.0], d=-7.0),
        Hyperplane(alpha=[3.0], beta=[-2.0], d=1.0),
        Hyperplane(alpha=[1.0], beta=[0.0], d=1.0),
    ]


def test_01_nominal_scores():
    ds = table1_dataset()
    solve_all(ds)  # warm any jit compilation outside the timed run
    start = time.perf_counter()
    scores = [r.theta for r in solve_all(ds)]
    elapsed = time.perf_counter() - start
    expected = [1.0, 1.0, 1.0, 1.0, 0.542, 0.278]
    assert scores == pytest.approx(expected, abs=1e-3)
    assert elapsed < 0.1
    print(f"PASS 01 nominal scores within 1e-3, {elapsed * 1e3:.1f} ms")


def test_02_dea_distances():
    ds = table1_dataset()
    facets = _facets()
    expected_e = [math.inf, 7.0, 11.0 / 3.0, 13.0 / 3.0, 7.0]
    expected_f = [math.inf, 14.0, 17.0 / 3.0, 13.0 / 3.0, 5.0]
    for h, de, df in zip(facets, expected_e, expected_f):
        got_e = dea_distance(ds, 4, h)
        got_f = dea_distance(ds, 5, h)
        if math.isinf(de):
            assert math.isinf(got_e) and math.isinf(got_f)
        else:
            assert got_e == pytest.approx(de, abs=1e-6)
            assert got_f == pytest.approx(df, abs=1e-6)
    print("PASS 02 all ten finite distances within 1e-6, horizontal "
          "facet infinite")


def test_03_min_uncertainties_and_exact():
    ds = table1_dataset()
    facets = _facets()
    # rounded table values; the 1e-12 slop absorbs the representation
    # error of the 0.005 comparison itself
    expected_e = [(1.50, True), (0.88, False), (0.79, False),
                  (1.30, False), (3.50, False)]
    expected_f = [(3.00, True), (1.75, False), (1.21, False),
                  (1.30, False), (2.50, False)]
    for h, (ve, strict_e), (vf, strict_f) in zip(facets, expected_e,
                                                 expected_f):
        got_e = min_uncertainty_to_facet(ds, 4, h)
        got_f = min_uncertainty_to_facet(ds, 5, h)
        assert abs(got_e.value - ve) <= 0.005 + 1e-12
        assert abs(got_f.value - vf) <= 0.005 + 1e-12
        assert got_e.attainable_at_equality != strict_e
        assert got_f.attainable_at_equality != strict_f
    fs = enumerate_efficient_facets(ds)
    out_e = exact_udea(ds, 4, facet_set=fs)
    out_f = exact_udea(ds, 5, facet_set=fs)
    assert out_e.upsilon == pytest.approx(11.0 / 14.0, abs=1e-6)
    assert out_f.upsilon == pytest.approx(17.0 / 14.0, abs=1e-6)
    assert fs.generators[out_e.facet_index] == [1, 2]   # B and C
    assert fs.generators[out_f.facet_index] == [1, 2]
    print("PASS 03 table of minimum uncertainties within 0.005; exact "
          "minima 11/14 and 17/14 on the B-C facet")


def test_04_segment_selection():
    ds = table1_dataset()
    xs = np.array([1.0, 3.0, 7.0, 10.0])
    ys = np.array([1.0, 4.0, 7.0, 8.0])
    assert select_segment_2d(xs, ys, 8.0, 5.0) == Segment2D("segment", 1, 2)
    assert select_segment_2d(xs, ys, 6.0, 2.0) == Segment2D("segment", 1, 2)
    rng = np.random.default_rng(SEED)
    checked = 0
    while checked < 200:
        rds = random_dataset_2d(rng)
        ext = sorted_extremes_2d(rds)
        if ext is None:
            continue
        _, exs, eys = ext
        for dmu in range(rds.n_units):
            if solve_nominal(rds, dmu).efficient:
                continue
            seg = select_segment_2d(exs, eys, rds.X[0, dmu], rds.Y[0, dmu])
            chosen = segment_min_uncertainty(rds, dmu, seg, exs, eys)
            candidates = [
                segment_min_uncertainty(rds, dmu,
                                        Segment2D("vertical", 0, 0),
                                        exs, eys),
                segment_min_uncertainty(
                    rds, dmu,
                    Segment2D("horizontal", exs.size - 1, exs.size - 1),
                    exs, eys),
            ] + [
                segment_min_uncertainty(rds, dmu,
                                        Segment2D("segment", k, k + 1),
                                        exs, eys)
                for k in range(exs.size - 1)
            ]
            assert chosen == pytest.approx(min(candidates), abs=1e-9)
        checked += 1
    print("PASS 04 segment rule picks B-C for both example units and "
          "matches the facet argmin on 200 random 2-d datasets")


def test_05_iterative_bracket():
    ds = table1_dataset()
    cfg = UncertaintyConfig(nu=DEFAULT_CAP, step=0.01)
    out_e = iterative_udea(ds, 4, cfg)
    out_f = iterative_udea(ds, 5, cfg)
    assert 0.79 <= out_e.upsilon < 0.80
    assert 1.21 <= out_f.upsilon < 1.22
    half = UncertaintyConfig(nu=DEFAULT_CAP, step=0.005)
    for dmu, coarse in ((4, out_e), (5, out_f)):
        fine = iterative_udea(ds, dmu, half)
        assert (fine.bracket[1] - fine.bracket[0]) < \
            (coarse.bracket[1] - coarse.bracket[0])
    print("PASS 05 iterative minima 0.79 and 1.21 with step 0.01; "
          "halving the step tightens both brackets")


def _monotone_and_capable(eps, reach):
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        ds = random_dataset(rng, max_units=12, max_dim=3)
        dmu = int(rng.integers(ds.n_units))
        nominal = solve_nominal(ds, dmu).theta
        prev = -np.inf
        for sigma in np.linspace(0.0, reach(ds), 20):
            theta = robust_efficiency(ds, dmu, float(sigma), eps).theta
            assert theta >= prev - 1e-7
            assert theta >= nominal - 1e-7
            prev = theta
        cap = float(ds.X[:, dmu].max()) - eps
        assert robust_efficiency(ds, dmu, cap, eps).theta >= 1.0 - 1e-6


def test_06_monotonicity_and_capability():
    _monotone_and_capable(1e-6, lambda ds: 2.0)
    print("PASS 06 robust scores non-decreasing over a 20-point sigma grid "
          "on 100 random datasets; capability below the max-input cap")


def test_06_monotonicity_and_capability_default_eps():
    # the default floor sits at the pivot tolerance; past a unit's own
    # input the score is 1 without a solve
    _monotone_and_capable(DEFAULT_EPS, lambda ds: 1.5 * ds.X.max())
    print("PASS 06 at the default eps: robust scores non-decreasing and at "
          "least nominal for sigma up to 1.5 x max(X)")


def test_07_corner_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n_units = int(rng.integers(2, 5))
        ds = DeaDataset(
            names=[f"u{k}" for k in range(n_units)],
            X=rng.uniform(1.0, 5.0, size=(1, n_units)).round(2),
            Y=rng.uniform(1.0, 5.0, size=(1, n_units)).round(2),
        )
        dmu = int(rng.integers(n_units))
        sigma = round(float(rng.uniform(0.1, 0.6)), 2)
        corner = robust_efficiency(ds, dmu, sigma).theta
        exhaustive = best_corner_score(ds, dmu, sigma)
        assert exhaustive <= corner + 1e-9
    print("PASS 07 exhaustive corner enumeration never beats the single "
          "favourable-corner transform by more than 1e-9 on 50 datasets")


def test_08_exact_vs_iterative():
    rng = np.random.default_rng(SEED)
    step = 0.01
    cfg = UncertaintyConfig(nu=np.inf, step=step)
    compared = 0
    checked = 0
    while checked < 25:
        ds = random_dataset_2d(rng)
        fs = enumerate_efficient_facets(ds)
        for dmu in range(ds.n_units):
            if solve_nominal(ds, dmu).efficient:
                continue
            exact = exact_udea(ds, dmu, facet_set=fs).upsilon
            if exact + step >= min(ds.Y.min(), ds.X[0, dmu]):
                continue  # nonnegativity clamp breaks the facet formula
            approx = iterative_udea(ds, dmu, cfg).upsilon
            assert abs(approx - exact) < step
            compared += 1
        checked += 1
    assert compared >= 25
    print(f"PASS 08 |exact - iterative| < t on {compared} unit solves")


def test_09_units_invariance():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        ds = random_dataset(rng)
        factors = rng.uniform(0.1, 10.0, size=ds.n_inputs + ds.n_outputs)
        scaled = scale_dataset(ds, factors)
        for a, b in zip(solve_all(ds), solve_all(scaled)):
            assert abs(a.theta - b.theta) <= 1e-7
    print("PASS 09 nominal scores invariant to positive rescaling "
          "within 1e-7")


def test_10_case_study_configuration():
    assert 70.3 * RADIOTHERAPY_OUTPUT_FACTOR == pytest.approx(100.0,
                                                              abs=1e-9)
    assert 70.0 * RADIOTHERAPY_INPUT_FACTOR == pytest.approx(100.0)
    assert DEFAULT_CAP == 3.6
    assert DEFAULT_STEP == 0.01
    ds = DeaDataset(names=["p1", "p2"], X=[[1.0, 2.0]],
                    Y=[[3.0, 4.0], [5.0, 6.0]],
                    env_outputs=[False, True])
    t = transform_box(ds, 0, 1.0)
    assert np.array_equal(t.Y[1], ds.Y[1])
    assert not np.array_equal(t.Y[0], ds.Y[0])
    print("PASS 10 preset scaling maps 70.3 to 100.0, defaults are "
          "nu=3.6 and t=0.01, environmental columns unperturbed")
