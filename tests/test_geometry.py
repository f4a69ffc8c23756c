import math

import numpy as np
import pytest

from helpers import (Segment2D, dea_distance, min_dea_distance,
                     min_uncertainty_2d, random_dataset_2d,
                     segment_hyperplane_2d, segment_min_uncertainty,
                     select_segment_2d, sorted_extremes_2d, target_point,
                     translate_facet)
from udea.dataset import DeaDataset, solve_nominal
from udea.geometry import Hyperplane, min_uncertainty_to_facet

SQ13 = math.sqrt(13.0)


def frontier_facets():
    """The five facets of the example frontier, steepest first."""
    return [
        Hyperplane(alpha=[0.0], beta=[-1.0], d=-8.0),       # y = 8
        Hyperplane(alpha=[1.0], beta=[-3.0], d=-14.0),      # through C, D
        Hyperplane(alpha=[3.0], beta=[-4.0], d=-7.0),       # through B, C
        Hyperplane(alpha=[3.0], beta=[-2.0], d=1.0),        # through A, B
        Hyperplane(alpha=[1.0], beta=[0.0], d=1.0),         # x = 1
    ]


def test_hyperplane_normalisation_and_kind():
    h = Hyperplane(alpha=[3.0], beta=[-4.0], d=-7.0)
    assert h.alpha[0] == pytest.approx(0.6)
    assert h.beta[0] == pytest.approx(-0.8)
    assert h.d == pytest.approx(-1.4)
    assert h.kind == "interior"
    assert Hyperplane(alpha=[1.0], beta=[0.0], d=1.0).kind == "input-axis"
    assert Hyperplane(alpha=[0.0], beta=[-1.0], d=-8.0).kind == "output-axis"


def test_hyperplane_rejects_bad_orientation():
    with pytest.raises(ValueError):
        Hyperplane(alpha=[-1.0], beta=[-1.0], d=0.0)
    with pytest.raises(ValueError):
        Hyperplane(alpha=[1.0], beta=[1.0], d=0.0)
    with pytest.raises(ValueError):
        Hyperplane(alpha=[0.0], beta=[0.0], d=1.0)


def test_segment_hyperplane_matches_line_through_b_and_c():
    h = segment_hyperplane_2d(3.0, 4.0, 7.0, 7.0)
    ref = Hyperplane(alpha=[3.0], beta=[-4.0], d=-7.0)
    assert h.alpha[0] == pytest.approx(ref.alpha[0])
    assert h.beta[0] == pytest.approx(ref.beta[0])
    assert h.d == pytest.approx(ref.d)
    with pytest.raises(ValueError):
        segment_hyperplane_2d(2.0, 1.0, 2.0, 5.0)


def test_example_distances(table1):
    expected_e = [math.inf, 7.0, 11.0 / 3.0, 13.0 / 3.0, 7.0]
    expected_f = [math.inf, 14.0, 17.0 / 3.0, 13.0 / 3.0, 5.0]
    facets = frontier_facets()
    for h, de, df in zip(facets, expected_e, expected_f):
        assert dea_distance(table1, 4, h) == pytest.approx(de, abs=1e-9)
        assert dea_distance(table1, 5, h) == pytest.approx(df, abs=1e-9)
    dist, facet = min_dea_distance(table1, 4, facets)
    assert dist == pytest.approx(11.0 / 3.0, abs=1e-9)
    assert facet is facets[2]


def test_min_dea_distance_rejects_empty(table1):
    with pytest.raises(ValueError):
        min_dea_distance(table1, 4, [])


def test_target_point_on_facet(table1):
    h = frontier_facets()[2]
    t = target_point(table1, 4, h)
    assert t.x[0] == pytest.approx(13.0 / 3.0, abs=1e-9)
    assert t.y[0] == pytest.approx(5.0)
    assert h.value(t.x, t.y) == pytest.approx(0.0, abs=1e-9)
    # fixed-output target input equals theta * x
    theta = solve_nominal(table1, 4).theta
    assert t.x[0] == pytest.approx(theta * table1.X[0, 4], abs=1e-9)
    with pytest.raises(ValueError):
        target_point(table1, 4, frontier_facets()[0])


def test_example_min_uncertainties(table1):
    expected_e = [1.5, 0.875, 11.0 / 14.0, 1.3, 3.5]
    expected_f = [3.0, 1.75, 17.0 / 14.0, 1.3, 2.5]
    for h, ue, uf in zip(frontier_facets(), expected_e, expected_f):
        got_e = min_uncertainty_to_facet(table1, 4, h)
        got_f = min_uncertainty_to_facet(table1, 5, h)
        assert got_e.value == pytest.approx(ue, abs=1e-9)
        assert got_f.value == pytest.approx(uf, abs=1e-9)
        # only the output-axis threshold is strict
        assert got_e.attainable_at_equality == (h.kind != "output-axis")
        assert got_f.attainable_at_equality == (h.kind != "output-axis")


def test_closed_form_2d_matches_general(table1):
    # unit E against the facet through B and C
    v = min_uncertainty_2d(8.0, 5.0, 3.0, 4.0, 0.75)
    assert v == pytest.approx(11.0 / 14.0, abs=1e-12)
    h = segment_hyperplane_2d(3.0, 4.0, 7.0, 7.0)
    assert min_uncertainty_to_facet(table1, 4, h).value == pytest.approx(
        v, abs=1e-9)
    with pytest.raises(ZeroDivisionError):
        min_uncertainty_2d(8.0, 5.0, 3.0, 4.0, -1.0)


def test_segment_selection_example():
    xs = np.array([1.0, 3.0, 7.0, 10.0])
    ys = np.array([1.0, 4.0, 7.0, 8.0])
    assert select_segment_2d(xs, ys, 8.0, 5.0) == Segment2D("segment", 1, 2)
    assert select_segment_2d(xs, ys, 6.0, 2.0) == Segment2D("segment", 1, 2)
    assert select_segment_2d(xs, ys, 1.0, 0.5) == Segment2D("vertical", 0, 0)
    assert select_segment_2d(xs, ys, 12.0, 7.0) == Segment2D(
        "horizontal", 3, 3)


def test_segment_selection_validation():
    with pytest.raises(ValueError):
        select_segment_2d([], [], 1.0, 1.0)
    with pytest.raises(ValueError):
        select_segment_2d([1.0, 1.0], [1.0, 2.0], 1.0, 1.0)


def test_translate_facet(table1):
    h = frontier_facets()[3]                       # through A and B
    sigma = 1.3
    moved = translate_facet(h, sigma)
    assert moved.d == pytest.approx(7.5 / SQ13, abs=1e-12)
    # the virtual point of E at that sigma lies exactly on the moved facet
    assert moved.value([8.0 - sigma], [5.0 + sigma]) == pytest.approx(
        0.0, abs=1e-12)
    with pytest.raises(ValueError):
        translate_facet(h, -0.1)


def test_translate_facet_zero_is_identity():
    h = frontier_facets()[2]
    moved = translate_facet(h, 0.0)
    assert moved.d == pytest.approx(h.d, abs=1e-15)
    assert moved.kind == h.kind


def test_virtual_point_reaches_facet_at_min_uncertainty(table1):
    # moving every unit to its sigma-corner puts the unit's virtual point
    # exactly on the translated facet when sigma equals the minimum
    for dmu in (4, 5):
        for h in frontier_facets()[1:4]:
            sigma = min_uncertainty_to_facet(table1, dmu, h).value
            moved = translate_facet(h, sigma)
            x = table1.X[:, dmu] - sigma
            y = table1.Y[:, dmu] + sigma
            assert moved.value(x, y) == pytest.approx(0.0, abs=1e-9)


def test_segment_selection_matches_facet_argmin(rng):
    # on random one-input/one-output data the bucket rule picks a facet
    # attaining the minimum uncertainty over all frontier pieces
    checked = 0
    while checked < 30:
        ds = random_dataset_2d(rng)
        ext = sorted_extremes_2d(ds)
        if ext is None:
            continue
        _, xs, ys = ext
        for dmu in range(ds.n_units):
            if solve_nominal(ds, dmu).efficient:
                continue
            seg = select_segment_2d(xs, ys, ds.X[0, dmu], ds.Y[0, dmu])
            chosen = segment_min_uncertainty(ds, dmu, seg, xs, ys)
            candidates = [
                segment_min_uncertainty(ds, dmu, Segment2D("vertical", 0, 0),
                                        xs, ys),
                segment_min_uncertainty(
                    ds, dmu, Segment2D("horizontal", xs.size - 1,
                                       xs.size - 1), xs, ys),
            ] + [
                segment_min_uncertainty(ds, dmu,
                                        Segment2D("segment", k, k + 1),
                                        xs, ys)
                for k in range(xs.size - 1)
            ]
            assert chosen == pytest.approx(min(candidates), abs=1e-9)
        checked += 1


def test_distance_and_uncertainty_shrink_with_proximity():
    # a unit closer to the frontier needs strictly less uncertainty
    ds = DeaDataset(names=list("ABCDEG"),
                    X=[[1, 3, 7, 10, 8, 7.0]],
                    Y=[[1, 4, 7, 8, 5, 5.0]])
    h = segment_hyperplane_2d(3.0, 4.0, 7.0, 7.0)
    assert dea_distance(ds, 5, h) < dea_distance(ds, 4, h)
    assert min_uncertainty_to_facet(ds, 5, h).value < \
        min_uncertainty_to_facet(ds, 4, h).value
