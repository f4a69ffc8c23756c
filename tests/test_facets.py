import math

import numpy as np
import pytest

from helpers import (clamp_dataset, random_dataset_2d,
                     segment_min_uncertainty, select_segment_2d,
                     sorted_extremes_2d)
from udea.dataset import DeaDataset, solve_nominal
from udea.facets import (DEFAULT_UNIT_LIMIT, FacetSet, SizeLimitError,
                         enumerate_efficient_facets, exact_udea)
from udea.geometry import Hyperplane, min_uncertainty_to_facet


def facet_key(h):
    return tuple(np.round(np.concatenate([h.alpha, h.beta, [h.d]]), 6))


def test_example_frontier_has_five_facets(table1):
    fs = enumerate_efficient_facets(table1)
    assert len(fs) == 5
    kinds = sorted(h.kind for h in fs)
    assert kinds == ["input-axis", "interior", "interior", "interior",
                     "output-axis"]
    # the three interior facets are the lines through A-B, B-C and C-D
    expected = {
        facet_key_from(3.0, -2.0, 1.0),
        facet_key_from(3.0, -4.0, -7.0),
        facet_key_from(1.0, -3.0, -14.0),
        facet_key_from(1.0, 0.0, 1.0),
        facet_key_from(0.0, -1.0, -8.0),
    }
    assert {facet_key(h) for h in fs} == expected


def facet_key_from(a, b, d):
    from udea.geometry import Hyperplane
    return facet_key(Hyperplane(alpha=[a], beta=[b], d=d))


def test_facets_support_production_set(table1):
    fs = enumerate_efficient_facets(table1)
    for h, gens in zip(fs.facets, fs.generators):
        vals = [h.value(table1.X[:, i], table1.Y[:, i])
                for i in range(table1.n_units)]
        assert min(vals) >= -1e-7          # all units on or above
        for g in gens:                      # generators lie on the facet
            assert abs(vals[g]) <= 1e-7


def test_single_unit_axis_facets():
    ds = DeaDataset(names=["only"], X=[[2.0]], Y=[[3.0]])
    fs = enumerate_efficient_facets(ds)
    assert sorted(h.kind for h in fs) == ["input-axis", "output-axis"]


def test_size_limits():
    many = DeaDataset(
        names=[f"u{k}" for k in range(DEFAULT_UNIT_LIMIT + 1)],
        X=np.ones((1, DEFAULT_UNIT_LIMIT + 1)),
        Y=np.ones((1, DEFAULT_UNIT_LIMIT + 1)),
    )
    with pytest.raises(SizeLimitError):
        enumerate_efficient_facets(many)
    big = DeaDataset(
        names=[f"u{k}" for k in range(4)],
        X=np.ones((3, 4)), Y=np.ones((2, 4)),
    )
    with pytest.raises(SizeLimitError):
        enumerate_efficient_facets(big)


def test_exact_udea_examples(table1):
    e = exact_udea(table1, 4)
    assert e.upsilon == pytest.approx(11.0 / 14.0, abs=1e-9)
    assert e.capable
    assert e.attainable
    assert e.gamma == pytest.approx(1.0, abs=1e-9)
    f = exact_udea(table1, 5)
    assert f.upsilon == pytest.approx(17.0 / 14.0, abs=1e-9)
    assert f.capable
    # both minima are attained on the facet through B and C
    assert facet_key(e.facet) == facet_key(f.facet) == facet_key_from(
        3.0, -4.0, -7.0)


def test_exact_udea_efficient_unit_needs_nothing(table1):
    out = exact_udea(table1, 1)
    assert out.upsilon == pytest.approx(0.0, abs=1e-9)
    assert out.capable


def test_exact_udea_cap(table1):
    capped = exact_udea(table1, 4, nu=0.5)
    assert not capped.capable
    assert capped.upsilon == pytest.approx(11.0 / 14.0, abs=1e-9)
    assert capped.gamma == pytest.approx(37.0 / 45.0, abs=1e-9)
    loose = exact_udea(table1, 4, nu=1.0)
    assert loose.capable


def test_exact_udea_strict_threshold_at_cap():
    # the only route to efficiency is the output-axis facet, whose
    # threshold is strict: equality at the cap is not enough
    ds = DeaDataset(names=["a", "b"], X=[[2.0, 6.0]], Y=[[5.0, 4.5]])
    out = exact_udea(ds, 1)
    assert out.upsilon == pytest.approx(0.25, abs=1e-9)
    assert not out.attainable
    assert out.facet.kind == "output-axis"
    assert not exact_udea(ds, 1, nu=0.25).capable
    assert exact_udea(ds, 1, nu=0.25 + 1e-6).capable


def test_shared_facet_set(table1):
    fs = enumerate_efficient_facets(table1)
    a = exact_udea(table1, 4, facet_set=fs)
    b = exact_udea(table1, 4)
    assert a.upsilon == b.upsilon
    assert a.facet_index == b.facet_index


def test_exact_matches_segment_rule(rng):
    # facet enumeration and the 2-d bucket rule agree on the minimum
    checked = 0
    while checked < 25:
        ds = random_dataset_2d(rng)
        ext = sorted_extremes_2d(ds)
        if ext is None:
            continue
        _, xs, ys = ext
        fs = enumerate_efficient_facets(ds)
        for dmu in range(ds.n_units):
            if solve_nominal(ds, dmu).efficient:
                continue
            seg = select_segment_2d(xs, ys, ds.X[0, dmu], ds.Y[0, dmu])
            expected = segment_min_uncertainty(ds, dmu, seg, xs, ys)
            got = exact_udea(ds, dmu, facet_set=fs).upsilon
            assert got == pytest.approx(expected, abs=1e-7)
        checked += 1


def test_min_over_enumerated_facets(table1):
    fs = enumerate_efficient_facets(table1)
    out = exact_udea(table1, 4, facet_set=fs)
    values = [min_uncertainty_to_facet(table1, 4, h).value for h in fs]
    assert out.upsilon == pytest.approx(min(values), abs=1e-12)


def test_exact_udea_infinite_cap_gamma(table1):
    out = exact_udea(table1, 4, nu=math.inf)
    assert out.gamma == pytest.approx(1.0, abs=1e-9)


def test_exact_udea_gamma_past_own_input():
    # with the data's own facets upsilon* = beta* / 2 stays below half of
    # every own input, so a facet set is passed in: the output-axis facet
    # y = 10 puts unit a (x = 1.568, y = 4.243) at (10 - 4.243) / 2 = 2.8785
    ds = clamp_dataset()
    facet = Hyperplane(alpha=[0.0], beta=[-1.0], d=-10.0)
    out = exact_udea(ds, 0, nu=math.inf, facet_set=FacetSet([facet]))
    assert out.upsilon == pytest.approx(2.8785, abs=1e-12)
    assert out.upsilon > ds.X[0, 0]
    assert out.gamma == 1.0
