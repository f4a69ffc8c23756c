import dataclasses
import math
import time

import numpy as np
import pytest

import udea.robust
from helpers import (CLAMP_X, CLAMP_Y, clamp_dataset, count_lps,
                     linear_walk_udea, random_dataset, random_dataset_2d,
                     table1_dataset, table1_plus_g)
from conftest import DATA_DIR
from udea.cli import RunConfig, _compute, apply_scaling, ingest_csv
from udea.dataset import SCORE_TOL, DeaDataset, solve_nominal
from udea.facets import enumerate_efficient_facets, exact_udea
from udea.iterative import _grid_index, iterative_udea
from udea.lp import SolverFault
from udea.outcome import UdeaOutcome
from udea.robust import UncertaintyConfig, _directional_optimum


def test_example_units(table1):
    cfg = UncertaintyConfig(nu=3.6, step=0.01)
    e = iterative_udea(table1, 4, cfg)
    assert e.capable
    assert e.upsilon == pytest.approx(0.79, abs=1e-12)
    assert e.bracket == pytest.approx((0.78, 0.79))
    assert e.gamma == pytest.approx(1.0, abs=1e-6)
    f = iterative_udea(table1, 5, cfg)
    assert f.capable
    assert f.upsilon == pytest.approx(1.21, abs=1e-12)
    assert f.bracket == pytest.approx((1.21, 1.22))


def test_efficient_unit_short_circuits(table1):
    out = iterative_udea(table1, 0)
    assert out.upsilon == 0.0
    assert out.bracket == (0.0, 0.0)
    assert len(out.trace) == 1
    assert out.capable


def test_cap_exhaustion(table1):
    cfg = UncertaintyConfig(nu=0.5, step=0.01)
    out = iterative_udea(table1, 4, cfg)
    assert not out.capable
    assert out.upsilon is None
    assert out.gamma == pytest.approx(37.0 / 45.0, abs=1e-9)
    # final trace entry is the solve at the cap itself
    assert out.trace[-1][0] == pytest.approx(0.5)


def test_cap_attained_exactly():
    # minimum sits on a grid point equal to the cap
    from helpers import table1_dataset
    ds = table1_dataset()
    cfg = UncertaintyConfig(nu=11.0 / 14.0, step=11.0 / 14.0 / 2.0)
    out = iterative_udea(ds, 4, cfg)
    assert out.capable
    assert out.upsilon == pytest.approx(11.0 / 14.0, abs=1e-9)


def test_trace_scores_monotone(table1):
    for dmu in range(table1.n_units):
        out = iterative_udea(table1, dmu, UncertaintyConfig(nu=1.0,
                                                            step=0.05))
        scores = [s for _, s in out.trace]
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))


def test_bracket_contains_exact_value(table1):
    exact = exact_udea(table1, 4).upsilon
    out = iterative_udea(table1, 4, UncertaintyConfig(nu=3.6, step=0.01))
    lo, hi = out.bracket
    assert lo <= exact + 1e-12 <= hi + 1e-12


def test_halving_the_step_tightens(table1):
    coarse = iterative_udea(table1, 4, UncertaintyConfig(step=0.08))
    fine = iterative_udea(table1, 4, UncertaintyConfig(step=0.04))
    exact = 11.0 / 14.0
    assert abs(fine.upsilon - exact) <= abs(coarse.upsilon - exact) + 1e-12
    assert fine.bracket[1] - fine.bracket[0] == pytest.approx(0.04)


def test_sweep_matches_per_unit(table1):
    # the batch run over every unit (CLI iterative mode) gives each unit's
    # own iterative_udea answer, in order
    cfg = UncertaintyConfig(nu=3.6, step=0.01)
    _, rows = _compute(RunConfig(mode="iterative"), table1, cfg)
    assert len(rows) == table1.n_units
    for i, row in enumerate(rows):
        single = iterative_udea(table1, i, cfg)
        assert row[0] == table1.names[i]
        assert row[2] == ("" if single.upsilon is None else single.upsilon)
        assert row[-1] == single.capable


def _assert_capability_from_trace(out, cfg):
    # capable iff some probed sigma, all at most nu, reached efficiency
    assert all(sigma <= cfg.nu for sigma, _ in out.trace)
    assert out.capable == any(score >= 1.0 - SCORE_TOL
                              for _, score in out.trace)


def test_classify_capability(table1):
    cfg = UncertaintyConfig(nu=3.6, step=0.01)
    out = iterative_udea(table1, 4, cfg)
    assert out.capable
    _assert_capability_from_trace(out, cfg)
    capped = UncertaintyConfig(nu=0.5, step=0.01)
    out2 = iterative_udea(table1, 4, capped)
    assert not out2.capable
    assert out2.trace[-1][0] == 0.5  # the cap itself was probed
    _assert_capability_from_trace(out2, capped)


def test_capable_is_the_one_capability_field():
    fields = {f.name: f.type for f in dataclasses.fields(UdeaOutcome)}
    assert fields["capable"] is bool
    assert "capability" not in fields
    assert UdeaOutcome(dmu=0).capable is False


def test_iterative_within_one_step_of_exact(rng):
    step = 0.01
    cfg = UncertaintyConfig(nu=np.inf, step=step)
    checked = 0
    while checked < 20:
        ds = random_dataset_2d(rng)
        try:
            fs = enumerate_efficient_facets(ds)
        except ValueError:
            continue
        for dmu in range(ds.n_units):
            if solve_nominal(ds, dmu).efficient:
                continue
            exact = exact_udea(ds, dmu, facet_set=fs).upsilon
            # the facet formula ignores the nonnegativity clamps; skip
            # cases where a clamp engages before the threshold is reached
            if exact + step >= min(ds.Y.min(), ds.X[0, dmu]):
                continue
            approx = iterative_udea(ds, dmu, cfg).upsilon
            assert abs(approx - exact) <= step + 1e-9
        checked += 1


def test_terminates_with_infinite_cap(table1):
    # even with nu = inf the grid walk stops once efficiency is reached
    out = iterative_udea(table1, 5, UncertaintyConfig(nu=np.inf, step=0.1))
    assert out.capable
    assert out.upsilon == pytest.approx(1.2, abs=1e-9)


def test_grid_too_fine_for_the_data_raises():
    # a step of 0.01 against data of order 1e300 needs about 1e302 grid
    # points; past 2**52 of them neighbouring points round together
    ds = DeaDataset(names=["a", "b"], X=[[1e300, 2e300]], Y=[[1.0, 1.0]])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="sigma grid"):
        iterative_udea(ds, 1, UncertaintyConfig(nu=np.inf))
    assert time.perf_counter() - start < 1.0
    assert _grid_index(2.0**51, 1.0) == 2**51
    for value, t in ((1e300, 0.01), (1e300, 1e-10), (2.0**52, 1.0),
                     (math.nan, 0.01), (math.inf, 0.01)):
        with pytest.raises(ValueError, match="sigma grid"):
            _grid_index(value, t)


def _assert_same_as_walk(ds, dmu, cfg, ref=None):
    if ref is None:
        ref = linear_walk_udea(ds, dmu, cfg)
    out = iterative_udea(ds, dmu, cfg)
    assert out.upsilon == ref.upsilon
    assert out.bracket == ref.bracket
    assert out.gamma.hex() == ref.gamma.hex()
    assert out.capable == ref.capable
    sigmas = [s for s, _ in out.trace]
    assert sigmas == sorted(sigmas)
    walked = dict(ref.trace)
    for sigma, score in out.trace:
        if sigma in walked:
            assert score == walked[sigma]
    _assert_capability_from_trace(out, cfg)
    return out


# (nu, step): the case-study grid, an unbounded cap, coarse grids and a cap
# that is itself a grid point
SEARCH_CONFIGS = [(3.6, 0.01), (np.inf, 0.01), (0.5, 0.2), (1.0, 0.3),
                  (11.0 / 14.0, 11.0 / 28.0), (2.0, 0.05)]


@pytest.mark.parametrize("nu, step", SEARCH_CONFIGS)
def test_search_matches_walk_table1(table1, nu, step):
    for dmu in range(table1.n_units):
        _assert_same_as_walk(table1, dmu,
                             UncertaintyConfig(nu=nu, step=step))


@pytest.mark.parametrize("nu, step", SEARCH_CONFIGS)
def test_search_matches_walk_example_csv(example1_csv, nu, step):
    ds = ingest_csv(example1_csv)
    for dmu in range(ds.n_units):
        _assert_same_as_walk(ds, dmu, UncertaintyConfig(nu=nu, step=step))


# the eps floor and the zero floor bind well below 1.5 x max(X) here
@pytest.mark.parametrize("nu, step", [(1.5 * max(CLAMP_X), 0.05),
                                      (1.5 * max(CLAMP_X), 0.5),
                                      (3.5, 0.01), (3.0, 0.5), (1.2, 0.1),
                                      (np.inf, 0.05)])
def test_search_matches_walk_where_clamps_bind(nu, step):
    ds = clamp_dataset()
    for dmu in range(ds.n_units):
        _assert_same_as_walk(ds, dmu, UncertaintyConfig(nu=nu, step=step))


# with eps = 0 a one-input unit has no positive input left once sigma
# reaches it, which transform_box rejects; the search must stop where the
# walk does, by half the smallest own input
@pytest.mark.parametrize("data, nu, step", [
    ("table1_plus_g", np.inf, 0.01), ("table1_plus_g", 3.6, 0.01),
    ("table1_plus_g", 20.0, 0.3), ("clamp", np.inf, 0.05),
    ("clamp", 1.5 * max(CLAMP_X), 0.05), ("clamp", 3.5, 0.01),
    ("clamp", 1.5 * max(CLAMP_X), 0.5)])
def test_search_matches_walk_at_zero_eps(data, nu, step):
    ds = {"table1_plus_g": table1_plus_g, "clamp": clamp_dataset}[data]()
    cfg = UncertaintyConfig(nu=nu, step=step, eps=0.0)
    for dmu in range(ds.n_units):
        _assert_same_as_walk(ds, dmu, cfg)


@pytest.mark.parametrize("dmu, k", [(1, 10), (2, 13), (3, 6), (6, 21)])
def test_search_matches_walk_when_grid_grazes_own_input(dmu, k):
    # outputs lifted clear of the cap, so the unit's own input is the first
    # value to reach a floor; the grid point k * step falls one rounding
    # error short of it, where the eps floor already lifts the input
    ds = DeaDataset(names=[f"u{j}" for j in range(len(CLAMP_X))],
                    X=[CLAMP_X], Y=[np.array(CLAMP_Y) + 5.0])
    step = CLAMP_X[dmu] / k
    assert 0.0 < CLAMP_X[dmu] - k * step < 1e-9
    _assert_same_as_walk(ds, dmu, UncertaintyConfig(nu=CLAMP_X[dmu] + 1.0,
                                                    step=step))


@pytest.mark.parametrize("fixture",
                         ["case_study_s11_p0.csv", "case_study_s3_p4.csv"])
def test_search_matches_walk_on_case_study(fixture):
    # the paper's case study (nu = 3.6, t = 0.01, an env column), where
    # the seed's weights settle the point below it and the midpoint
    config = RunConfig(mode="iterative", preset="radiotherapy")
    ds = apply_scaling(ingest_csv(DATA_DIR / fixture), config)
    cfg = UncertaintyConfig(nu=config.nu, step=config.step, eps=config.eps)
    for dmu in range(ds.n_units):
        _assert_same_as_walk(ds, dmu, cfg)


def test_search_matches_walk_random(rng):
    configs = [(3.6, 0.05), (1.0, 0.01), (2.5, 0.3), (4.0, 0.1)]
    for case in range(24):
        ds = random_dataset(rng, max_units=8)
        nu, step = configs[case % len(configs)]
        for dmu in range(ds.n_units):
            _assert_same_as_walk(ds, dmu, UncertaintyConfig(nu=nu, step=step))


def test_search_matches_walk_random_unbounded_cap(rng):
    # with nu = inf the walk only stops on success, so keep units that a
    # finite cap shows succeed on the grid
    checked = 0
    while checked < 20:
        ds = random_dataset(rng, max_units=8)
        dmu = int(rng.integers(ds.n_units))
        step = 0.05
        capped = linear_walk_udea(ds, dmu, UncertaintyConfig(nu=6.0,
                                                             step=step))
        if not capped.capable or capped.upsilon >= 6.0 - step:
            continue
        out = _assert_same_as_walk(ds, dmu,
                                   UncertaintyConfig(nu=np.inf, step=step))
        assert out.upsilon == capped.upsilon
        checked += 1


def _assert_bisection_solve_count(ds, monkeypatch):
    """At most 3 + ceil(log2 359) LPs per unit on the case-study grid, the
    directional-distance one included, sorted traces, and the walk's
    results; returns how many units needed a search."""
    cfg = UncertaintyConfig(nu=3.6, step=0.01)
    n_grid = 359  # k * 0.01 < 3.6 for k = 1 .. 359
    assert 359 * cfg.step < cfg.nu <= 360 * cfg.step
    calls = count_lps(monkeypatch)
    capable = 0
    for dmu in range(ds.n_units):
        calls.clear()
        out = iterative_udea(ds, dmu, cfg)
        assert len(calls) <= 3 + math.ceil(math.log2(n_grid))
        sigmas = [s for s, _ in out.trace]
        assert sigmas == sorted(sigmas)
        capable += out.capable and out.upsilon > 0
    monkeypatch.undo()
    for dmu in range(ds.n_units):
        _assert_same_as_walk(ds, dmu, cfg)
    return capable


def test_search_solve_count(monkeypatch):
    # shifted Table 1: every input and output exceeds the cap, so no clamp
    # binds below it and the whole grid is bisected
    base = table1_dataset()
    ds = DeaDataset(names=base.names, X=base.X + 10.0, Y=base.Y + 10.0)
    # the count covers real bisections
    assert _assert_bisection_solve_count(ds, monkeypatch) >= 2


def test_search_solve_count_where_floors_bind(monkeypatch):
    # G's output is on the zero floor in the other corners, so the search
    # runs where a floor binds
    ds = table1_plus_g()
    assert _assert_bisection_solve_count(ds, monkeypatch) == 3  # E, F, G


def test_seeded_search_solve_count(monkeypatch):
    # as above, with every grid point clamp-free: the seed from one
    # directional-distance LP is exact, its weights prove that the point
    # below it fails and its duals that the seed point succeeds, and one
    # or the other settles the rounding midpoint, so an inefficient unit
    # needs only the solve at sigma = 0 and the seed LP
    base = table1_dataset()
    ds = DeaDataset(names=base.names, X=base.X + 10.0, Y=base.Y + 10.0)
    cfg = UncertaintyConfig(nu=3.6, step=0.01)
    seed_calls = []

    def seed(*args, **kwargs):
        seed_calls.append(1)
        return _directional_optimum(*args, **kwargs)

    lps = count_lps(monkeypatch)
    monkeypatch.setattr(udea.robust, "_directional_optimum", seed)
    inefficient = 0
    for dmu in range(ds.n_units):
        lps.clear()
        seed_calls.clear()
        out = iterative_udea(ds, dmu, cfg)
        # every LP but the seed's is a robust solve
        robust_calls = len(lps) - len(seed_calls)
        if out.upsilon == 0.0:
            assert (robust_calls, len(seed_calls)) == (1, 0)
        else:
            assert (robust_calls, len(seed_calls)) == (1, 1)
            inefficient += 1
    assert inefficient == 2  # E and F


@pytest.mark.parametrize("nu, lps", [(0.0, 1), (0.005, 2)])
def test_cap_within_one_step_solve_count(nu, lps, monkeypatch):
    # with the cap at or below one step the grid holds only sigma = 0: the
    # directional distance has no probe to settle, and at nu = 0 the cap's
    # score is the sigma = 0 one
    ds = DeaDataset(names=list("ABCDE"), X=[[2, 3, 6, 4, 5]],
                    Y=[[2, 5, 7, 3, 3]])
    cfg = UncertaintyConfig(nu=nu, step=0.01)
    calls = count_lps(monkeypatch)
    for dmu in (3, 4):  # D and E, the inefficient units
        calls.clear()
        out = iterative_udea(ds, dmu, cfg)
        assert len(calls) == lps
        theta = solve_nominal(ds, dmu).theta
        at_nu = udea.robust.robust_efficiency(ds, dmu, nu).theta
        assert theta < 1.0 - SCORE_TOL
        assert out == UdeaOutcome(dmu=dmu, gamma=at_nu,
                                  trace=[(0.0, theta), (nu, at_nu)])


def _wrong_seeds(step, rng):
    """Seeds for (beta*, lam*, duals) that are off by grid steps or more,
    or unusable, in beta* (with the true lam* and duals), in lam* or in
    the duals (with the true rest)."""
    def shifted(delta):
        def seed(ds, dmu):
            beta, lam, duals = _directional_optimum(ds, dmu)
            return beta + delta, lam, duals
        return seed

    def constant(value):
        def seed(ds, dmu):
            _, lam, duals = _directional_optimum(ds, dmu)
            return value, lam, duals
        return seed

    def failing(ds, dmu):
        raise SolverFault("simplex iteration limit reached in phase 1")

    def weights(make):
        def seed(ds, dmu):
            beta, lam, duals = _directional_optimum(ds, dmu)
            return beta, make(ds, dmu, lam), duals
        return seed

    def rival_vertex(ds, dmu, lam):
        lam = np.zeros(ds.n_units)
        lam[(dmu + 1) % ds.n_units] = 1.0
        return lam

    def round_off_negatives(ds, dmu, lam):
        lam = lam.copy()
        lam[lam == 0.0] = -1e-13
        lam[np.argmax(lam)] += 1.0 - lam.sum()
        return lam

    def duals(make):
        def seed(ds, dmu):
            beta, lam, own = _directional_optimum(ds, dmu)
            return beta, lam, make(ds, dmu, own)
        return seed

    def rival_duals(ds, dmu, duals):
        return _directional_optimum(ds, (dmu + 1) % ds.n_units)[2]

    def one_side(ds, dmu, duals):
        # input weights only: every output weight set to 0
        duals = duals.copy()
        duals[:ds.n_outputs] = 0.0
        return duals

    return [shifted(2 * step), shifted(-2 * step), shifted(0.3),
            shifted(-0.3), constant(0.0), constant(1e300),
            constant(math.inf), constant(math.nan), failing,
            weights(lambda ds, dmu, lam: rng.dirichlet(np.ones(ds.n_units))),
            weights(rival_vertex),
            weights(lambda ds, dmu, lam: np.full(ds.n_units, math.nan)),
            weights(round_off_negatives),
            duals(lambda ds, dmu, d: rng.uniform(0.0, 1.0, d.size)),
            duals(rival_duals), duals(one_side),
            duals(lambda ds, dmu, d: np.zeros(d.size)),
            duals(lambda ds, dmu, d: np.full(d.size, math.nan)),
            duals(lambda ds, dmu, d: None)]


def _wrong_seed_cases(rng, example1_csv):
    base = table1_dataset()
    yield base, UncertaintyConfig(nu=3.6, step=0.01)
    yield base, UncertaintyConfig(nu=1.0, step=0.3)
    yield ingest_csv(example1_csv), UncertaintyConfig(nu=3.6, step=0.05)
    for _ in range(6):
        # shifted clear of the floors, so the seed lies on the bisected span
        ds = random_dataset(rng, max_units=8)
        yield (DeaDataset(names=ds.names, X=ds.X + 3.0, Y=ds.Y + 3.0),
               UncertaintyConfig(nu=3.6, step=0.05))
    yield random_dataset(rng, max_units=8), UncertaintyConfig(nu=2.5,
                                                              step=0.1)


def test_wrong_seed_gives_walk_result(rng, example1_csv, monkeypatch):
    for ds, cfg in _wrong_seed_cases(rng, example1_csv):
        for dmu in range(ds.n_units):
            ref = linear_walk_udea(ds, dmu, cfg)
            for seed in _wrong_seeds(cfg.step, rng):
                monkeypatch.setattr(udea.robust, "_directional_optimum",
                                    seed)
                _assert_same_as_walk(ds, dmu, cfg, ref)
