import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import DATA_DIR
from helpers import (clamp_dataset, count_lps, per_unit_exact_udea,
                     random_dataset_2d, scalar_exact_choice,
                     scalar_enumerate_facets, segment_min_uncertainty,
                     select_segment_2d, sorted_extremes_2d, svd_unique_normal,
                     table1_dataset)
import udea.facets
from udea.cli import RunConfig, apply_scaling, ingest_csv
from udea.dataset import (DeaDataset, is_extreme, scale_dataset,
                          solve_nominal)
from udea.facets import (DEFAULT_UNIT_LIMIT, FacetSet, SizeLimitError,
                         enumerate_efficient_facets, exact_udea)
from udea.geometry import Hyperplane, min_uncertainty_to_facet
from udea.robust import (DEFAULT_EPS, NO_PROOF, _probe,
                         directional_distance)


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


# the batched enumeration and scoring against the per-candidate and
# per-facet loops they replaced (tests/helpers.py)

def _dataset(X, Y, env=None):
    return DeaDataset(names=[f"u{k}" for k in range(X.shape[1])], X=X, Y=Y,
                      env_outputs=env)


def sphere_dataset(n_units):
    """Units with one input, all equal, and three outputs on the unit
    sphere: every unit is extreme and the frontier is degenerate."""
    rng = np.random.default_rng(0)
    y = np.abs(rng.normal(size=(3, n_units)))
    return _dataset(np.ones((1, n_units)), y / np.linalg.norm(y, axis=0))


def _reference_datasets():
    rng = np.random.default_rng(97)
    out = {"table1": table1_dataset(),
           "example1": ingest_csv(DATA_DIR / "example1.csv"),
           "single": DeaDataset(names=["only"], X=[[2.0]], Y=[[3.0]])}
    # the input/output splits of four variables the benchmark enumerates
    for n_in, n_out in ((2, 2), (1, 3), (3, 1)):
        out[f"split{n_in}{n_out}"] = _dataset(
            rng.uniform(0.5, 10.0, (n_in, 24)).round(3),
            rng.uniform(0.5, 10.0, (n_out, 24)).round(3))
    # small integers: ties, coplanar units and rank-deficient subsets
    for k in range(3):
        out[f"ties{k}"] = _dataset(rng.integers(1, 4, (2, 12)).astype(float),
                                   rng.integers(1, 4, (1 + k % 2, 12))
                                   .astype(float))
    # four units twice, and units on the input and output axes
    base = rng.uniform(1.0, 5.0, (3, 10)).round(2)
    base = np.hstack([base, base[:, :4]])
    out["duplicated"] = _dataset(base[:2], base[2:])
    out["axes"] = _dataset(np.array([[1.0, 1.0, 1.0, 2.0, 4.0, 3.0]]),
                           np.array([[1.0, 2.0, 4.0, 4.0, 4.0, 2.0]]))
    out["env"] = _dataset(rng.uniform(0.5, 5.0, (1, 12)).round(3),
                          rng.uniform(0.5, 5.0, (2, 12)).round(3),
                          env=[False, True])
    # every facet spanned by many candidates; Table 1 with B twice
    out["sphere"] = sphere_dataset(12)
    out["table1_dup"] = ingest_csv(DATA_DIR / "table1_dup.csv")
    # the facet through the first two units has alpha = 0.60000035, on a
    # 7-decimal rounding boundary of the facet key
    a = 0.60000035
    out["key_boundary"] = _dataset(np.array([[1.0, 1.0 + math.sqrt(1 - a * a),
                                              3.0]]),
                                   np.array([[1.0, 1.0 + a, 1.0]]))
    # Table 1 plus H = (3 / (1 + 5e-7), 4): B and H reproduce each other
    # within SCORE_TOL, and H dominates B
    out["near_duplicate"] = near_duplicate_dataset(4.0)
    return out


def near_duplicate_dataset(y_h):
    """Table 1 plus H = (3 / (1 + 5e-7), ``y_h``), which B reproduces
    within SCORE_TOL for ``y_h`` near B's output 4."""
    t1 = table1_dataset()
    return DeaDataset(names=t1.names + ["H"],
                      X=np.hstack([t1.X, [[3.0 / (1.0 + 5e-7)]]]),
                      Y=np.hstack([t1.Y, [[y_h]]]))


REFERENCE_DATASETS = _reference_datasets()


@pytest.mark.parametrize("name", sorted(REFERENCE_DATASETS))
def test_enumeration_matches_candidate_loop(name):
    ds = REFERENCE_DATASETS[name]
    got = enumerate_efficient_facets(ds)
    ref = scalar_enumerate_facets(ds)
    assert len(got) == len(ref) > 0
    assert got.generators == ref.generators
    for h, r in zip(got.facets, ref.facets):
        assert h.alpha.tobytes() == r.alpha.tobytes()
        assert h.beta.tobytes() == r.beta.tobytes()
        assert h.d.hex() == r.d.hex()
        assert h.kind == r.kind


@pytest.mark.parametrize("name", sorted(REFERENCE_DATASETS))
def test_scoring_matches_facet_loop(name):
    ds = REFERENCE_DATASETS[name]
    fs = enumerate_efficient_facets(ds)
    for nu in (math.inf, 0.5):
        for i in range(ds.n_units):
            out = exact_udea(ds, i, nu=nu, facet_set=fs)
            k, upsilon, attainable = scalar_exact_choice(ds, i, fs.facets)
            assert out.facet_index == k
            assert out.attainable == attainable
            assert out.capable == (upsilon < nu
                                   or (upsilon <= nu and attainable))
            assert out.upsilon == pytest.approx(upsilon, rel=1e-12,
                                                abs=1e-12)


def _cli_fixtures():
    """(name, dataset) of every committed fixture as the CLI scales it."""
    for path in sorted(DATA_DIR.glob("*.csv")):
        preset = "radiotherapy" if path.stem.startswith("case_study") else None
        yield path.stem, apply_scaling(ingest_csv(path),
                                       RunConfig(mode="exact", preset=preset))


PIN_DATASETS = {**REFERENCE_DATASETS,
                **{f"data/{name}": ds for name, ds in _cli_fixtures()}}


@pytest.mark.parametrize("name", sorted(PIN_DATASETS))
def test_exact_udea_matches_per_unit_reference(name, monkeypatch):
    # the rates and certificates a set keeps give every outcome the bits
    # of the per-unit solver that recomputed them for each unit, and as
    # many gamma solves: any certificate proves only what holds, so one
    # kept for the wrong facet shows as a solve it should have spared
    ds = PIN_DATASETS[name]
    fs = enumerate_efficient_facets(ds)
    calls = count_lps(monkeypatch)
    for nu in (math.inf, 0.5):
        for i in range(ds.n_units):
            calls.clear()
            out = exact_udea(ds, i, nu=nu, facet_set=fs)
            solves = len(calls)
            calls.clear()
            ref = per_unit_exact_udea(ds, i, nu, fs)
            assert solves == len(calls)
            assert out.upsilon.hex() == ref.upsilon.hex()
            assert float(out.gamma).hex() == float(ref.gamma).hex()
            assert out.capable == ref.capable
            assert out.attainable == ref.attainable
            assert out.facet_index == ref.facet_index


def test_set_scores_follow_the_environmental_mask():
    # one set scored in turn against the env dataset, the same arrays with
    # no environmental row, other values, a copy (a new object) and the env
    # dataset again scores each as a set built afresh does, and solves each
    # unit as the per-unit reference does, bit for bit: the scores it keeps
    # are those of the dataset asked about
    env = REFERENCE_DATASETS["env"]
    datasets = (("env", env), ("plain", DeaDataset(env.names, env.X, env.Y)),
                ("scaled", scale_dataset(env, [2.0, 0.5, 3.0])),
                ("copy", replace(env)), ("env", env))

    def scores(ds, fs):
        values, attainable, facet = fs.scores(ds)
        out = [values.tobytes(), attainable.tobytes(), facet.tobytes()]
        for i in range(ds.n_units):
            e = exact_udea(ds, i, facet_set=fs)
            ref = per_unit_exact_udea(ds, i, math.inf, fs)
            assert (e.upsilon.hex(), float(e.gamma).hex(), e.capable,
                    e.attainable, e.facet_index) == (
                ref.upsilon.hex(), float(ref.gamma).hex(), ref.capable,
                ref.attainable, ref.facet_index)
            out.append((e.upsilon.hex(), float(e.gamma).hex()))
        return out
    shared = enumerate_efficient_facets(env)
    got = {}
    for name, ds in datasets:
        fresh = FacetSet(shared.facets, shared.generators, shared.tol)
        got[name] = scores(ds, shared)
        assert got[name] == scores(ds, fresh), name
    # the mask and the values move the scores, so scores kept for another
    # dataset show
    assert got["env"][0] != got["plain"][0] != got["scaled"][0]
    assert got["copy"] == got["env"]


def test_attaining_facet_is_the_sorted_first():
    # the smallest rounded value, an attainable facet first on ties, then
    # the lowest index, a nan value last: the per-unit sort's pick.  Here C
    # ties a strict (output-axis) facet with a later attainable one, A ties
    # two attainable ones, and facets whose d is nan score nan
    ds = table1_dataset()
    nan_strict = Hyperplane([0.0], [-1.0], math.nan)
    facets = [Hyperplane([1.0], [0.0], 1.0), Hyperplane([0.0], [-1.0], -8.0),
              Hyperplane([0.0], [-1.0], -7.0), Hyperplane([3.0], [-3.0], 0.0),
              Hyperplane([1.0], [-1.0], math.nan)]
    for fs in (FacetSet(facets), FacetSet([nan_strict, facets[-1]]),
               FacetSet([nan_strict, facets[1]])):
        values, attainable, facet = fs.scores(ds)
        for i in range(ds.n_units):
            key = np.round(values[:, i], 12)
            assert facet[i] == np.lexsort((~attainable, key))[0], (fs, i)


@pytest.mark.parametrize("name", sorted(REFERENCE_DATASETS))
def test_one_facet_threshold_is_the_batch_entry(name):
    ds = REFERENCE_DATASETS[name]
    fs = enumerate_efficient_facets(ds)
    values, attainable, _ = fs.scores(ds)
    for i in range(ds.n_units):
        for k, h in enumerate(fs.facets):
            one = min_uncertainty_to_facet(ds, i, h)
            assert one.value.hex() == float(values[k, i]).hex()
            assert one.attainable_at_equality == attainable[k]


@pytest.mark.parametrize("name", sorted(REFERENCE_DATASETS))
def test_generators_score_zero_on_their_facets(name):
    # a generator lies on its facet within the support tolerance, so its
    # threshold is 0, not the round-off of its gap; only a facet the box
    # cannot move (every coefficient on an env output) stays at inf
    ds = REFERENCE_DATASETS[name]
    fs = enumerate_efficient_facets(ds)
    values = fs.scores(ds)[0]
    moved = (np.abs(fs.alpha).sum(axis=0)
             + np.abs(fs.beta[~ds.env_outputs]).sum(axis=0)) > 0
    for k, generators in enumerate(fs.generators):
        for g in generators:
            assert values[k, g] == (0.0 if moved[k] else math.inf)


@pytest.mark.parametrize("name", sorted(REFERENCE_DATASETS))
def test_facets_ordered_by_their_own_rounded_values(name):
    # the canonical order and deduplication follow the returned
    # hyperplanes, not the un-normalised candidates they were built from
    fs = enumerate_efficient_facets(REFERENCE_DATASETS[name])
    keys = [tuple(np.round(np.concatenate([h.alpha, h.beta, [h.d]]), 7))
            for h in fs]
    assert keys == sorted(set(keys))


def _candidate_stacks(ds, monkeypatch):
    """Every stack of candidate row sets that enumerating ``ds`` hands to
    ``_unique_normal``."""
    stacks = []
    closed_form = udea.facets._unique_normal

    def recording(rows):
        stacks.append(rows.copy())
        return closed_form(rows)
    with monkeypatch.context() as m:
        m.setattr(udea.facets, "_unique_normal", recording)
        enumerate_efficient_facets(ds)
    return stacks


def _rank_deficient_stacks():
    """Row sets in 2 to 4 variables that span no hyperplane: a repeated
    row, generators on one line, and a zero row."""
    rng = np.random.default_rng(5)
    for phi in (2, 3, 4):
        rows = rng.uniform(0.5, 10.0, (phi - 1, phi)).round(3)
        repeated = rows.copy()
        repeated[-1] = repeated[0]
        collinear = rows.copy()
        collinear[-1] = 2.5 * collinear[0]  # p2 - p0 = 2.5 (p1 - p0)
        zero = rows.copy()
        zero[-1] = 0.0
        if phi == 2:  # one row: only the zero row is deficient
            yield np.array([zero])
        else:
            yield np.array([repeated, collinear, zero])


@pytest.mark.parametrize("name", sorted(REFERENCE_DATASETS))
def test_closed_form_normals_match_svd(name, monkeypatch):
    # the SVD, independent of the minors, gives the same unit normal up to
    # sign and the same rank verdict for every candidate row set
    stacks = _candidate_stacks(REFERENCE_DATASETS[name], monkeypatch)
    assert stacks
    for rows in stacks:
        normals, full_rank = udea.facets._unique_normal(rows)
        ref, ref_full_rank = svd_unique_normal(rows)
        assert full_rank.tolist() == ref_full_rank.tolist()
        sign = np.where((normals * ref).sum(axis=1) < 0, -1.0, 1.0)
        gap = np.abs(normals - sign[:, None] * ref).max(axis=1)
        assert np.all(gap[full_rank] <= 1e-12)


def test_normals_of_large_data_do_not_overflow(monkeypatch):
    # each matrix is scaled by a power of two before its minors are taken,
    # so rows near 1e181, whose minors' squares would pass the largest
    # float, give the same bits as the rows themselves
    for rows in _candidate_stacks(REFERENCE_DATASETS["split22"],
                                  monkeypatch):
        normals, full_rank = udea.facets._unique_normal(rows)
        big_normals, big_full_rank = udea.facets._unique_normal(
            rows * 2.0 ** 600)
        assert big_full_rank.tolist() == full_rank.tolist()
        assert big_normals[full_rank].tobytes() == \
            normals[full_rank].tobytes()


def test_one_overflowing_unit_warns_the_first_call_on_its_dataset():
    # the rounding of a threshold past about 1.8e296 overflows (README,
    # Limitations).  A set scores every unit of a dataset at once, so the
    # first call, here for b, whose own thresholds are small, warns for
    # a's, and a later call for a reads the kept scores without scoring
    # again.  The warning stays unmasked: it is all that flags a's
    # upsilon* = 0, where it is 0.5
    ds = DeaDataset(names=["a", "b"], X=[[1.7e308, 1.0]], Y=[[1.0, 2.0]])
    fs = enumerate_efficient_facets(ds)
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert exact_udea(ds, 1, facet_set=fs).upsilon == 0.0
    # a RuntimeWarning is an error here (pyproject's filterwarnings)
    assert exact_udea(ds, 0, facet_set=fs).upsilon == 0.0


def test_rank_deficient_stacks_span_no_hyperplane():
    for rows in _rank_deficient_stacks():
        _, full_rank = udea.facets._unique_normal(rows)
        assert not full_rank.any()
        assert not svd_unique_normal(rows)[1].any()
    # one variable: no rows, which span no hyperplane
    normals, full_rank = udea.facets._unique_normal(np.zeros((3, 0, 1)))
    assert normals.shape == (3, 1)
    assert not full_rank.any()
    # so through the API, too: one input and no outputs find no facet
    ds = DeaDataset(names=["a", "b"], X=[[1.0, 2.0]], Y=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="no efficient facets found"):
        exact_udea(ds, 0)


def test_one_hyperplane_per_facet(monkeypatch):
    # 1,390 supporting candidates find the 26 facets; only the first
    # candidate of each facet builds a Hyperplane
    built = []

    def counting(*args, **kwargs):
        built.append(Hyperplane(*args, **kwargs))
        return built[-1]
    monkeypatch.setattr(udea.facets, "Hyperplane", counting)
    fs = enumerate_efficient_facets(sphere_dataset(12))
    assert len(fs) == 26
    assert sorted(map(id, built)) == sorted(map(id, fs))


# the dominance test that spares a dominated unit its extreme-point LP, and
# gamma settled by the attaining facet

def _random_datasets():
    """Random datasets of 2 to 4 variables on a coarse grid, so that units
    tie on some variables, with copied units and, in some, an
    environmental output."""
    rng = np.random.default_rng(41)
    out = {}
    for k in range(12):
        phi = 2 + k % 3
        n_in = int(rng.integers(1, phi))
        n_units = int(rng.integers(6, 16))
        X = rng.integers(1, 8, (n_in, n_units)) / 2.0
        Y = rng.integers(1, 8, (phi - n_in, n_units)) / 2.0
        copies = rng.integers(0, n_units, 3)
        env = None
        if phi - n_in > 1 and k % 2:
            env = [False] * (phi - n_in - 1) + [True]
        out[f"random{k}"] = _dataset(np.hstack([X, X[:, copies]]),
                                     np.hstack([Y, Y[:, copies]]), env)
    return out


DOMINANCE_DATASETS = {**REFERENCE_DATASETS, **_random_datasets()}


def _test_every_distinct_unit(monkeypatch):
    monkeypatch.setattr(udea.facets, "_dominated",
                        lambda points, n: np.zeros(len(points), dtype=bool))


@pytest.mark.parametrize("name", sorted(set(DOMINANCE_DATASETS)
                                        - {"near_duplicate"}))
def test_dominance_skip_changes_no_facet(name, monkeypatch):
    # a unit that another distinct unit weakly dominates is reproduced by
    # it, so skipping its extreme-point LP, and leaving it out of the
    # others', leaves the facets, their generators and their order as
    # testing every distinct unit against every other does
    ds = DOMINANCE_DATASETS[name]
    tested = []

    def counting(distinct, k):
        tested.append(k)
        return is_extreme(distinct, k)
    monkeypatch.setattr(udea.facets, "is_extreme", counting)
    got = enumerate_efficient_facets(ds)
    skipping = len(tested)
    _test_every_distinct_unit(monkeypatch)
    tested.clear()
    ref = enumerate_efficient_facets(ds)
    distinct = len(np.unique(np.vstack([ds.X, ds.Y]), axis=1).T)
    assert len(tested) == distinct >= skipping
    assert got.generators == ref.generators
    assert got.tol == ref.tol
    for h, r in zip(got.facets, ref.facets, strict=True):
        assert h.alpha.tobytes() == r.alpha.tobytes()
        assert h.beta.tobytes() == r.beta.tobytes()
        assert h.d.hex() == r.d.hex()


def test_dominance_skip_keeps_near_duplicate_facets(monkeypatch):
    # H dominates B and B reproduces H within SCORE_TOL: tested against
    # each other, neither is extreme and the facets A-H and H-C are lost;
    # tested without the dominated B, H is extreme
    ds = REFERENCE_DATASETS["near_duplicate"]
    assert enumerate_efficient_facets(ds).generators == [
        [3], [2, 3], [2, 6], [0, 6], [0]]
    _test_every_distinct_unit(monkeypatch)
    assert enumerate_efficient_facets(ds).generators == [[3], [2, 3], [0]]


def test_near_duplicate_exact_upsilon():
    # E's facet is H-C once H is extreme: upsilon* = beta* / 2
    ds = near_duplicate_dataset(4.0)
    out = exact_udea(ds, 4)
    assert out.upsilon == pytest.approx(directional_distance(ds, 4) / 2,
                                        abs=1e-12)
    assert out.upsilon == pytest.approx(0.7857143, abs=1e-7)
    assert ds.names[4] == "E"
    # a near-duplicate that dominates nothing still hides its facets (a
    # documented limitation): E scores against C-D, not H-C
    ds = near_duplicate_dataset(4.0 * (1.0 - 1e-7))
    assert exact_udea(ds, 4).upsilon == pytest.approx(0.875, abs=1e-12)
    assert directional_distance(ds, 4) / 2 == pytest.approx(0.7857143,
                                                            abs=1e-7)


def test_dominated_units_take_no_extreme_point_lp(table1, monkeypatch):
    # C dominates E and B dominates F: only A to D are tested
    tested = []

    def counting(distinct, k):
        tested.append(k)
        return is_extreme(distinct, k)
    monkeypatch.setattr(udea.facets, "is_extreme", counting)
    enumerate_efficient_facets(table1)
    assert tested == [0, 1, 2, 3]


def test_dominance_mask_matches_pairwise_loop():
    # environmental outputs count as outputs: the extreme-point test keeps
    # their rows
    for ds in DOMINANCE_DATASETS.values():
        points = np.vstack([ds.X, ds.Y]).T
        points = points[np.unique(points, axis=0, return_index=True)[1]]
        n = ds.n_inputs
        expected = [any(np.all(p[:n] <= q[:n]) and np.all(p[n:] >= q[n:])
                        for j, p in enumerate(points) if j != k)
                    for k, q in enumerate(points)]
        assert udea.facets._dominated(points, n).tolist() == expected


def _gamma_cases():
    """(name, dataset, facet set): the fixtures as the CLI scales them, the
    datasets above, a strict output-axis threshold, and a facet past an
    own input, where the floor rule scores gamma."""
    for name, ds in _cli_fixtures():
        yield name, ds, enumerate_efficient_facets(ds)
    for name, ds in sorted(DOMINANCE_DATASETS.items()):
        yield name, ds, enumerate_efficient_facets(ds)
    strict = DeaDataset(names=["a", "b"], X=[[2.0, 6.0]], Y=[[5.0, 4.5]])
    yield "strict", strict, enumerate_efficient_facets(strict)
    yield "clamp", clamp_dataset(), FacetSet(
        [Hyperplane(alpha=[0.0], beta=[-1.0], d=-10.0)])


@pytest.mark.parametrize("name, ds, fs", [
    pytest.param(*case, id=case[0]) for case in _gamma_cases()])
def test_gamma_settled_by_the_attaining_facet(name, ds, fs, monkeypatch):
    # gamma is the probe without a proof, bit for bit, wherever the
    # facet's multipliers do not prove it; where they do, it is 1.0 with no
    # solve, and the solve it spares scores at least 1 - 1e-12
    calls = count_lps(monkeypatch)
    proved = strict = 0
    for nu in (math.inf, 0.5):
        for i in range(ds.n_units):
            calls.clear()
            out = exact_udea(ds, i, nu=nu, facet_set=fs)
            exact_lps = len(calls)
            sigma = min(out.upsilon, nu)
            calls.clear()
            solved = _probe(ds, i, sigma if math.isfinite(sigma) else 0.0,
                            DEFAULT_EPS, NO_PROOF)
            if exact_lps < len(calls):
                # proved, where the probe without a proof solves
                proved += 1
                assert sigma == out.upsilon
                assert out.gamma == 1.0 and solved >= 1.0 - 1e-12
            else:
                # solved as without the proof, or by the floor rule
                assert exact_lps == len(calls)
                assert out.gamma.hex() == solved.hex()
            if not out.attainable and sigma == out.upsilon > 0:
                # a strict threshold keeps its solve
                assert exact_lps == len(calls)
                strict += exact_lps
    if name in ("table1", "example1", "case_study_s11_p0"):
        assert proved > 0
    if name in ("strict", "quoted_names"):
        assert strict > 0
