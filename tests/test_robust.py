import warnings

import numpy as np
import pytest

from conftest import DATA_DIR
from helpers import (assert_eps_invariant, clamp_dataset, count_lps,
                     efficiency_gain_upper_bound, failure_proved,
                     random_dataset, success_proved, table1_plus_g)
from udea.cli import RunConfig, _sigma_grid, apply_scaling, ingest_csv
from udea.dataset import DeaDataset, scale_dataset, solve_all, solve_nominal
from udea.facets import exact_udea
from udea.iterative import iterative_udea
from udea.robust import (DEFAULT_EPS, UncertaintyConfig, _certificate,
                         _directional_optimum, _probe, directional_distance,
                         robust_efficiency, transform_box)


def test_config_validation():
    UncertaintyConfig()
    UncertaintyConfig(nu=np.inf)
    with pytest.raises(ValueError):
        UncertaintyConfig(nu=-1.0)
    with pytest.raises(ValueError):
        UncertaintyConfig(step=0.0)
    with pytest.raises(ValueError):
        UncertaintyConfig(eps=-1e-3)


@pytest.mark.parametrize("eps", [np.nan, np.inf], ids=["nan", "inf"])
def test_config_rejects_nonfinite_eps(eps):
    # nan passes a plain "eps < 0" check; it must be rejected by name, as
    # must an infinite eps
    with pytest.raises(ValueError, match="eps must be"):
        UncertaintyConfig(eps=eps)


def test_transform_identity_at_zero(table1):
    t = transform_box(table1, 4, 0.0)
    assert np.array_equal(t.X, table1.X)
    assert np.array_equal(t.Y, table1.Y)


def test_transform_at_zero_leaves_the_data_alone(table1):
    # at sigma = 0 the corner is the data itself; the dataset made of it
    # holds copies, so writing into them leaves the data as it was
    X, Y = table1.X.copy(), table1.Y.copy()
    t = transform_box(table1, 4, 0.0)
    t.X += 1.0
    t.Y += 1.0
    assert np.array_equal(table1.X, X) and np.array_equal(table1.Y, Y)


@pytest.mark.parametrize("fixture", ["example1", "table1_dup",
                                     "case_study_s11_p0", "case_study_s3_p4",
                                     "quoted_names"])
def test_robust_at_zero_is_nominal_bit_for_bit(fixture):
    preset = "radiotherapy" if fixture.startswith("case_study") else None
    ds = apply_scaling(ingest_csv(DATA_DIR / f"{fixture}.csv"),
                       RunConfig(mode="nominal", preset=preset))
    for i in range(ds.n_units):
        got, want = robust_efficiency(ds, i, 0.0), solve_nominal(ds, i)
        assert got.theta.hex() == want.theta.hex()
        for a, b in ((got.lam, want.lam),
                     (got.input_slacks, want.input_slacks),
                     (got.output_slacks, want.output_slacks)):
            assert a.tobytes() == b.tobytes()
        assert got.peers == want.peers


@pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf],
                         ids=["negative", "nan", "inf"])
def test_sigma_must_be_nonnegative_and_finite(table1, sigma):
    # at sigma = inf a rival's input x + sigma would meet lam_k = 0 as
    # inf * 0 = nan; every entry rejects it as it rejects nan
    for entry in (transform_box, robust_efficiency, _probe):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            entry(table1, 4, sigma)


@pytest.mark.parametrize("entry", [
    lambda ds: transform_box(ds, 1, 1e308),
    lambda ds: robust_efficiency(ds, 1, 1e308),
    lambda ds: iterative_udea(ds, 0, UncertaintyConfig(nu=np.inf,
                                                       step=1e306))],
    ids=["transform_box", "robust_efficiency", "iterative_udea"])
def test_box_past_the_largest_float_is_rejected(entry):
    # a's input 1.7e308 plus sigma passes the largest float: the corner
    # is rejected before any cell overflows; the search of a probes up to
    # half its own input, 8.5e307
    ds = DeaDataset(names=["a", "b"], X=[[1.7e308, 1.0]], Y=[[1.0, 2.0]])
    with pytest.raises(ValueError, match=r"sigma .* plus the largest datum "
                                         r"1\.7e\+308 overflows"):
        entry(ds)


def test_transform_half(table1):
    t = transform_box(table1, 4, 0.5)
    assert t.X[0].tolist() == [1.5, 3.5, 7.5, 10.5, 7.5, 6.5]
    assert t.Y[0].tolist() == [0.5, 3.5, 6.5, 7.5, 5.5, 1.5]


def test_transform_clamps(table1):
    # at sigma = 2 unit A's output 1 - 2 would go negative and its rivals'
    # view of A's input 1 - 2 would vanish
    t = transform_box(table1, 4, 2.0)
    assert t.Y[0, 0] == 0.0
    assert t.X[0, 0] == pytest.approx(3.0)
    own = transform_box(table1, 0, 2.0)
    assert own.X[0, 0] == pytest.approx(1e-9)
    assert own.Y[0, 0] == pytest.approx(3.0)


def test_transform_rejects_unit_without_positive_input():
    ds = DeaDataset(names=["a", "b", "c"], X=[[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]],
                    Y=[[1.0, 1.0, 2.0]])
    # one input on the floor is allowed, as it is in DeaDataset
    assert transform_box(ds, 0, 1.5, eps=0.0).X[:, 0].tolist() == [0.0, 0.5]
    with pytest.raises(ValueError, match="at least one positive input"):
        transform_box(ds, 0, 2.0, eps=0.0)
    with pytest.raises(ValueError, match="at least one positive input"):
        robust_efficiency(ds, 0, 2.5, eps=0.0)
    # the default floor keeps every input positive
    assert transform_box(ds, 0, 2.5).X[:, 0].tolist() == [1e-9, 1e-9]


def test_transform_is_a_dataset_of_its_own(table1):
    # its names, flags and arrays are copies, the data's own arrays at
    # sigma = 0 included, and so are those of a scaled dataset
    derived = [transform_box(table1, 4, sigma) for sigma in (0.0, 0.5)]
    for t in derived + [scale_dataset(table1, [1.0, 1.0])]:
        assert isinstance(t, DeaDataset)
        for name in ("names", "input_names", "output_names"):
            assert getattr(t, name) == getattr(table1, name)
            assert getattr(t, name) is not getattr(table1, name)
        assert t.env_outputs is not table1.env_outputs
        assert t.X is not table1.X and t.Y is not table1.Y


def test_environmental_outputs_untouched(table1):
    ds = DeaDataset(names=list("ABCDEF"), X=table1.X,
                    Y=np.vstack([table1.Y, np.full(6, 2.0)]),
                    env_outputs=[False, True])
    t = transform_box(ds, 2, 0.5)
    assert np.array_equal(t.Y[1], ds.Y[1])
    assert not np.array_equal(t.Y[0], ds.Y[0])
    # the box never adds to an environmental row, however large, and its
    # bound reads only the rows it moves
    big = DeaDataset(names=list("ABCDEF"), X=table1.X,
                     Y=np.vstack([table1.Y, np.full(6, 1.7e308)]),
                     env_outputs=[False, True])
    assert np.array_equal(transform_box(big, 2, 1e308).Y[1], big.Y[1])


def test_robust_scores_table1(table1):
    assert robust_efficiency(table1, 4, 0.0).theta == pytest.approx(
        0.542, abs=1e-3)
    assert robust_efficiency(table1, 4, 0.5).theta == pytest.approx(
        37.0 / 45.0, abs=1e-9)
    assert robust_efficiency(table1, 4, 11.0 / 14.0).theta == pytest.approx(
        1.0, abs=1e-9)
    assert robust_efficiency(table1, 5, 17.0 / 14.0).theta == pytest.approx(
        1.0, abs=1e-9)


@pytest.mark.parametrize("fixture, preset", [
    ("example1.csv", None), ("table1_dup.csv", None),
    ("case_study_s11_p0.csv", "radiotherapy"),
    ("case_study_s3_p4.csv", "radiotherapy")])
def test_score_does_not_depend_on_eps_on_fixtures(fixture, preset):
    config = RunConfig(mode="sweep", preset=preset)
    ds = apply_scaling(ingest_csv(DATA_DIR / fixture), config)
    # past every own input of the small fixtures; up to the default cap
    # on the case study
    nu = config.nu if preset else 0.6 * ds.X.max()
    assert_eps_invariant(ds, _sigma_grid(UncertaintyConfig(nu=nu, step=0.1)))


def test_floored_own_input_matches_sound_floor(rng):
    # sigma between the two smallest own inputs floors exactly one of them;
    # at eps = 1e-6 the LP is well clear of the pivot tolerance and serves
    # as the oracle for the score robust_efficiency gives without a solve
    checked = 0
    while checked < 20:
        n_inputs, n_units = int(rng.integers(2, 4)), int(rng.integers(2, 9))
        ds = DeaDataset(names=[f"u{k}" for k in range(n_units)],
                        X=rng.uniform(0.5, 5.0, (n_inputs, n_units)).round(3),
                        Y=rng.uniform(0.5, 5.0, (1, n_units)).round(3))
        i = int(rng.integers(n_units))
        low, second = np.sort(ds.X[:, i])[:2]
        if low == second:
            continue
        sigma = 0.5 * (low + second)
        got = robust_efficiency(ds, i, sigma)
        oracle = solve_nominal(transform_box(ds, i, sigma, eps=1e-6), i)
        assert oracle.theta == pytest.approx(1.0, abs=1e-6)
        assert oracle.peers == [i]
        assert got.theta == 1.0 and got.peers == [i]
        assert got.lam.tolist() == [float(k == i) for k in range(ds.n_units)]
        assert got.binding_inputs == list(range(ds.n_inputs))
        checked += 1


def test_zero_intensity_units_do_not_matter(rng):
    # removing units whose optimal weight is zero leaves the robust score
    # unchanged
    for _ in range(6):
        ds = random_dataset(rng, max_units=8)
        dmu = int(rng.integers(ds.n_units))
        sol = robust_efficiency(ds, dmu, 0.2)
        keep = sorted({dmu, *(k for k in range(ds.n_units)
                              if sol.lam[k] > 1e-9)})
        sub = DeaDataset(names=[ds.names[k] for k in keep],
                         X=ds.X[:, keep], Y=ds.Y[:, keep])
        theta = robust_efficiency(sub, keep.index(dmu), 0.2).theta
        assert theta == pytest.approx(sol.theta, abs=1e-9)


def test_gain_bound_examples(table1):
    sol = solve_nominal(table1, 4)
    bound = efficiency_gain_upper_bound(table1, 4, 0.5, sol.binding_inputs)
    # spread of rival inputs is 10 - 1 = 9; (9 + 1) / 8 = 1.25
    assert bound == pytest.approx(1.25, abs=1e-9)
    assert bound == pytest.approx((9.0 + 2 * 0.5) / 8.0)


def test_gain_bound_dominates_gain(rng):
    for _ in range(6):
        ds = random_dataset(rng, max_units=8)
        for i in range(ds.n_units):
            nominal = solve_nominal(ds, i)
            if not nominal.binding_inputs:
                continue
            sigma = 0.3
            gain = robust_efficiency(ds, i, sigma).theta - nominal.theta
            bound = efficiency_gain_upper_bound(
                ds, i, sigma, nominal.binding_inputs)
            assert gain <= bound + 1e-9


def test_gain_bound_errors(table1):
    with pytest.raises(ValueError):
        efficiency_gain_upper_bound(table1, 4, 0.5, [])
    solo = DeaDataset(names=["a"], X=[[1.0]], Y=[[1.0]])
    with pytest.raises(ValueError):
        efficiency_gain_upper_bound(solo, 0, 0.5, [0])


def test_transform_preserves_metadata(table1):
    t = transform_box(table1, 1, 0.25)
    assert t.names == table1.names
    assert t.input_names == table1.input_names
    assert t.output_names == table1.output_names
    assert solve_all(t)[1].theta >= solve_all(table1)[1].theta - 1e-9


def test_directional_distance_table1(table1):
    assert directional_distance(table1, 4) == pytest.approx(11.0 / 7.0,
                                                            abs=1e-12)
    assert directional_distance(table1, 4) / 2.0 == pytest.approx(
        exact_udea(table1, 4).upsilon, abs=1e-12)
    for i in range(4):  # A..D are efficient
        assert directional_distance(table1, i) == 0.0


def _certificate_cases(rng):
    for _ in range(6):
        yield random_dataset(rng, max_units=8)
    # G's output is on the zero floor in the other corners from 0.05 on
    yield table1_plus_g()
    # own inputs reach sigma and the zero floor binds on outputs
    yield clamp_dataset()
    for _ in range(4):
        # outputs near 0, so the zero floor binds from small sigma on
        ds = random_dataset(rng, max_units=8)
        yield DeaDataset(names=ds.names, X=ds.X, Y=0.02 * ds.Y)


def _proof_of(ds, beta, lam, duals):
    """The ``_probe`` proof that ``_proof`` makes of these parts."""
    return (beta, *_certificate(ds, lam, duals))


def _check_probe(ds, i, sigma, eps, parts, lps, settled):
    """``_probe`` with the proof of ``parts`` (beta*, weights, duals)
    gives None only where ``robust_efficiency`` is not efficient, 1.0
    only where it is, and where it solves, its score bit for bit;
    ``settled`` counts how each probe ended."""
    before = len(lps)
    score = _probe(ds, i, sigma, eps, _proof_of(ds, *parts))
    solved = len(lps) > before
    result = robust_efficiency(ds, i, sigma, eps)
    if solved:
        assert score.hex() == result.theta.hex()
        settled["solved"] += 1
    elif score is None:
        assert not result.efficient
        settled["failed"] += 1
    elif score == 1.0:
        assert result.efficient
        settled["efficient"] += 1


@pytest.mark.parametrize("eps", [0.0, DEFAULT_EPS])
def test_weights_prove_only_failures(rng, eps, monkeypatch):
    # whatever the weights, a proof of failure at a grid point up to nu
    # is never contradicted by the solve there, and nor is _probe
    sigmas = [k * 0.05 for k in range(72)] + [3.6]
    proofs = 0
    lps = count_lps(monkeypatch)
    settled = dict.fromkeys(["solved", "failed", "efficient"], 0)
    for ds in _certificate_cases(rng):
        for i in range(ds.n_units):
            beta, own, duals = _directional_optimum(ds, i)
            weights = [own]
            weights += list(rng.dirichlet(np.ones(ds.n_units), size=3))
            for sigma in sigmas:
                try:
                    transform_box(ds, i, sigma, eps)
                except ValueError:  # eps = 0 left the unit no input
                    for lam in weights:
                        with pytest.raises(ValueError):
                            _probe(ds, i, sigma, eps,
                                   _proof_of(ds, beta, lam, duals))
                    continue
                for lam in weights:
                    if failure_proved(ds, i, sigma, lam, eps):
                        proofs += 1
                        assert not robust_efficiency(ds, i, sigma,
                                                     eps).efficient
                    _check_probe(ds, i, sigma, eps, (beta, lam, duals), lps,
                                 settled)
    assert proofs > 100
    assert min(settled.values()) > 100, settled


def test_unusable_weights_prove_nothing(table1):
    # E fails at sigma = 0.5 (upsilon* = 11/14), which no weights outside
    # the simplex may be taken to show
    lam = _directional_optimum(table1, 4)[1]
    assert failure_proved(table1, 4, 0.5, lam)
    # the proof reads lam / sum(lam), so rescaled weights prove the same
    for sigma in (0.0, 0.3, 0.5, 0.78, 0.79, 1.0):
        assert (failure_proved(table1, 4, sigma, 0.5 * lam)
                == failure_proved(table1, 4, sigma, 3.0 * lam)
                == failure_proved(table1, 4, sigma, lam)
                == (sigma < 11.0 / 14.0))
    for bad in (np.full(6, np.nan), np.zeros(6), -lam,
                np.where(lam > 0, lam, -1e-13), np.full(6, np.inf)):
        assert not failure_proved(table1, 4, 0.5, bad)


def test_floored_own_input_proves_nothing():
    # where an own input is at or below sigma, the floor rule scores 1
    # without a solve, and neither weights nor duals prove anything; an
    # own input floored to 0 (eps = 0) must not be divided by
    ds = DeaDataset(names=list("abc"), X=[[0.3, 2.0, 3.0], [5.0, 1.0, 2.0]],
                    Y=[[1.0, 4.0, 5.0]])
    duals = [_directional_optimum(ds, 0)[2], np.ones(4), [0.0, 1.0, 0.0, 0.0]]
    for sigma in (0.2, 0.3, 0.4):
        assert robust_efficiency(ds, 0, sigma, eps=0.0).efficient
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in ([0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.2, 0.8, 0.0]):
                assert not failure_proved(ds, 0, sigma, np.array(lam),
                                          eps=0.0)
            for d in duals:
                assert not success_proved(ds, 0, sigma, d, eps=0.0)


def test_probe_tries_no_proof_on_a_floored_corner():
    # whatever beta* says, _probe leaves a corner whose own input is at
    # or below sigma to the floor rule, so an own input floored to 0 is
    # never divided by: with lam = e_i that would be 0 / 0, a RuntimeWarning
    ds = DeaDataset(names=list("abc"), X=[[0.3, 2.0, 3.0], [5.0, 1.0, 2.0]],
                    Y=[[1.0, 4.0, 5.0]])
    duals = _directional_optimum(ds, 0)[2]
    for sigma in (0.2, 0.3, 0.4):
        for lam in ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5]):
            # beta* = inf tries the weights, beta* = 0 the duals
            for beta in (np.inf, 0.0):
                proof = _proof_of(ds, beta, lam, duals)
                assert _probe(ds, 0, sigma, 0.0, proof) == 1.0


def test_weights_within_the_score_tolerance_prove_nothing():
    # a score within SCORE_TOL of 1 counts as efficient, so weights whose
    # bound falls short of 1 by less than the tolerance prove nothing
    ds = DeaDataset(names=["a", "b"], X=[[1.0, 1.0 - 5e-7]], Y=[[1.0, 1.0]])
    assert robust_efficiency(ds, 0, 0.0).efficient
    assert not failure_proved(ds, 0, 0.0, np.array([0.0, 1.0]))
    # by more than twice the tolerance, they do
    ds = DeaDataset(names=["a", "b"], X=[[1.0, 1.0 - 3e-6]], Y=[[1.0, 1.0]])
    assert not robust_efficiency(ds, 0, 0.0).efficient
    assert failure_proved(ds, 0, 0.0, np.array([0.0, 1.0]))


def _success_cases(rng):
    for _ in range(6):
        yield random_dataset(rng, max_units=8)
    yield table1_plus_g()
    yield clamp_dataset()
    for _ in range(3):
        # one environmental output, which the box leaves where it is
        ds = random_dataset(rng, max_units=8)
        yield DeaDataset(names=ds.names, X=ds.X,
                         Y=np.vstack([ds.Y, rng.uniform(0.5, 5.0,
                                                        ds.n_units)]),
                         env_outputs=[False] * ds.n_outputs + [True])
    for _ in range(3):
        # copies of two units: a copy of the unit ties with it at sigma = 0
        ds = random_dataset(rng, max_units=8)
        copies = [0, ds.n_units - 1]
        yield DeaDataset(names=ds.names + ["copy0", "copy1"],
                         X=np.hstack([ds.X, ds.X[:, copies]]),
                         Y=np.hstack([ds.Y, ds.Y[:, copies]]))
    # b has a's output from less input: with output weights alone, a's
    # duals tie b with a at sigma = 0, where a scores 1/2
    yield DeaDataset(names=list("abc"), X=[[2.0, 1.0, 3.0]],
                     Y=[[5.0, 5.0, 4.0]])


@pytest.mark.parametrize("eps", [0.0, DEFAULT_EPS])
def test_duals_prove_only_successes(rng, eps, monkeypatch):
    # whatever the duals, a proof of success at any sigma up to 1.5 times
    # the largest input, the floors included, is matched by a solve that
    # scores exactly 1, and so is _probe; some proofs come from output
    # weights alone
    proofs = output_only = 0
    lps = count_lps(monkeypatch)
    settled = dict.fromkeys(["solved", "failed", "efficient"], 0)
    for ds in _success_cases(rng):
        m, n = ds.n_outputs, ds.n_inputs
        for i in range(ds.n_units):
            beta, lam, own = _directional_optimum(ds, i)
            rival = (i + 1) % ds.n_units
            candidates = [own, _directional_optimum(ds, rival)[2]]
            # and random ones, some of them negative, which the proof
            # must clip
            candidates += [rng.uniform(0.0, 1.0, own.size),
                           rng.uniform(-1.0, 1.0, own.size)]
            sigmas = np.append(np.linspace(0.0, 1.5 * ds.X.max(), 31),
                               0.5 * beta)
            for sigma in sigmas:
                try:
                    transform_box(ds, i, sigma, eps)
                except ValueError:  # eps = 0 left the unit no input
                    for duals in candidates:
                        with pytest.raises(ValueError):
                            _probe(ds, i, sigma, eps,
                                   _proof_of(ds, beta, lam, duals))
                    continue
                for duals in candidates:
                    if success_proved(ds, i, sigma, duals, eps):
                        proofs += 1
                        output_only += not np.any(duals[m:m + n] > 0)
                        assert robust_efficiency(ds, i, sigma,
                                                 eps).theta == 1.0
                    _check_probe(ds, i, sigma, eps, (beta, lam, duals), lps,
                                 settled)
    assert proofs > 500
    assert output_only > 10
    assert min(settled.values()) > 100, settled


def test_unusable_duals_prove_nothing(table1):
    # E reaches efficiency at sigma = 11/14 exactly
    duals = _directional_optimum(table1, 4)[2]
    for sigma in (0.0, 0.5, 0.78, 0.79, 1.0):
        # the proof is invariant to the duals' scale
        assert (success_proved(table1, 4, sigma, 0.5 * duals)
                == success_proved(table1, 4, sigma, 3.0 * duals)
                == success_proved(table1, 4, sigma, duals)
                == (sigma > 11.0 / 14.0))
    for bad in (None, np.full(duals.size, np.nan), -np.abs(duals) - 1.0,
                np.zeros(duals.size), np.full(duals.size, np.inf),
                np.where(duals > 0, np.nan, duals)):
        assert not success_proved(table1, 4, 1.0, bad)
