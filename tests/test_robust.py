import warnings

import numpy as np
import pytest

from conftest import DATA_DIR
from helpers import (best_corner_score, clamp_dataset, count_lps,
                     efficiency_gain_upper_bound, random_dataset,
                     table1_plus_g)
from udea.cli import RunConfig, _sigma_grid, apply_scaling, ingest_csv
from udea.dataset import DeaDataset, solve_all, solve_nominal
from udea.facets import enumerate_efficient_facets, exact_udea
from udea.robust import (DEFAULT_EPS, UncertaintyConfig, _certificate,
                         _directional_optimum, _probe, _proves_failure,
                         _proves_success, directional_distance,
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


def test_transform_skips_revalidation(table1, monkeypatch):
    calls = []
    original = DeaDataset.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(DeaDataset, "__post_init__", counting)
    t = transform_box(table1, 4, 0.5)
    assert calls == []
    assert isinstance(t, DeaDataset)
    assert t.names == table1.names and t.names is not table1.names
    assert t.env_outputs is not table1.env_outputs


def test_environmental_outputs_untouched(table1):
    ds = DeaDataset(names=list("ABCDEF"), X=table1.X,
                    Y=np.vstack([table1.Y, np.full(6, 2.0)]),
                    env_outputs=[False, True])
    t = transform_box(ds, 2, 0.5)
    assert np.array_equal(t.Y[1], ds.Y[1])
    assert not np.array_equal(t.Y[0], ds.Y[0])


def test_robust_scores_table1(table1):
    assert robust_efficiency(table1, 4, 0.0).theta == pytest.approx(
        0.542, abs=1e-3)
    assert robust_efficiency(table1, 4, 0.5).theta == pytest.approx(
        37.0 / 45.0, abs=1e-9)
    assert robust_efficiency(table1, 4, 11.0 / 14.0).theta == pytest.approx(
        1.0, abs=1e-9)
    assert robust_efficiency(table1, 5, 17.0 / 14.0).theta == pytest.approx(
        1.0, abs=1e-9)


def _assert_monotone(rng, eps, sigmas_for):
    for _ in range(6):
        ds = random_dataset(rng, max_units=8)
        dmu = int(rng.integers(ds.n_units))
        prev = -np.inf
        for sigma in sigmas_for(ds):
            theta = robust_efficiency(ds, dmu, sigma, eps=eps).theta
            assert theta >= prev - 1e-9
            prev = theta


def test_robust_monotone_in_sigma(rng):
    _assert_monotone(rng, 1e-6, lambda ds: (0.0, 0.1, 0.25, 0.5, 1.0))


def test_robust_monotone_in_sigma_default_eps(rng):
    # past every own input, where the default floor sits at the pivot
    # tolerance and robust_efficiency scores the floored unit without a solve
    _assert_monotone(rng, DEFAULT_EPS,
                     lambda ds: np.linspace(0.0, 1.5 * ds.X.max(), 40))


def test_robust_at_least_nominal(rng):
    # up to 1.5 x max(X), past every own input
    for _ in range(6):
        ds = random_dataset(rng, max_units=8)
        for i in range(ds.n_units):
            nominal = solve_nominal(ds, i).theta
            for sigma in [0.3, *np.linspace(0.0, 1.5 * ds.X.max(), 40)]:
                assert robust_efficiency(ds, i, sigma).theta >= \
                    nominal - 1e-9


def _assert_large_sigma_efficient(rng, eps):
    # sigma large enough to drive the unit's own inputs to the clamp floor
    # makes any unit efficient
    for _ in range(6):
        ds = random_dataset(rng, max_units=8)
        for i in range(ds.n_units):
            sigma = float(ds.X[:, i].max()) - 1e-6
            assert robust_efficiency(ds, i, sigma,
                                     eps=eps).theta == pytest.approx(
                1.0, abs=1e-9)


def test_large_sigma_reaches_efficiency(rng):
    _assert_large_sigma_efficient(rng, 1e-6)


def test_large_sigma_reaches_efficiency_default_eps(rng):
    _assert_large_sigma_efficient(rng, DEFAULT_EPS)


def _assert_eps_invariant(ds, sigmas):
    # at sigma >= eps no rival input x + sigma reaches the floor, and an own
    # input the floor lifts is at or below sigma, where the floor rule
    # scores 1: the theta bits do not depend on eps
    for i in range(ds.n_units):
        for sigma in sigmas:
            if sigma < DEFAULT_EPS:
                continue
            ref = robust_efficiency(ds, i, sigma).theta.hex()
            for eps in (0.0, 1e-12, 1e-6, 1e-3):
                if sigma < eps:
                    continue
                try:
                    theta = robust_efficiency(ds, i, sigma, eps).theta
                except ValueError:
                    # eps = 0 left the unit no positive input
                    assert eps == 0.0 and sigma >= ds.X[:, i].max()
                    continue
                assert theta.hex() == ref, (i, sigma, eps)


def test_score_does_not_depend_on_eps(rng):
    for k in range(12):
        ds = random_dataset(rng, max_units=8)
        if k % 2 and ds.n_inputs > 1:
            # an input of 0: as an own input, only eps = 0 leaves it at 0
            ds.X[0, rng.integers(ds.n_units)] = 0.0
        grid = _sigma_grid(UncertaintyConfig(nu=0.6 * ds.X.max(), step=0.1))
        # and one ulp short of each input, which leaves a residue of
        # round-off that only a floor of at least eps lifts
        _assert_eps_invariant(ds, grid + np.nextafter(ds.X, 0).ravel().tolist())


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
    _assert_eps_invariant(ds, _sigma_grid(UncertaintyConfig(nu=nu, step=0.1)))


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


def test_corner_is_optimal_over_box(rng):
    # the favourable corner beats (or ties) every exhaustive +/-sigma
    # perturbation pattern of every cell
    for _ in range(4):
        n_units = int(rng.integers(2, 5))
        ds = DeaDataset(
            names=[f"u{k}" for k in range(n_units)],
            X=rng.uniform(1.0, 5.0, size=(1, n_units)).round(2),
            Y=rng.uniform(1.0, 5.0, size=(1, n_units)).round(2),
        )
        dmu = int(rng.integers(n_units))
        sigma = round(float(rng.uniform(0.1, 0.6)), 2)
        corner = robust_efficiency(ds, dmu, sigma).theta
        assert corner >= best_corner_score(ds, dmu, sigma) - 1e-9


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


def _highs_beta(ds, dmu):
    linprog = pytest.importorskip("scipy.optimize").linprog
    n_units = ds.n_units
    g = (~ds.env_outputs).astype(float)
    # max beta: X lam + beta <= x_i, -Y lam + g beta <= -y_i, sum lam = 1
    A_ub = np.vstack([np.hstack([ds.X, np.ones((ds.n_inputs, 1))]),
                      np.hstack([-ds.Y, g[:, None]])])
    b_ub = np.concatenate([ds.X[:, dmu], -ds.Y[:, dmu]])
    A_eq = np.hstack([np.ones((1, n_units)), np.zeros((1, 1))])
    c = np.zeros(n_units + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


def test_directional_distance_matches_highs(rng):
    for case in range(20):
        ds = random_dataset(rng, max_units=10, max_dim=5)
        if case % 2 and ds.n_outputs > 1:
            ds = DeaDataset(names=ds.names, X=ds.X, Y=ds.Y,
                            env_outputs=[True] + [False] * (ds.n_outputs - 1))
        for i in range(ds.n_units):
            assert directional_distance(ds, i) == pytest.approx(
                _highs_beta(ds, i), abs=1e-9)


def test_directional_distance_table1(table1):
    assert directional_distance(table1, 4) == pytest.approx(11.0 / 7.0,
                                                            abs=1e-12)
    assert directional_distance(table1, 4) / 2.0 == pytest.approx(
        exact_udea(table1, 4).upsilon, abs=1e-12)
    for i in range(4):  # A..D are efficient
        assert directional_distance(table1, i) == 0.0


def test_directional_distance_zero_for_efficient_units(rng):
    for _ in range(10):
        ds = random_dataset(rng, max_units=10, max_dim=4)
        for i in range(ds.n_units):
            if solve_nominal(ds, i).theta == 1.0:
                assert directional_distance(ds, i) == pytest.approx(
                    0.0, abs=1e-12)


def test_half_directional_distance_is_exact_upsilon(rng):
    checked = 0
    while checked < 15:
        ds = random_dataset(rng, max_units=10, max_dim=4)
        try:
            facet_set = enumerate_efficient_facets(ds)
        except ValueError:
            continue
        # neither the facet thresholds nor beta* / 2 see the clamps, so
        # they agree whether or not a clamp binds below the threshold
        for i in range(ds.n_units):
            exact = exact_udea(ds, i, facet_set=facet_set).upsilon
            assert directional_distance(ds, i) / 2.0 == pytest.approx(
                exact, abs=1e-9)
        checked += 1


def test_half_directional_distance_is_exact_upsilon_with_copied_units(rng):
    # a copied efficient unit must not hide the facets through it
    for _ in range(12):
        ds = random_dataset(rng, max_units=10, max_dim=4)
        efficient = [i for i in range(ds.n_units)
                     if solve_nominal(ds, i).theta == 1.0]
        copies = rng.choice(efficient, size=min(3, len(efficient)),
                            replace=False)
        ds = DeaDataset(names=ds.names + [f"copy{k}" for k in copies],
                        X=np.hstack([ds.X, ds.X[:, copies]]),
                        Y=np.hstack([ds.Y, ds.Y[:, copies]]))
        facet_set = enumerate_efficient_facets(ds)
        for i in range(ds.n_units):
            exact = exact_udea(ds, i, facet_set=facet_set).upsilon
            assert directional_distance(ds, i) / 2.0 == pytest.approx(
                exact, abs=1e-9)


def test_half_directional_distance_is_exact_upsilon_with_env_output(rng):
    # an environmental output stays put under the box transform, so its
    # facet coefficient must not enter the threshold's rate
    for case in range(16):
        n_in = 1 + case % 2
        n_out = int(rng.integers(1, 4 - n_in))
        n_units = int(rng.integers(4, 11))
        ds = DeaDataset(
            names=[f"u{k}" for k in range(n_units)],
            X=rng.uniform(0.5, 5.0, (n_in, n_units)).round(3),
            Y=rng.uniform(0.5, 5.0, (n_out + 1, n_units)).round(3),
            env_outputs=[False] * n_out + [True])
        facet_set = enumerate_efficient_facets(ds)
        for i in range(ds.n_units):
            exact = exact_udea(ds, i, facet_set=facet_set).upsilon
            assert directional_distance(ds, i) / 2.0 == pytest.approx(
                exact, abs=1e-9)


def test_directional_weights_are_a_point_of_the_simplex(rng):
    for _ in range(10):
        ds = random_dataset(rng, max_units=10, max_dim=4)
        for i in range(ds.n_units):
            beta, lam, _ = _directional_optimum(ds, i)
            assert beta == directional_distance(ds, i)
            assert lam.min() >= 0.0
            assert lam.sum() == pytest.approx(1.0, abs=1e-15)
            # lam meets the rows of the directional distance program
            assert np.all(ds.X @ lam + beta <= ds.X[:, i] + 1e-9)
            assert np.all(ds.Y @ lam - beta >= ds.Y[:, i] - 1e-9)


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


def _provable(corner, i, sigma):
    # _probe's floor test: a proof is tried only where every own input
    # of the corner exceeds sigma
    return corner.X[:, i].min() > sigma


def _failure_proved(ds, i, sigma, lam, eps=DEFAULT_EPS):
    """``_proves_failure`` with the certificate of ``lam``, where
    ``_probe`` would try it."""
    corner = transform_box(ds, i, sigma, eps)
    lam = _certificate(ds, lam, None)[0]
    return (lam is not None and _provable(corner, i, sigma)
            and _proves_failure(corner.X, corner.Y, i, lam))


def _success_proved(ds, i, sigma, duals, eps=DEFAULT_EPS):
    """``_proves_success`` with the certificate of ``duals``, where
    ``_probe`` would try it."""
    corner = transform_box(ds, i, sigma, eps)
    _, u, v = _certificate(ds, None, duals)
    return (u is not None and _provable(corner, i, sigma)
            and _proves_success(corner.X, corner.Y, i, u, v))


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
                    if _failure_proved(ds, i, sigma, lam, eps):
                        proofs += 1
                        assert not robust_efficiency(ds, i, sigma,
                                                     eps).efficient
                    _check_probe(ds, i, sigma, eps, (beta, lam, duals), lps,
                                 settled)
    assert proofs > 100
    assert min(settled.values()) > 100, settled


def test_directional_weights_prove_failure_below_half_beta(rng):
    # clear of the floors, beta* / 2 is the minimum uncertainty, and
    # lam* proves every grid point below it fails, up to a margin; at
    # beta* / 2 itself the unit may still fail (the output-axis case)
    proofs = 0
    for _ in range(8):
        ds = random_dataset(rng, max_units=8)
        ds = DeaDataset(names=ds.names, X=ds.X + 5.0, Y=ds.Y + 5.0)
        for i in range(ds.n_units):
            beta, lam, _ = _directional_optimum(ds, i)
            for sigma in np.arange(0.0, 0.5 * beta - 1e-3, 0.05):
                assert _failure_proved(ds, i, sigma, lam)
                proofs += 1
            assert not _failure_proved(ds, i, 0.5 * beta + 1e-3, lam)
    assert proofs > 20


def test_unusable_weights_prove_nothing(table1):
    # E fails at sigma = 0.5 (upsilon* = 11/14), which no weights outside
    # the simplex may be taken to show
    lam = _directional_optimum(table1, 4)[1]
    assert _failure_proved(table1, 4, 0.5, lam)
    # the proof reads lam / sum(lam), so rescaled weights prove the same
    for sigma in (0.0, 0.3, 0.5, 0.78, 0.79, 1.0):
        assert (_failure_proved(table1, 4, sigma, 0.5 * lam)
                == _failure_proved(table1, 4, sigma, 3.0 * lam)
                == _failure_proved(table1, 4, sigma, lam)
                == (sigma < 11.0 / 14.0))
    for bad in (np.full(6, np.nan), np.zeros(6), -lam,
                np.where(lam > 0, lam, -1e-13), np.full(6, np.inf)):
        assert not _failure_proved(table1, 4, 0.5, bad)


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
                assert not _failure_proved(ds, 0, sigma, np.array(lam),
                                           eps=0.0)
            for d in duals:
                assert not _success_proved(ds, 0, sigma, d, eps=0.0)


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
    assert not _failure_proved(ds, 0, 0.0, np.array([0.0, 1.0]))
    # by more than twice the tolerance, they do
    ds = DeaDataset(names=["a", "b"], X=[[1.0, 1.0 - 3e-6]], Y=[[1.0, 1.0]])
    assert not robust_efficiency(ds, 0, 0.0).efficient
    assert _failure_proved(ds, 0, 0.0, np.array([0.0, 1.0]))


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
                    if _success_proved(ds, i, sigma, duals, eps):
                        proofs += 1
                        output_only += not np.any(duals[m:m + n] > 0)
                        assert robust_efficiency(ds, i, sigma,
                                                 eps).theta == 1.0
                    _check_probe(ds, i, sigma, eps, (beta, lam, duals), lps,
                                 settled)
    assert proofs > 500
    assert output_only > 10
    assert min(settled.values()) > 100, settled


def test_directional_duals_prove_success_from_half_beta(rng):
    # clear of the floors, the duals prove every sigma above beta* / 2
    proofs = 0
    for _ in range(8):
        ds = random_dataset(rng, max_units=8)
        ds = DeaDataset(names=ds.names, X=ds.X + 5.0, Y=ds.Y + 5.0)
        for i in range(ds.n_units):
            beta, _, duals = _directional_optimum(ds, i)
            for sigma in np.arange(0.5 * beta + 1e-3, 0.5 * beta + 2.0, 0.05):
                assert _success_proved(ds, i, sigma, duals)
                proofs += 1
            if beta > 2e-3:
                assert not _success_proved(ds, i, 0.5 * beta - 1e-3, duals)
    assert proofs > 100


def test_unusable_duals_prove_nothing(table1):
    # E reaches efficiency at sigma = 11/14 exactly
    duals = _directional_optimum(table1, 4)[2]
    for sigma in (0.0, 0.5, 0.78, 0.79, 1.0):
        # the proof is invariant to the duals' scale
        assert (_success_proved(table1, 4, sigma, 0.5 * duals)
                == _success_proved(table1, 4, sigma, 3.0 * duals)
                == _success_proved(table1, 4, sigma, duals)
                == (sigma > 11.0 / 14.0))
    for bad in (None, np.full(duals.size, np.nan), -np.abs(duals) - 1.0,
                np.zeros(duals.size), np.full(duals.size, np.inf),
                np.where(duals > 0, np.nan, duals)):
        assert not _success_proved(table1, 4, 1.0, bad)
