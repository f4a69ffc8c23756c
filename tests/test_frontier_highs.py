"""The frontier programs against scipy's HiGHS on the programs as the model
defines them: lam over every unit, theta or beta a variable of its own and
the convexity row an equality.  The package solves them with lam_i
eliminated and z = 1 - theta (or beta), so that the simplex starts at the
unit itself.  ``test_properties.py`` compares them on hypothesis-drawn
data; here on near-duplicate units and wide data.  Skipped without scipy.
"""

import numpy as np
import pytest

from helpers import highs_beta, highs_theta, table1_dataset
from udea.dataset import PEER_TOL, DeaDataset, is_extreme, solve_nominal
from udea.robust import directional_distance

pytest.importorskip("scipy.optimize")


@pytest.mark.parametrize("gap, extreme", [(5e-7, False), (2e-6, True)])
def test_near_duplicate_within_score_tol(gap, extreme):
    # H copies B's output with input 3 / (1 + gap): B reproduces H at
    # restricted theta 1 + gap, inside SCORE_TOL for the first case only
    base = table1_dataset()
    ds = DeaDataset(names=base.names + ["H"],
                    X=np.hstack([base.X, [[3.0 / (1.0 + gap)]]]),
                    Y=np.hstack([base.Y, [[4.0]]]))
    assert highs_theta(ds, 6, restricted=True) == pytest.approx(
        1.0 + gap, abs=1e-12)
    assert is_extreme(ds, 6) is extreme
    assert not is_extreme(ds, 1)  # B itself is dominated by H


@pytest.mark.parametrize("seed", [11, 97])
def test_wide_random_data_answers(seed):
    # the nominal_wide benchmark's shape: 3 inputs and 3 outputs, uniform
    # on [0.5, 10] to 3 decimals, where wide degenerate programs and tied
    # optima are common
    rng = np.random.default_rng(seed)
    units = 120
    ds = DeaDataset(names=[f"u{k}" for k in range(units)],
                    X=rng.uniform(0.5, 10.0, size=(3, units)).round(3),
                    Y=rng.uniform(0.5, 10.0, size=(3, units)).round(3))
    for i in range(units):
        res = solve_nominal(ds, i)
        assert res.theta == pytest.approx(highs_theta(ds, i), abs=1e-9)
        assert directional_distance(ds, i) == pytest.approx(
            highs_beta(ds, i), abs=1e-9)
        # the reported weights reach theta: a feasible optimum
        lam = res.lam
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        # round-off: basic weights and lam_i = 1 - sum of the rest
        assert np.all(lam >= -1e-12)
        assert np.all(ds.Y @ lam >= ds.Y[:, i] - 1e-9)
        assert np.all(ds.X @ lam <= res.theta * ds.X[:, i] + 1e-9)
        assert res.peers == np.flatnonzero(lam > PEER_TOL).tolist()
