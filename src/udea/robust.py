"""Box-uncertainty configuration and the worst-case-favourable robust solve.

With every data cell free to move within +/- sigma, the score of the unit
under evaluation is maximised at a single corner of the box: its own inputs
drop and outputs rise by sigma while every rival's inputs rise and outputs
drop.  The robust solve is therefore one nominal solve on that transformed
("virtual") dataset.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import (SCORE_TOL, DeaDataset, EfficiencyResult, _check_index,
                      _frontier_lp, _frontier_optimum, _result, solve_nominal)

DEFAULT_EPS = 1e-9
DEFAULT_STEP = 0.01
DEFAULT_CAP = 3.6


@dataclass
class UncertaintyConfig:
    """Admissibility cap, sigma grid step and input clamp floor.

    All values are in scaled data units; ``nu`` may be ``inf``.
    """

    nu: float = DEFAULT_CAP
    step: float = DEFAULT_STEP
    eps: float = DEFAULT_EPS

    def __post_init__(self):
        # written so that nan fails too; only nu may be inf
        if not self.nu >= 0:
            raise ValueError(f"nu must be nonnegative, got {self.nu}")
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, "
                             f"got {self.step}")
        if not 0 <= self.eps < np.inf:
            raise ValueError(f"eps must be nonnegative and finite, "
                             f"got {self.eps}")


def transform_box(ds: DeaDataset, dmu: int, sigma: float,
                  eps: float = DEFAULT_EPS) -> DeaDataset:
    """Shift every unit to the corner of its box most favourable to ``dmu``.

    Transformed inputs are floored at ``eps`` and outputs at zero so
    uncertainty never introduces negative data.  With ``eps = 0`` a unit
    whose inputs all reach the floor is rejected, as ``DeaDataset`` would.
    Environmental output rows are left untouched.
    """
    if not sigma >= 0:  # also rejects nan
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    i = _check_index(ds, dmu)
    X = ds.X + sigma
    X[:, i] = ds.X[:, i] - sigma
    Y = ds.Y - sigma
    Y[:, i] = ds.Y[:, i] + sigma
    Y[ds.env_outputs, :] = ds.Y[ds.env_outputs, :]
    if sigma > 0:
        np.maximum(X, eps, out=X)
        np.maximum(Y, 0.0, out=Y)
        if not X[:, i].sum() > 0:
            raise ValueError("every unit needs at least one positive input")
    # ds is already validated, and the floors keep the corner valid except
    # for the check above, so the corner skips DeaDataset.__post_init__
    corner = DeaDataset.__new__(DeaDataset)
    vars(corner).update(names=list(ds.names), X=X, Y=Y,
                        env_outputs=ds.env_outputs.copy(),
                        input_names=list(ds.input_names),
                        output_names=list(ds.output_names))
    return corner


def directional_distance(ds: DeaDataset, dmu: int) -> float:
    """Directional distance ``beta*`` of ``dmu`` along the box direction
    g = (-1 on inputs, +1 on non-environmental outputs):

        max beta  s.t.  X lam + beta <= x_i,  Y lam - g beta >= y_i,
                        sum(lam) = 1,  lam >= 0,  beta >= 0

    (Chambers, Chung & Färe 1996), solved as the frontier program of
    ``_frontier_lp`` with z = beta and z column (g, 1).  ``lam = e_i`` is
    feasible, so ``beta* >= 0``.  The box transform moves ``dmu`` by
    ``sigma`` along g and every rival by ``sigma`` against it, so while no
    ``eps``/0 floor binds, ``beta* / 2`` is the minimum uncertainty making
    ``dmu`` efficient.
    """
    return _directional_optimum(ds, dmu)[0]


def _directional_optimum(ds: DeaDataset, dmu: int):
    """``(beta*, lam*)`` of ``directional_distance`` from its one solve,
    ``lam*`` on the simplex (``dataset._frontier_optimum``)."""
    i = _check_index(ds, dmu)
    z_col = np.concatenate([np.where(ds.env_outputs, 0.0, 1.0),
                            np.ones(ds.n_inputs)])
    return _frontier_optimum(ds, i, _frontier_lp(ds, i, z_col))


def robust_efficiency(ds: DeaDataset, dmu: int, sigma: float,
                      eps: float = DEFAULT_EPS) -> EfficiencyResult:
    """Best achievable score of ``dmu`` over the sigma-box: a nominal solve
    on the worst-case-favourable corner dataset.

    Once ``sigma > 0`` brings an own input ``x`` of ``dmu`` to ``sigma`` or
    below, the ``eps`` floor included, the score is 1 with ``lam = e_i`` and
    no solve: every rival input on that row is at least ``sigma``, so
    ``x * sum(lam) <= X lam <= theta * x`` forces ``theta >= 1`` (at
    ``x = 0`` the row admits only ``lam = e_i``, and the positive own input
    the transform keeps does the same).  The LP cannot be trusted there, as
    an own input near the pivot tolerance makes the theta column look zero.
    """
    corner = transform_box(ds, dmu, sigma, eps)
    i = int(dmu)
    if sigma > 0 and corner.X[:, i].min() <= sigma:
        lam = np.zeros(ds.n_units)
        lam[i] = 1.0
        return _result(corner, i, lam, 1.0)
    return solve_nominal(corner, i)


def _proves_failure(ds: DeaDataset, dmu: int, sigma: float, lam,
                    eps: float = DEFAULT_EPS) -> bool:
    """True when the weights ``lam`` prove, without a solve, that
    ``robust_efficiency(ds, dmu, sigma, eps)`` is not efficient.

    ``lam`` (nonnegative, rescaled to sum 1) is a feasible point of the
    corner's nominal program when it meets every output row, environmental
    rows included, and then bounds its minimum by theta(lam) =
    max_n (X' lam)_n / x'_{i,n}.  With every own input of the corner above
    ``sigma`` the floor rule of ``robust_efficiency`` does not apply, and
    theta(lam) below ``1 - 2 * SCORE_TOL`` leaves the solve's score short
    of ``1 - SCORE_TOL`` by more than its round-off.  This holds for any
    ``lam``, optimal or not: weights that prove nothing return False, and
    so do negative or non-finite ones.
    """
    lam = np.asarray(lam, dtype=float)
    total = lam.sum()
    if not (0 < total < np.inf and lam.min() >= 0):  # also rejects nan
        return False
    corner = transform_box(ds, dmu, sigma, eps)
    i = int(dmu)
    own_x = corner.X[:, i]
    if not own_x.min() > sigma:
        # the floor rule's ground: theta(lam) >= 1 there, as every rival
        # input on the row is at least sigma; an own input floored to 0
        # is never divided by
        return False
    lam = lam / total
    return bool(np.all(corner.Y @ lam >= corner.Y[:, i])
                and np.max(corner.X @ lam / own_x) < 1.0 - 2.0 * SCORE_TOL)
