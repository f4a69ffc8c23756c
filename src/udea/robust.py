"""Box-uncertainty configuration and the worst-case-favourable robust solve.

With every data cell free to move within +/- sigma, the score of the unit
under evaluation is maximised at a single corner of the box: its own inputs
drop and outputs rise by sigma while every rival's inputs rise and outputs
drop.  The robust solve is therefore one nominal solve on that transformed
("virtual") dataset.

Every robust score that the search, the sweep and the CLI read is
settled by ``_probe`` on the one corner ``_corner`` builds for it, as two
arrays (inputs, outputs); ``transform_box`` is the same corner as a
dataset, of its own arrays.  At sigma = 0 the corner is the data itself:
``_corner`` returns ``ds.X`` and ``ds.Y``, which every reader of a corner
only reads.
The directional distance solve along the box direction (``_proof``)
settles most of the search's corners without a nominal solve: below
``beta* / 2`` its weights ``lam*`` may prove a failure
(``_proves_failure``), and at or above it its duals may prove a score of
1 (``_proves_success``).  Each check runs once where it belongs:
``_certificate`` checks and rescales the weights and duals once per
``_proof``, and ``_probe`` alone decides whether a corner may be proved,
leaving to the proofs only their sigma arithmetic.  A corner the proofs
leave open takes the floor rule of ``robust_efficiency`` or one solve, of
which the probe reads back only the score (``dataset._frontier_score``):
not the weights, duals, slacks or peers, which ``robust_efficiency``
reports.  Every solve goes straight from the arrays into its simplex
tableau (``dataset._frontier_tableau``).
"""

from dataclasses import dataclass, replace

import numpy as np

from .dataset import (SCORE_TOL, DeaDataset, EfficiencyResult, _check_index,
                      _frontier_score, _frontier_solve, _frontier_tableau,
                      _nominal_tableau, _result)
from .lp import SolverFault

DEFAULT_EPS = 1e-9
DEFAULT_STEP = 0.01
DEFAULT_CAP = 3.6
# (beta*, lam, u, v) that prove nothing: every probe given it is solved
NO_PROOF = (np.nan, None, None, None)


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
    Environmental output rows are left untouched.  The corner is
    ``dataclasses.replace(ds, X=..., Y=...)``, so the new dataset copies
    the corner's arrays, the data's own at ``sigma = 0``, as it copies the
    names and flags.
    """
    X, Y = _corner(ds, _check_index(ds, dmu), sigma, eps)
    return replace(ds, X=X, Y=Y)


def _corner(ds: DeaDataset, i: int, sigma: float, eps: float):
    """``(X, Y)`` of ``transform_box(ds, i, sigma, eps)``, without the
    dataset around them; ``i`` is a checked unit index.

    At ``sigma = 0`` the corner equals the data, and they are ``ds.X`` and
    ``ds.Y`` themselves, not copies: a caller reads a corner and never
    writes into it, and the dataset that ``transform_box`` builds around
    it makes its own copies.

    A sigma that carries the largest datum the box moves (an input or a
    non-environmental output) past the largest float has no corner, and
    is rejected before any cell is added to.
    """
    # also rejects nan; an infinite sigma gives infinite rival inputs,
    # which the slacks of lam = e_i would multiply by 0
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    if sigma == 0:
        return ds.X, ds.Y
    if not ds._top + sigma < np.inf:
        raise ValueError(f"sigma {sigma} plus the largest datum {ds._top} "
                         "overflows; scale the data down")
    X = ds.X + sigma
    np.subtract(ds.X[:, i], sigma, out=X[:, i])
    Y = ds.Y - sigma
    # environmental rows are restored below, and never added to
    np.add(ds.Y[:, i], sigma, out=Y[:, i], where=~ds.env_outputs)
    np.copyto(Y, ds.Y, where=ds.env_outputs[:, None])
    np.maximum(X, eps, out=X)
    np.maximum(Y, 0.0, out=Y)
    if not X[:, i].sum() > 0:
        raise ValueError("every unit needs at least one positive input")
    return X, Y


def directional_distance(ds: DeaDataset, dmu: int) -> float:
    """Directional distance ``beta*`` of ``dmu`` along the box direction
    g = (-1 on inputs, +1 on non-environmental outputs):

        max beta  s.t.  X lam + beta <= x_i,  Y lam - g beta >= y_i,
                        sum(lam) = 1,  lam >= 0,  beta >= 0

    (Chambers, Chung & Färe 1996), solved as the frontier program of
    ``dataset._frontier_tableau`` with z = beta and z column (g, 1).
    ``lam = e_i`` is feasible, so ``beta* >= 0``.  The box transform moves
    ``dmu`` by ``sigma`` along g and every rival by ``sigma`` against it, so
    while no ``eps``/0 floor binds, ``beta* / 2`` is the minimum
    uncertainty making ``dmu`` efficient.
    """
    return _directional_optimum(ds, _check_index(ds, dmu))[0]


def _directional_optimum(ds: DeaDataset, i: int):
    """``(beta*, lam*, duals)`` of ``directional_distance`` of unit ``i``
    from its one solve: ``lam*`` on the simplex and the rows' multipliers
    (``dataset._frontier_solve``), whose output and input entries are
    the weights (u, v) of ``_certificate``."""
    z_y = np.where(ds.env_outputs, 0.0, 1.0)
    return _frontier_solve(_frontier_tableau(ds.X, ds.Y, i, z_y, 1.0), i)


def _proof(ds: DeaDataset, i: int):
    """``(beta*, lam, u, v)``: ``beta*`` of ``_directional_optimum`` of unit
    ``i`` and the ``_certificate`` of its weights and duals, the ``proof``
    that ``_probe`` reads, or ``NO_PROOF`` where that solve faults."""
    try:
        beta, lam, duals = _directional_optimum(ds, i)
    except SolverFault:
        return NO_PROOF
    return (beta, *_certificate(ds, lam, duals))


def _certificate(ds: DeaDataset, lam, duals):
    """``(lam, u, v)`` that the proofs read, from any weights ``lam`` and
    ``duals`` of a program over ``ds``: ``lam`` rescaled to sum 1, and the
    output and input entries of ``duals`` clipped at 0 as u and v.

    The proofs hold for any weights and duals; missing, negative or
    non-finite ones prove nothing, so a part made from them is None (the
    duals' negative entries are clipped, not rejected).  Checked here
    once per ``_proof``, not on every probe.
    """
    if lam is not None:
        lam = np.asarray(lam, dtype=float)
        total = lam.sum()
        usable = 0 < total < np.inf and lam.min() >= 0  # also rejects nan
        lam = lam / total if usable else None
    u = v = None
    if duals is not None and np.isfinite(duals).all():
        m, n = ds.n_outputs, ds.n_inputs
        duals = np.maximum(np.asarray(duals, dtype=float), 0.0)
        u, v = duals[:m], duals[m:m + n]
    return lam, u, v


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
    i = _check_index(ds, dmu)
    X, Y = _corner(ds, i, sigma, eps)
    if sigma > 0 and X[:, i].min() <= sigma:
        lam = np.zeros(X.shape[1])
        lam[i] = 1.0
        return _result(X, Y, i, lam, 1.0)
    z, lam, _ = _frontier_solve(_nominal_tableau(X, Y, i), i)
    return _result(X, Y, i, lam, 1.0 - z)


def _probe(ds: DeaDataset, i: int, sigma: float,
           eps: float = DEFAULT_EPS, proof=NO_PROOF):
    """The score of ``robust_efficiency(ds, i, sigma, eps)``, or ``None``
    where the weights of ``proof`` (a ``_proof`` of unit ``i``) prove that
    it fails.  ``i`` is a checked unit index; ``sigma`` and the floored
    corner are checked here, as ``transform_box`` checks them.  The
    corner is only read, so at sigma = 0 it is the data itself.

    The smallest own input of the corner, taken once, decides both the
    proofs and the floor rule.  A proof is tried only where it exceeds
    ``sigma``: at or below it, with ``sigma > 0``, the floor rule of
    ``robust_efficiency`` scores 1 without a solve, and an own input
    floored to 0 is never divided by.  Floors aside, the weights prove
    failures only below ``beta* / 2`` and the duals successes only at or
    above it, so each is tried on its own side alone, on the one corner
    the solve would use.  A proved success scores 1.0, as the solve scores
    it.  Otherwise the score is the floor rule's or one solve's, bit for
    bit ``robust_efficiency``'s; the solve reads back z* alone, not the
    weights and duals.  So weights or duals that prove nothing, and parts
    of ``proof`` that are None, cost only the solves they would have
    saved.
    """
    beta, lam, u, v = proof
    X, Y = _corner(ds, i, sigma, eps)
    if X[:, i].min() > sigma:
        if sigma < 0.5 * beta:
            if lam is not None and _proves_failure(X, Y, i, lam):
                return None
        elif u is not None and _proves_success(X, Y, i, u, v):
            return 1.0
    elif sigma > 0:
        return 1.0
    return 1.0 - _frontier_score(_nominal_tableau(X, Y, i), i)


def _robust_scores(ds: DeaDataset, i: int, sigmas,
                   eps: float = DEFAULT_EPS) -> list:
    """The score of unit ``i`` at each of the ascending ``sigmas``: the
    ``_probe`` of each up to the first that scores exactly 1, and 1 from
    there on without a probe, as the score never falls as sigma grows and
    never exceeds 1.
    """
    scores = []
    for sigma in sigmas:
        scores.append(_probe(ds, i, sigma, eps))
        if scores[-1] == 1.0:
            break
    return scores + [1.0] * (len(sigmas) - len(scores))


def _proves_failure(X, Y, dmu: int, lam) -> bool:
    """True when the weights ``lam`` (a ``_certificate``'s, on the simplex)
    prove, without a solve, that the robust score of ``dmu`` on the corner
    ``(X, Y)`` is not efficient, where that is the ``_corner`` of the
    score and every own input of it exceeds sigma (see ``_probe``).

    ``lam`` is a feasible point of the corner's nominal program when it
    meets every output row, environmental rows included, and then bounds
    its minimum by theta(lam) = max_n (X' lam)_n / x'_{i,n}.  theta(lam)
    below ``1 - 2 * SCORE_TOL`` leaves the solve's score short of
    ``1 - SCORE_TOL`` by more than its round-off.  This holds for any
    ``lam`` on the simplex, optimal or not.
    """
    return bool((Y @ lam >= Y[:, dmu]).all()
                and (X @ lam / X[:, dmu]).max() < 1.0 - 2.0 * SCORE_TOL)


def _proves_success(X, Y, dmu: int, u, v) -> bool:
    """True when the weights ``u`` and ``v`` (a ``_certificate``'s,
    nonnegative) prove, without a solve, that the robust score of ``dmu``
    on the corner ``(X, Y)`` is 1, where that is the ``_corner`` of the
    score and every own input of it exceeds sigma (see ``_probe``).

    Take h'_k = v.x'_k - u.y'_k on the corner's data.  Every feasible lam
    of the corner's nominal program meets
    theta * v.x'_i >= v.X' lam = sum_k lam_k h'_k + u.Y' lam
    >= sum_k lam_k h'_k + u.y'_i, so:

    - when no unit has h'_k below h'_i by more than ``1e-12 * v.x'_i``,
      theta >= 1 - 1e-12;
    - when every other unit has h'_k above h'_i by more than the round-off
      of h, lam = e_i is the only feasible point if v.x'_i = 0, and
      theta >= 1 otherwise.

    The first test serves where v.x'_i stands clear of the round-off of h,
    the second elsewhere.  The duals of ``_directional_optimum`` are the
    supporting hyperplane of the variable-returns multiplier form (Banker,
    Charnes & Cooper 1984), with u.g + sum(v) = 1 for the box direction g
    wherever beta* > 0.  While no floor binds, h'_k - h'_i = h_k - h_i +
    2 sigma >= 2 sigma - beta*, so they prove every sigma above
    ``beta* / 2``, and ``beta* / 2`` itself unless v.x'_i = 0 there (an
    output-axis facet, whose threshold is strict).  The bound holds for
    any nonnegative u and v.
    """
    vX = v @ X
    uY = u @ Y
    h = vX - uY
    gap = h - h[dmu]
    gap[dmu] = np.inf
    # each h'_k sums terms no larger than `size`, so its round-off is far
    # below 1e-12 * size, and v.x'_i at 1e-3 * size stands clear of it
    size = (vX + uY).max()
    vx = v @ X[:, dmu]
    if vx > 1e-3 * size:
        return bool(gap.min() >= -1e-12 * vx)
    return bool(gap.min() > 1e-12 * size)
