"""Iterative box minimum-uncertainty solver.

Finds the first point of the sigma grid ``k * t`` (``t`` the step, ``k * t``
below the cap ``nu``) at which the robust model makes the unit efficient.
While no clamp of the box transform binds, the robust score is monotone in
sigma, so that stretch of the grid is searched by bisection over grid
indices; past it the grid is walked upwards one step at a time.  If no grid
point succeeds, one solve at ``nu`` itself decides capability.  On success
the true minimum lies in a width-``t`` bracket below the first successful
grid point; one extra midpoint solve rounds the reported value to the
nearest grid multiple.
"""

import math

import numpy as np

from .dataset import DeaDataset, SCORE_TOL
from .outcome import CAPABLE, INCAPABLE, UdeaOutcome
from .robust import UncertaintyConfig, robust_efficiency


def iterative_udea(ds: DeaDataset, dmu: int,
                   cfg: UncertaintyConfig = None) -> UdeaOutcome:
    """Grid search for the minimum uncertainty making ``dmu`` efficient."""
    if cfg is None:
        cfg = UncertaintyConfig()
    i = int(dmu)
    t = cfg.step
    scores = {}  # grid index k -> robust score at sigma = k * t

    def reached(k):
        if k not in scores:
            scores[k] = robust_efficiency(ds, i, k * t, cfg.eps).theta
        return scores[k] >= 1.0 - SCORE_TOL

    def trace():
        return [(k * t, scores[k]) for k in sorted(scores)]

    if reached(0):
        return UdeaOutcome(dmu=i, upsilon=0.0, gamma=scores[0],
                           capability=CAPABLE, trace=trace(),
                           bracket=(0.0, 0.0))

    safe = _clamp_free_span(ds, i, t, cfg.nu)
    if safe and reached(safe):
        # score monotone on [0, safe]: fails at lo, succeeds at k
        lo, k = 0, safe
        while k - lo > 1:
            mid = (lo + k) // 2
            if reached(mid):
                k = mid
            else:
                lo = mid
    else:
        # clamps may bind from here on; walk as the score need not be monotone
        k = safe + 1
        while k * t < cfg.nu and not reached(k):
            k += 1

    if k * t < cfg.nu:  # stopped on a successful grid point
        sigma = k * t
        upsilon = _round_to_grid(ds, i, sigma, t, cfg.eps)
        return UdeaOutcome(dmu=i, upsilon=upsilon, gamma=scores[k],
                           capability=CAPABLE, trace=trace(),
                           bracket=(sigma - t, sigma))

    # grid exhausted below a finite cap; the supremum is attained at nu
    score = robust_efficiency(ds, i, cfg.nu, cfg.eps).theta
    probed = trace() + [(cfg.nu, score)]
    if score >= 1.0 - SCORE_TOL:
        return UdeaOutcome(dmu=i, upsilon=cfg.nu, gamma=score,
                           capability=CAPABLE, trace=probed,
                           bracket=(max(cfg.nu - t, 0.0), cfg.nu))
    return UdeaOutcome(dmu=i, upsilon=None, gamma=score,
                       capability=INCAPABLE, trace=probed)


def _clamp_free_span(ds, dmu, t, nu):
    """Largest grid index ``k`` with ``k * t`` below the cap and at least
    half a step below the unit's own inputs and every perturbed output.

    Up to there the transform moves no cell onto its ``eps``/0 floor, nor
    leaves the unit's own input close enough to the floor for the solver
    to lose the theta column, so the robust score is monotone.  Returns 0
    when no grid point qualifies.
    """
    perturbed = ds.Y[~ds.env_outputs]
    lowest = min(ds.X[:, dmu].min(), perturbed.min(initial=np.inf))
    limit = min(lowest - 0.5 * t, nu)
    if limit <= t:
        return 0
    k = math.ceil(limit / t) - 1
    # settle rounding of the division with the walk's own arithmetic
    while (k + 1) * t < limit:
        k += 1
    while k > 0 and k * t >= limit:
        k -= 1
    return k


def _round_to_grid(ds, dmu, sigma, t, eps):
    """Round the first successful grid point to the grid multiple nearest
    the true minimum, deciding with one solve at the bracket midpoint."""
    mid_score = robust_efficiency(ds, dmu, sigma - 0.5 * t, eps).theta
    if mid_score >= 1.0 - SCORE_TOL:
        return sigma - t
    return sigma


def udea_sweep(ds: DeaDataset, cfg: UncertaintyConfig = None) -> list:
    """Run the iterative solver for every unit, order preserved."""
    if cfg is None:
        cfg = UncertaintyConfig()
    return [iterative_udea(ds, i, cfg) for i in range(ds.n_units)]


def classify_capability(outcome: UdeaOutcome, cfg: UncertaintyConfig) -> str:
    """Capability per the final trace entry: capable iff efficiency was
    reached at some sigma <= nu.

    The box with finite cap is compact and the score monotone in sigma, so
    the best achievable score is attained at sigma = nu; "weakly incapable"
    cannot arise and the label set is {capable, incapable}.
    """
    if not outcome.trace:
        raise ValueError("outcome has no trace to classify")
    for sigma, score in outcome.trace:
        if sigma <= cfg.nu + 1e-12 and score >= 1.0 - SCORE_TOL:
            return CAPABLE
    return INCAPABLE
