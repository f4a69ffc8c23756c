"""Iterative box minimum-uncertainty solver.

Finds the first point of the sigma grid ``k * t`` (``t`` the step, ``k * t``
below the cap ``nu``) at which the robust model makes the unit efficient.
An efficient unit stops at sigma = 0.  Otherwise the search splits the grid
at ``safe``, the last grid point at least half a step below every datum the
box transform can floor.  Up to ``safe`` no clamp binds, so the robust score
is monotone in sigma and its first success lies at the grid point just above
``beta* / 2``, where ``beta*`` is the directional distance of the unit along
the box direction (one LP).  That point and the one below it are probed; if
the score succeeds there and fails below, the search is over.  Any other
outcome, or a seed that is unavailable or off the span, narrows the interval
that bisection over grid indices then finishes, so the seed only saves
solves and never changes the answer.  Past ``safe`` the grid is walked
upwards one step at a time.  If no grid point succeeds, one solve at ``nu``
itself decides capability.  On success the true minimum lies in a
width-``t`` bracket below the first successful grid point; one extra
midpoint solve rounds the reported value to the nearest grid multiple.
"""

import math

import numpy as np

from .dataset import DeaDataset, SCORE_TOL
from .lp import SolverFault
from .outcome import CAPABLE, INCAPABLE, UdeaOutcome
from .robust import UncertaintyConfig, directional_distance, robust_efficiency


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
    if safe:
        # beta* / 2 is exact on [0, safe]: when g succeeds and g - 1 fails,
        # the bisection below has nothing left to do
        g = _seed_index(ds, i, t, safe)
        if g and reached(g):
            reached(g - 1)
    # the probes so far lie in [0, safe]: the score fails at lo and, if it
    # succeeds at k, is monotone on [lo, k]
    lo = max(j for j in scores if not reached(j))
    k = min((j for j in scores if reached(j)), default=safe)
    if safe and reached(k):
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


def _seed_index(ds, dmu, t, safe):
    """Smallest grid index ``g`` with ``g * t >= beta* / 2``, or 0 when
    ``g`` falls outside ``1 .. safe`` or the directional distance solve
    fails to give a finite optimum."""
    try:
        target = 0.5 * directional_distance(ds, dmu)
    except SolverFault:
        return 0
    if not 0 < target <= safe * t:  # also rejects nan
        return 0
    g = math.ceil(target / t)
    # settle rounding of the division with the walk's own arithmetic
    while g * t < target:
        g += 1
    while g > 1 and (g - 1) * t >= target:
        g -= 1
    return g


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
    """Capability from the trace: capable iff efficiency was reached at
    some probed sigma <= nu; the label set is {capable, incapable}.

    Only while no ``eps``/0 floor binds is the score monotone in sigma.
    There the compact box attains its best score at the largest sigma, so
    the solve at ``nu`` settles capability and "weakly incapable"
    (efficiency approached but not attained) cannot arise.  Once a floor
    binds the score can fall as sigma grows: a unit may succeed at a grid
    point and fail at ``nu``, so every probe counts, not only the last.
    """
    if not outcome.trace:
        raise ValueError("outcome has no trace to classify")
    for sigma, score in outcome.trace:
        if sigma <= cfg.nu + 1e-12 and score >= 1.0 - SCORE_TOL:
            return CAPABLE
    return INCAPABLE
