"""Iterative box minimum-uncertainty solver.

Finds the first point of the sigma grid ``k * t`` (``t`` the step, ``k * t``
below the cap ``nu``) at which the robust model makes the unit efficient.
An efficient unit stops at sigma = 0.  Otherwise, as the robust score never
falls as sigma grows, bisection over grid indices finds the first success.
The bisected span ends at the last grid point below ``nu`` or, if earlier,
at the first one reaching half the unit's smallest own input, where
``robust_efficiency`` scores 1.  Before bisecting, the search probes the
grid point just above ``beta* / 2``, where ``beta*`` is the directional
distance of the unit along the box direction (one LP); it is the first
success wherever no ``eps``/0 floor binds.  If the score succeeds there
and fails one point below, the search is over.  Any other outcome, or a
seed that is unavailable or off the span, narrows the interval that
bisection then finishes, so the seed only saves solves and never changes
the answer.  The directional distance is solved only when the span holds
a grid point above 0.  If no grid point succeeds, one solve at ``nu``
itself decides capability (at ``nu = 0``, the sigma = 0 score does).  On
success the true minimum lies in a width-``t`` bracket below the first
successful grid point; one extra midpoint probe rounds the reported value
to the nearest grid multiple.

Every probe but sigma = 0 and the cap reads the weights and duals of the
directional distance solve, which settle most of them without a solve
(``robust._probe``).  So a clamp-free inefficient unit costs two LPs,
sigma = 0 and the directional distance.
"""

import math

from .dataset import DeaDataset, _check_index, _efficient
from .outcome import UdeaOutcome
from .robust import NO_PROOF, UncertaintyConfig, _probe, _proof


def iterative_udea(ds: DeaDataset, dmu: int,
                   cfg: UncertaintyConfig = None) -> UdeaOutcome:
    """Grid search for the minimum uncertainty making ``dmu`` efficient."""
    if cfg is None:
        cfg = UncertaintyConfig()
    i = _check_index(ds, dmu)
    t = cfg.step
    # grid index k -> robust score at sigma = k * t, or None where the
    # seed weights prove the score fails there
    probes = {}
    proof = NO_PROOF

    def reached(k):
        if k not in probes:
            probes[k] = _probe(ds, i, k * t, cfg.eps, proof)
        return probes[k] is not None and _efficient(probes[k])

    def trace():
        return [(k * t, probes[k]) for k in sorted(probes)
                if probes[k] is not None]

    if reached(0):
        return UdeaOutcome(dmu=i, upsilon=0.0, gamma=probes[0],
                           capable=True, trace=trace(), bracket=(0.0, 0.0))

    top = _search_top(ds, i, t, cfg)
    if top > 0:  # with no grid point above 0, no proof has a probe to settle
        proof = _proof(ds, i)
        # beta* / 2 is exact where no floor binds: when its grid point g
        # succeeds and g - 1 fails, the bisection below has nothing left
        target = 0.5 * proof[0]
        if 0 < target <= top * t:  # also rejects nan and inf
            g = _grid_index(target, t)
            if reached(g):
                reached(g - 1)
    # the score is monotone and fails at lo; if it succeeds at k, its first
    # success on the grid lies in (lo, k]
    lo = max(j for j in probes if not reached(j))
    k = min((j for j in probes if reached(j)), default=top)
    if reached(k):  # k * t is below nu
        while k - lo > 1:
            mid = (lo + k) // 2
            if reached(mid):
                k = mid
            else:
                lo = mid
        # the true minimum lies in (sigma - t, sigma]; the midpoint, proved
        # or solved, rounds it to the nearest grid multiple
        sigma = k * t
        half = _probe(ds, i, sigma - 0.5 * t, cfg.eps, proof)
        below = half is not None and _efficient(half)
        return UdeaOutcome(dmu=i, upsilon=sigma - t if below else sigma,
                           gamma=probes[k], capable=True,
                           trace=trace(), bracket=(sigma - t, sigma))

    # grid exhausted below a finite cap; the supremum is attained at nu,
    # which at nu = 0 is the sigma = 0 probe, already in the trace
    if cfg.nu == 0:
        at_nu, probed = probes[0], trace()
    else:
        at_nu = _probe(ds, i, cfg.nu, cfg.eps)
        probed = trace() + [(cfg.nu, at_nu)]
    if _efficient(at_nu):
        return UdeaOutcome(dmu=i, upsilon=cfg.nu, gamma=at_nu,
                           capable=True, trace=probed,
                           bracket=(max(cfg.nu - t, 0.0), cfg.nu))
    return UdeaOutcome(dmu=i, gamma=at_nu, trace=probed)


def _search_top(ds, dmu, t, cfg):
    """Last grid index the search needs: the last with ``k * t`` below the
    cap or, if earlier, the first where sigma exceeds ``eps`` and reaches
    half the unit's smallest own input.  There the own input is at most
    sigma, so ``robust_efficiency`` scores 1, and still at least half its
    value, so ``eps = 0`` leaves it positive."""
    lowest = max(0.5 * ds.X[:, dmu].min(),
                 math.nextafter(cfg.eps, math.inf))
    if lowest < cfg.nu:
        k = _grid_index(lowest, t)
        if k * t < cfg.nu:
            return k
    return max(_grid_index(cfg.nu, t) - 1, 0)


def _grid_index(value, t):
    """Smallest grid index ``g >= 0`` with ``g * t >= value``, in the
    ``g * t`` arithmetic the grid points are made with.  Beyond 2**52
    steps neighbouring grid points round to the same float, so such a grid
    is rejected."""
    steps = float(value) / float(t)
    if not steps < 2**52:  # also rejects nan and inf
        raise ValueError(f"sigma grid of step {t} is too fine to reach "
                         f"{value}: more than 2**52 points")
    g = max(math.ceil(steps), 0)
    # settle rounding of the division
    while g * t < value:
        g += 1
    while g > 0 and (g - 1) * t >= value:
        g -= 1
    return g

