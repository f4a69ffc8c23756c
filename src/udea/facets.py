"""Efficient facets by enumeration, and the exact solver built on them.

A facet is a hyperplane through a subset of the extreme efficient units,
padded to phi - 1 independent rows with free-disposal recession directions
(+unit input, -unit output) so axis facets are found too; it counts when
every unit lies on one side of it, oriented for free disposal.  For each
subset size every candidate (subset x choice of directions) is stacked into
one array: one SVD gives the normals and their rank test, one matrix
product tests support, and the survivors are oriented, snapped and keyed
as arrays; a ``Hyperplane`` is built only for the first candidate of each
new facet.  The work is exponential in the unit count and dimension; hard
size limits steer larger instances to the iterative solver.

``exact_udea`` scores a unit against every facet in one array expression
(``geometry.facet_thresholds``) over the stack its ``FacetSet`` holds.
"""

import itertools
import math

import numpy as np

from .dataset import DeaDataset, _check_index, is_extreme
from .geometry import SUPPORT_TOL, FacetSet, Hyperplane, facet_thresholds
from .outcome import UdeaOutcome
from .robust import DEFAULT_EPS, _probe

DEFAULT_DIM_LIMIT = 4
DEFAULT_UNIT_LIMIT = 64
# subsets per stacked SVD, which bounds the candidate arrays: 64 extreme
# units in 4 variables make 635,376 candidates of one subset size
SUBSET_CHUNK = 1024


class SizeLimitError(ValueError):
    """Problem too large for explicit facet enumeration."""


def enumerate_efficient_facets(ds: DeaDataset) -> FacetSet:
    """All supporting hyperplanes of the production set touching an extreme
    efficient unit, deduplicated and canonically ordered."""
    n, m = ds.n_inputs, ds.n_outputs
    phi = n + m
    if phi > DEFAULT_DIM_LIMIT:
        raise SizeLimitError(
            f"dimension {phi} exceeds the enumeration limit "
            f"{DEFAULT_DIM_LIMIT}; use the iterative solver")
    if ds.n_units > DEFAULT_UNIT_LIMIT:
        raise SizeLimitError(
            f"{ds.n_units} units exceed the enumeration limit "
            f"{DEFAULT_UNIT_LIMIT}; use the iterative solver")

    points = np.vstack([ds.X, ds.Y]).T  # I x phi
    # identical units reproduce each other, so neither would test extreme:
    # only the lowest index of each distinct point is tested
    first = sorted(np.unique(points, axis=0, return_index=True)[1].tolist())
    distinct = DeaDataset(names=[ds.names[i] for i in first],
                          X=ds.X[:, first], Y=ds.Y[:, first],
                          env_outputs=ds.env_outputs)
    extremes = [i for k, i in enumerate(first) if is_extreme(distinct, k)]

    # free-disposal recession directions of the production set
    dirs = np.diag(np.concatenate([np.ones(n), -np.ones(m)]))

    scale = max(1.0, float(np.abs(points).max()))
    tol = SUPPORT_TOL * scale

    found, tried = {}, set()
    for s_size in range(1, min(phi, len(extremes)) + 1):
        dchoices = np.array(
            list(itertools.combinations(range(phi), phi - s_size)), dtype=int)
        subsets = itertools.combinations(extremes, s_size)
        while chunk := list(itertools.islice(subsets, SUBSET_CHUNK)):
            _add_facets(found, tried, np.array(chunk), dchoices, points,
                        dirs, n, tol)

    ordered = sorted(found.items(), key=lambda kv: kv[0])
    return FacetSet(facets=[v[0] for _, v in ordered],
                    generators=[v[1] for _, v in ordered])


def _add_facets(found, tried, subsets, dchoices, points, dirs, n, tol):
    """Add to ``found`` the new facets spanned by the (subset, direction
    choice) pairs, taken subset-major; the first pair to find a facet
    names its generators and gives its hyperplane.

    Survivors are grouped by the rounded key of their oriented normal and
    ``d``; the first survivor of each key not in ``tried`` builds a
    ``Hyperplane``.  ``found`` is keyed by that hyperplane's own rounded
    values, after ``Hyperplane`` normalises them, so the facets' order and
    deduplication follow the returned hyperplanes even where a value lies
    within round-off of a 7-decimal boundary.
    """
    phi = points.shape[1]
    p0 = points[subsets[:, 0]]                                   # S x phi
    diffs = points[subsets[:, 1:]] - p0[:, None, :]              # S x s-1 x phi
    pad = dirs[dchoices]                                         # D x phi-s x phi
    n_s, n_d = len(subsets), len(dchoices)
    rows = np.concatenate(
        [np.broadcast_to(diffs[:, None], (n_s, n_d) + diffs.shape[1:]),
         np.broadcast_to(pad[None], (n_s,) + pad.shape)], axis=2)
    normals, full_rank = _unique_normal(rows.reshape(n_s * n_d, phi - 1, phi))
    d = np.einsum("kj,kj->k", normals, np.repeat(p0, n_d, axis=0))
    vals = normals @ points.T - d[:, None]
    pos = vals.min(axis=1) >= -tol
    neg = vals.max(axis=1) <= tol
    # orient for free disposal (inputs >= 0, outputs <= 0), sign +1 before
    # -1: both signs can support when every unit lies on the plane
    otol = 1e-9
    a, b = normals[:, :n], normals[:, n:]
    up = pos & ~np.any(a < -otol, axis=1) & ~np.any(b > otol, axis=1)
    down = neg & ~np.any(a > otol, axis=1) & ~np.any(b < -otol, axis=1)
    keep = np.flatnonzero(full_rank & (up | down)
                          & np.any(np.abs(normals) > otol, axis=1))
    sign = np.where(up[keep], 1.0, -1.0)
    oriented = sign[:, None] * normals[keep]
    oriented[np.abs(oriented) <= otol] = 0.0
    keys = np.round(np.column_stack([oriented, sign * d[keep]]), 7)
    for j in np.sort(np.unique(keys, axis=0, return_index=True)[1]):
        key = tuple(keys[j].tolist())
        if key in tried:
            continue
        tried.add(key)
        k = keep[j]
        subset = subsets[k // n_d]
        # d again from a row of points: the dot product's rounding depends
        # on the operands' strides, and the hyperplane keeps this d
        h = Hyperplane(alpha=oriented[j, :n], beta=oriented[j, n:],
                       d=sign[j] * float(normals[k] @ points[subset[0]]))
        own = np.round(np.concatenate([h.alpha, h.beta, [h.d]]), 7)
        found.setdefault(tuple(own.tolist()), (h, sorted(subset.tolist())))


def _unique_normal(rows: np.ndarray):
    """Unit normals of the hyperplanes spanned by each (phi - 1) x phi
    matrix of the stack ``rows``, and the mask of the matrices of full rank
    (the others span no unique hyperplane)."""
    _, s, vt = np.linalg.svd(rows)
    if rows.shape[1] == 0:  # phi = 1: no rows span no hyperplane
        return vt[:, -1], np.zeros(len(rows), dtype=bool)
    return vt[:, -1], s[:, -1] > 1e-9 * np.maximum(1.0, s[:, 0])


def exact_udea(ds: DeaDataset, dmu: int, nu: float = math.inf,
               eps: float = DEFAULT_EPS,
               facet_set: FacetSet = None) -> UdeaOutcome:
    """Exact minimum uncertainty for ``dmu``: the smallest per-facet
    threshold over every efficient facet.

    ``facet_set`` may be passed in to amortise enumeration over many units.
    """
    i = _check_index(ds, dmu)
    if facet_set is None:
        facet_set = enumerate_efficient_facets(ds)
    if not facet_set.facets:
        raise ValueError("no efficient facets found")
    values, attainable = facet_thresholds(ds, i, facet_set)
    # smallest value first, snapped so float noise cannot break a genuine
    # tie; on ties an attainable facet before a strict one (a strict
    # threshold needs more uncertainty than an equal attainable one), then
    # the lowest index
    k = int(np.lexsort((~attainable, np.round(values, 12)))[0])
    upsilon = float(values[k])
    attainable = bool(attainable[k])
    # gamma at the smaller of upsilon and nu; with neither finite, at
    # sigma = 0, where the corner is the data itself
    sigma = min(upsilon, nu)
    gamma = _probe(ds, i, sigma if math.isfinite(sigma) else 0.0, eps)
    return UdeaOutcome(dmu=i, upsilon=upsilon, gamma=gamma,
                       capable=upsilon < nu or (upsilon <= nu and attainable),
                       facet=facet_set.facets[k], facet_index=k,
                       attainable=attainable)
