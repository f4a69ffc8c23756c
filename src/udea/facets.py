"""Efficient facets by enumeration, and the exact solver built on them.

A facet is a hyperplane through a subset of the extreme efficient units,
padded to phi - 1 independent rows with free-disposal recession directions
(+unit input, -unit output) so axis facets are found too; it counts when
every unit lies on one side of it, oriented for free disposal.  For each
subset size every candidate (subset x choice of directions) is stacked into
one array: one determinant call gives every normal as a generalised cross
product, and its length the rank test; one matrix product tests support,
and the survivors are oriented, snapped and keyed as arrays; a
``Hyperplane`` is built only for the first candidate of each new facet.
The work is exponential in the unit count and dimension; hard size limits
steer larger instances to the iterative solver.

Only the distinct units that no other distinct unit weakly dominates (no
more of any input, no less of any output) take the extreme-point LP, and
only against each other.  A dominating unit reproduces a dominated one
(lam = its unit vector), so ``is_extreme`` would reject the dominated unit
anyway, and leaving it out of the LPs keeps a unit that dominates it by
less than ``SCORE_TOL`` from being reproduced by it.

``exact_udea`` scores a unit against every facet in one array expression
(``geometry.facet_thresholds``) over the stack its ``FacetSet`` holds, and
the attaining facet, a supporting hyperplane, is the certificate that lets
``robust._probe`` score gamma = 1 at upsilon without a solve.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from .dataset import DeaDataset, _check_index, is_extreme
from .geometry import FacetSet, Hyperplane, facet_thresholds, support_tol
from .outcome import UdeaOutcome
from .robust import DEFAULT_EPS, _probe

DEFAULT_DIM_LIMIT = 4
DEFAULT_UNIT_LIMIT = 64
# subsets per candidate stack, which bounds its arrays to 6,144 row sets in
# 4 variables: 64 extreme units make 635,376 subsets of size 4
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
    # only the lowest index of each distinct point is tested, only if no
    # other distinct point dominates it, and only against the other such
    # points, so that no unit is reproduced by one it dominates
    first = sorted(np.unique(points, axis=0, return_index=True)[1].tolist())
    first = [i for i, dominated in zip(first, _dominated(points[first], n))
             if not dominated]
    tested = replace(ds, names=[ds.names[i] for i in first],
                     X=ds.X[:, first], Y=ds.Y[:, first])
    extremes = [i for k, i in enumerate(first) if is_extreme(tested, k)]

    # free-disposal recession directions of the production set
    dirs = np.diag(np.concatenate([np.ones(n), -np.ones(m)]))

    tol = support_tol(ds)

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
                    generators=[v[1] for _, v in ordered], tol=tol)


def _dominated(points, n):
    """Mask of the rows of ``points`` (distinct units, ``n`` inputs then
    the outputs, environmental ones included) that another row weakly
    dominates: no more of any input and no less of any output.  Such a
    unit is reproduced by the one dominating it, so it is not extreme."""
    gains = np.concatenate([-points[:, :n], points[:, n:]], axis=1)
    covers = (gains[:, None, :] >= gains[None, :, :]).all(axis=2)  # [j, k]
    np.fill_diagonal(covers, False)
    return covers.any(axis=0)


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
    new = []
    for j, key in enumerate(map(tuple, keys.tolist())):
        if key not in tried:
            tried.add(key)
            new.append(j)
    built = []
    for row, s, k in zip(oriented[new].tolist(), sign[new].tolist(),
                         keep[new].tolist()):
        subset = subsets[k // n_d].tolist()
        # d again from a row of points: the dot product's rounding depends
        # on the operands' strides, and the hyperplane keeps this d
        h = Hyperplane(alpha=row[:n], beta=row[n:],
                       d=s * float(normals[k] @ points[subset[0]]))
        built.append((h, sorted(subset)))
    own = np.round([[*h.alpha.tolist(), *h.beta.tolist(), h.d]
                    for h, _ in built], 7)
    for key, facet in zip(map(tuple, own.tolist()), built):
        found.setdefault(key, facet)


def _unique_normal(rows: np.ndarray):
    """Unit normals of the hyperplanes spanned by each (phi - 1) x phi
    matrix of the stack ``rows``, and the mask of the matrices of full rank
    (the others span no unique hyperplane).

    The normal is the generalised cross product: component j is the signed
    minor of the rows without column j, so it is orthogonal to every row.
    Its length is the product of the singular values, which bounds the
    smallest one from below by ``|n| / |rows|_F ** (phi - 2)``: a matrix
    counts as full rank when that bound passes the test
    ``s_min > 1e-9 * max(1, s_max)``, with ``|rows|_F`` for ``s_max``.
    """
    k, _, phi = rows.shape
    if phi == 1:  # no rows span no hyperplane
        return np.ones((k, 1)), np.zeros(k, dtype=bool)
    # each matrix times a power of two that brings its entries below 1, so
    # that no minor or square overflows
    scale = np.ldexp(1.0, -np.frexp(np.abs(rows).max(axis=(1, 2)))[1])
    rows = rows * scale[:, None, None]
    # row j of the table lists every column but j
    cols = np.nonzero(~np.eye(phi, dtype=bool))[1].reshape(phi, phi - 1)
    normals = np.linalg.det(rows[:, :, cols].swapaxes(1, 2))
    normals[:, 1::2] *= -1.0
    length = np.sqrt((normals * normals).sum(axis=1))
    frob = np.sqrt((rows * rows).sum(axis=(1, 2)))
    # the docstring's test on the scaled rows, where the 1 becomes scale
    full_rank = length > 1e-9 * np.maximum(scale, frob) * frob ** (phi - 2)
    return normals / np.where(full_rank, length, 1.0)[:, None], full_rank


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
    # sigma = 0, where the corner is the data itself.  The facet's
    # (v, u) = (alpha, -beta) are variable-returns multipliers (Banker,
    # Charnes & Cooper 1984) and 2 upsilon is the unit's distance to it
    # along the box direction: a proof with beta* = 2 upsilon, which
    # _probe reads only at sigma >= beta* / 2, that is at sigma = upsilon
    sigma = min(upsilon, nu)
    u, v = facet_set.certificate(ds, k)
    gamma = _probe(ds, i, sigma if math.isfinite(sigma) else 0.0, eps,
                   (2.0 * upsilon, None, u, v))
    return UdeaOutcome(dmu=i, upsilon=upsilon, gamma=gamma,
                       capable=upsilon < nu or (upsilon <= nu and attainable),
                       facet=facet_set.facets[k], facet_index=k,
                       attainable=attainable)
