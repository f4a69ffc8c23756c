"""Efficient facets by enumeration, and the exact solver built on them.

A facet is a hyperplane through a subset of the extreme efficient units,
padded to phi - 1 independent rows with free-disposal recession directions
(+unit input, -unit output) so axis facets are found too; it counts when
every unit lies on one side of it, oriented for free disposal.  For each
subset size every candidate (subset x choice of directions) is stacked into
one array: one SVD gives the normals and their rank test, and one matrix
product tests support.  Only the survivors are oriented, snapped and
deduplicated one by one, in the order of the candidates.  The work is
exponential in the unit count and dimension; hard size limits steer larger
instances to the iterative solver.

``exact_udea`` scores a unit against every facet in one array expression
(``geometry.facet_thresholds``) over the stack its ``FacetSet`` keeps.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DeaDataset, solve_nominal, is_extreme
from .geometry import FacetStack, Hyperplane, facet_thresholds, stack_facets
from .outcome import CAPABLE, INCAPABLE, UdeaOutcome
from .robust import DEFAULT_EPS, robust_efficiency

DEFAULT_DIM_LIMIT = 4
DEFAULT_UNIT_LIMIT = 64
SUPPORT_TOL = 1e-7
# subsets per stacked SVD, which bounds the candidate arrays: 64 extreme
# units in 4 variables make 635,376 candidates of one subset size
SUBSET_CHUNK = 1024


class SizeLimitError(ValueError):
    """Problem too large for explicit facet enumeration."""


@dataclass
class FacetSet:
    facets: list
    generators: list = field(default_factory=list)   # extreme-unit indices per facet
    _stacks: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __len__(self):
        return len(self.facets)

    def __iter__(self):
        return iter(self.facets)

    def stack(self, env_outputs) -> FacetStack:
        """The facets stacked for ``facet_thresholds``, built once per
        environmental-output mask."""
        key = np.asarray(env_outputs, dtype=bool).tobytes()
        if key not in self._stacks:
            self._stacks[key] = stack_facets(self.facets, env_outputs)
        return self._stacks[key]


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
    extremes = [i for i in range(ds.n_units) if is_extreme(ds, i)]

    # free-disposal recession directions of the production set
    dirs = np.diag(np.concatenate([np.ones(n), -np.ones(m)]))

    scale = max(1.0, float(np.abs(points).max()))
    tol = SUPPORT_TOL * scale

    found = {}
    for s_size in range(1, min(phi, len(extremes)) + 1):
        dchoices = np.array(
            list(itertools.combinations(range(phi), phi - s_size)), dtype=int)
        subsets = itertools.combinations(extremes, s_size)
        while chunk := list(itertools.islice(subsets, SUBSET_CHUNK)):
            _add_facets(found, np.array(chunk), dchoices, points, dirs, n,
                        tol)

    ordered = sorted(found.items(), key=lambda kv: kv[0])
    return FacetSet(facets=[v[0] for _, v in ordered],
                    generators=[v[1] for _, v in ordered])


def _add_facets(found, subsets, dchoices, points, dirs, n, tol):
    """Add to ``found`` the new facets spanned by the (subset, direction
    choice) pairs, taken subset-major; the first pair to find a facet
    names its generators."""
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
    # both signs can support when every unit lies on the plane, so each
    # supporting sign is tried for a correctly oriented normal
    pos = vals.min(axis=1) >= -tol
    neg = vals.max(axis=1) <= tol
    otol = 1e-9
    for k in np.flatnonzero(full_rank & (pos | neg)):
        subset = subsets[k // n_d]
        normal = normals[k]
        # d again from a row of points: the dot product's rounding depends
        # on the operands' strides, and the hyperplane keeps this d
        d_k = float(normal @ points[subset[0]])
        h = None
        for sign, supports in ((1.0, pos[k]), (-1.0, neg[k])):
            if not supports:
                continue
            alpha = sign * normal[:n]
            beta = sign * normal[n:]
            if np.any(alpha < -otol) or np.any(beta > otol):
                continue  # wrong orientation for free disposal
            alpha[np.abs(alpha) <= otol] = 0.0
            beta[np.abs(beta) <= otol] = 0.0
            if not np.any(alpha) and not np.any(beta):
                continue
            h = Hyperplane(alpha=alpha, beta=beta, d=sign * d_k)
            break
        if h is None:
            continue
        key = tuple(np.round(np.concatenate([h.alpha, h.beta, [h.d]]), 7))
        if key not in found:
            found[key] = (h, sorted(subset.tolist()))


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
    i = int(dmu)
    if facet_set is None:
        facet_set = enumerate_efficient_facets(ds)
    if not facet_set.facets:
        raise ValueError("no efficient facets found")
    values, attainable = facet_thresholds(ds, i,
                                          facet_set.stack(ds.env_outputs))
    # smallest value first, snapped so float noise cannot break a genuine
    # tie; on ties an attainable facet before a strict one (a strict
    # threshold needs more uncertainty than an equal attainable one), then
    # the lowest index
    k = int(np.lexsort((~attainable, np.round(values, 12)))[0])
    upsilon = float(values[k])
    attainable = bool(attainable[k])
    capable = upsilon < nu or (upsilon <= nu and attainable)
    sigma = min(upsilon, nu)
    gamma = robust_efficiency(ds, i, sigma, eps).theta if math.isfinite(sigma) \
        else solve_nominal(ds, i).theta
    return UdeaOutcome(dmu=i, upsilon=upsilon,
                       gamma=float(gamma),
                       capability=CAPABLE if capable else INCAPABLE,
                       facet=facet_set.facets[k], facet_index=k,
                       attainable=attainable)
