"""Brute-force enumeration of efficient facets and the exact solver built on it.

Facets are found by spanning hyperplanes through subsets of extreme
efficient units, padded to full rank with the free-disposal recession
directions (+unit input, -unit output) so axis facets are captured too.
Exponential in the unit count and dimension by design; hard size limits
steer larger instances to the iterative solver.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import DeaDataset, solve_nominal, is_extreme
from .geometry import Hyperplane, min_uncertainty_to_facet
from .outcome import CAPABLE, INCAPABLE, UdeaOutcome
from .robust import DEFAULT_EPS, robust_efficiency

DEFAULT_DIM_LIMIT = 4
DEFAULT_UNIT_LIMIT = 64
SUPPORT_TOL = 1e-7


class SizeLimitError(ValueError):
    """Problem too large for explicit facet enumeration."""


@dataclass
class FacetSet:
    facets: list
    generators: list = field(default_factory=list)   # extreme-unit indices per facet

    def __len__(self):
        return len(self.facets)

    def __iter__(self):
        return iter(self.facets)


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
        for subset in itertools.combinations(extremes, s_size):
            p0 = points[subset[0]]
            base_rows = [points[k] - p0 for k in subset[1:]]
            for dchoice in itertools.combinations(range(phi), phi - s_size):
                rows = np.array(base_rows + [dirs[k] for k in dchoice])
                normal = _unique_normal(rows, phi)
                if normal is None:
                    continue
                d = float(normal @ p0)
                vals = points @ normal - d
                # both signs can support when every unit lies on the plane,
                # so try each supporting sign for a correctly oriented normal
                signs = []
                if vals.min() >= -tol:
                    signs.append(1.0)
                if vals.max() <= tol:
                    signs.append(-1.0)
                if not signs:
                    continue  # cuts through the production set
                otol = 1e-9
                h = None
                for sign in signs:
                    alpha = sign * normal[:n]
                    beta = sign * normal[n:]
                    if np.any(alpha < -otol) or np.any(beta > otol):
                        continue  # wrong orientation for free disposal
                    alpha = alpha.copy()
                    beta = beta.copy()
                    alpha[np.abs(alpha) <= otol] = 0.0
                    beta[np.abs(beta) <= otol] = 0.0
                    if not np.any(alpha) and not np.any(beta):
                        continue
                    h = Hyperplane(alpha=alpha, beta=beta, d=sign * d)
                    break
                if h is None:
                    continue
                key = tuple(np.round(np.concatenate(
                    [h.alpha, h.beta, [h.d]]), 7))
                if key not in found:
                    found[key] = (h, sorted(subset))

    ordered = sorted(found.items(), key=lambda kv: kv[0])
    return FacetSet(facets=[v[0] for _, v in ordered],
                    generators=[v[1] for _, v in ordered])


def _unique_normal(rows: np.ndarray, phi: int):
    """Unit normal of the hyperplane spanned by ``rows``; None when the rows
    are rank deficient (no unique hyperplane)."""
    if rows.shape != (phi - 1, phi):
        return None
    u, s, vt = np.linalg.svd(rows)
    if phi >= 2 and s[-1] <= 1e-9 * max(1.0, s[0]):
        return None
    return vt[-1]


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
    best = None
    for k, h in enumerate(facet_set.facets):
        value, attainable = min_uncertainty_to_facet(ds, i, h)
        # prefer attainable facets on value ties: a strict threshold needs
        # more uncertainty than an equal attainable one (snap the value so
        # float noise cannot break a genuine tie)
        cand = (round(value, 12), 0 if attainable else 1, k, value)
        if best is None or cand < best:
            best = cand
    _, strict_flag, k, upsilon = best
    attainable = strict_flag == 0
    capable = upsilon < nu or (upsilon <= nu and attainable)
    sigma = min(upsilon, nu)
    gamma = robust_efficiency(ds, i, sigma, eps).theta if math.isfinite(sigma) \
        else solve_nominal(ds, i).theta
    return UdeaOutcome(dmu=i, upsilon=float(upsilon),
                       gamma=float(gamma),
                       capability=CAPABLE if capable else INCAPABLE,
                       facet=facet_set.facets[k], facet_index=k,
                       attainable=attainable)
