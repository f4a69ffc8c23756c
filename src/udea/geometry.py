"""Frontier facets as oriented hyperplanes, and the minimum uncertainty
that brings a unit onto each of them.

A facet of the efficient frontier is an oriented supporting hyperplane
``alpha'x + beta'y = d`` with the production set on the >= side, input
coefficients >= 0 and output coefficients <= 0.  With that orientation the
closed form below reproduces the worked two-dimensional example exactly.
A ``FacetSet`` stacks its facets once, when it is built, and scores a
dataset once: the formula for every unit against every facet, and each
unit's attaining facet, in one array expression (``FacetSet.scores``); one
facet is a set of one.  A set carries the support tolerance of the data it
was enumerated from (``support_tol``), and keeps the last dataset scored
with its scores, and each facet's gamma certificate, so that solving a unit
reads its column and computes only its gamma.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import DeaDataset
from .robust import _certificate

AXIS_TOL = 1e-12
# a unit within SUPPORT_TOL * max(1, largest datum) of a hyperplane lies on
# it: enumeration tests support with it, and a gap that small scores 0
SUPPORT_TOL = 1e-7

INTERIOR = "interior"
INPUT_AXIS = "input-axis"    # beta == 0, e.g. the vertical line x = x_min
OUTPUT_AXIS = "output-axis"  # alpha == 0, e.g. the horizontal line y = y_max


@dataclass
class Hyperplane:
    """Oriented supporting hyperplane of the production possibility set."""

    alpha: np.ndarray
    beta: np.ndarray
    d: float
    kind: str = None

    def __post_init__(self):
        # one pass over the coefficients as Python floats: the norm by
        # math.hypot, then one division per coefficient, which gives the
        # bits numpy's division would
        alpha = np.array(self.alpha, dtype=float, ndmin=1).tolist()
        beta = np.array(self.beta, dtype=float, ndmin=1).tolist()
        norm = math.hypot(*alpha, *beta)
        if norm == 0.0:
            raise ValueError("hyperplane normal must be non-zero")
        alpha = [c / norm for c in alpha]
        beta = [c / norm for c in beta]
        if any(c < -1e-9 for c in alpha) or any(c > 1e-9 for c in beta):
            raise ValueError(
                "expected orientation: input coefficients >= 0, output <= 0")
        self.alpha = np.array(alpha, dtype=float)
        self.beta = np.array(beta, dtype=float)
        self.d = float(self.d) / norm
        if self.kind is None:
            if self.alpha_norm <= AXIS_TOL:
                self.kind = OUTPUT_AXIS
            elif math.hypot(*beta) <= AXIS_TOL:
                self.kind = INPUT_AXIS
            else:
                self.kind = INTERIOR

    @property
    def alpha_norm(self):
        return math.hypot(*self.alpha.tolist())

    def value(self, x, y):
        """Signed evaluation alpha'x + beta'y - d (>= 0 on the PPS side)."""
        return float(self.alpha @ np.atleast_1d(x)
                     + self.beta @ np.atleast_1d(y) - self.d)


def support_tol(ds: DeaDataset) -> float:
    """``SUPPORT_TOL * max(1, largest datum)`` of the nonnegative data of
    ``ds``: the distance within which a unit lies on a hyperplane."""
    return SUPPORT_TOL * max(1.0, ds.X.max(), ds.Y.max(initial=0.0))


@dataclass
class FacetSet:
    """Facets and their generators, stacked once, when the set is built:
    one column per facet.  ``tol`` is the ``support_tol`` of the data the
    facets were enumerated from; a set built by hand snaps only gaps of
    exactly 0 unless it is given one.

    The set scores a dataset once (``scores``) and keeps the last dataset
    scored with its scores, and a facet's gamma certificate once per facet
    (``certificate``), so that solving a unit computes neither."""

    facets: list
    generators: list = field(default_factory=list)   # extreme-unit indices per facet
    tol: float = 0.0

    def __post_init__(self):
        self.alpha = np.array([h.alpha for h in self.facets], dtype=float).T
        self.beta = np.array([h.beta for h in self.facets], dtype=float).T
        self.d = np.array([h.d for h in self.facets], dtype=float)
        # alpha is not zero; scores adds that the box moves it
        self.attainable = np.array([h.alpha_norm > AXIS_TOL
                                    for h in self.facets], dtype=bool)
        # (dataset, its scores) of the last dataset scored: holding the
        # dataset keeps its id from passing to a new one, for `is`
        self._scored = None, None
        self._certificates = {}

    def __len__(self):
        return len(self.facets)

    def __iter__(self):
        return iter(self.facets)

    def scores(self, ds: DeaDataset):
        """(values, attainable, facet) of every unit of ``ds``: the K x I
        smallest box half-widths moving unit i's virtual point onto each
        translated facet k, the mask of the facets whose threshold is
        attainable at equality, and each unit's attaining facet.

        The unit moves by sigma along the box direction (inputs down,
        outputs up) and every rival by sigma against it, so the gap
        ``|alpha'x + beta'y - d|`` closes at twice the rate
        ``|-sum(alpha) + sum(beta)|``, environmental outputs left out.  A
        gap no larger than the support tolerance ``tol`` is the unit lying
        on the facet, and scores 0, not its round-off.  A facet that the
        box cannot move (zero rate) has value inf.  For output-axis facets
        the value is a strict threshold: the unit needs any amount beyond
        it, never exactly it (the projection argument only works in the
        limit of a vanishing facet gradient).

        The attaining facet has the smallest value, snapped so that float
        noise cannot break a genuine tie; on ties an attainable facet comes
        before a strict one (a strict threshold needs more uncertainty than
        an equal attainable one), then the lowest index.  A nan value comes
        last, as a sort puts it.

        The scores are kept for the last dataset scored, that object: a
        dataset whose arrays are written to in place after it was scored
        keeps its scores.
        """
        if self._scored[0] is not ds:
            # sums over the variables one row at a time, so that a value
            # does not depend on the facets or units stacked with it
            zero = np.zeros(len(self))
            rate = 2.0 * np.abs(-sum(self.alpha, zero)
                                + sum(self.beta[~ds.env_outputs], zero))
            finite = rate > AXIS_TOL
            zero = np.zeros((len(self), ds.n_units))
            gap = np.abs(sum(self.alpha[:, :, None] * ds.X[:, None], zero)
                         + sum(self.beta[:, :, None] * ds.Y[:, None], zero)
                         - self.d[:, None])
            gap[gap <= self.tol] = 0.0
            values = np.full(gap.shape, math.inf)
            np.divide(gap, rate[:, None], out=values, where=finite[:, None])
            attainable = finite & self.attainable
            key = np.round(values, 12)
            tie = (key == np.fmin.reduce(key)) | np.isnan(key).all(axis=0)
            facet = np.argmax(np.where(tie, attainable[:, None] + 1, 0),
                              axis=0)
            for a in (values, attainable, facet):  # shared by every unit
                a.flags.writeable = False
            self._scored = ds, (values, attainable, facet)
        return self._scored[1]

    def certificate(self, ds: DeaDataset, k: int):
        """(u, v) of facet ``k`` for units of ``ds``: the ``_certificate``
        of its multipliers (v, u) = (alpha, -beta), taken once per facet
        (see ``facets.exact_udea``)."""
        if k not in self._certificates:
            h = self.facets[k]
            self._certificates[k] = _certificate(
                ds, None, np.concatenate([-h.beta, h.alpha]))[1:]
        return self._certificates[k]


class MinUncertainty(NamedTuple):
    value: float
    attainable_at_equality: bool


def min_uncertainty_to_facet(ds: DeaDataset, dmu: int,
                             h: Hyperplane) -> MinUncertainty:
    """Unit ``dmu``'s entry of ``FacetSet.scores`` for the one facet ``h``,
    at the support tolerance of ``ds``."""
    values, attainable, _ = FacetSet([h], tol=support_tol(ds)).scores(ds)
    return MinUncertainty(float(values[0, dmu]), bool(attainable[0]))
