"""Frontier facets as oriented hyperplanes, and the minimum uncertainty
that brings a unit onto each of them.

A facet of the efficient frontier is an oriented supporting hyperplane
``alpha'x + beta'y = d`` with the production set on the >= side, input
coefficients >= 0 and output coefficients <= 0.  With that orientation the
closed form below reproduces the worked two-dimensional example exactly.
A ``FacetSet`` stacks its facets once, when it is built, and the formula
is evaluated for the whole stack at once (``facet_thresholds``); one facet
is a set of one.  A set carries the support tolerance of the data it was
enumerated from (``support_tol``), and keeps what depends on the facets
alone: the box rates, once per environmental mask, and each facet's
gamma certificate, so that scoring a unit computes only its gaps.
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
    """Facets and their generators, stacked once, when the set is built, for
    ``facet_thresholds``: one column per facet.  ``tol`` is the
    ``support_tol`` of the data the facets were enumerated from; a set built
    by hand snaps only gaps of exactly 0 unless it is given one.

    What does not depend on the unit scored is kept on the set: the box
    rates, once per environmental mask the set is scored against
    (``box_rates``), and a facet's gamma certificate, once per facet
    (``certificate``)."""

    facets: list
    generators: list = field(default_factory=list)   # extreme-unit indices per facet
    tol: float = 0.0

    def __post_init__(self):
        self.alpha = np.array([h.alpha for h in self.facets], dtype=float).T
        self.beta = np.array([h.beta for h in self.facets], dtype=float).T
        self.d = np.array([h.d for h in self.facets], dtype=float)
        # alpha is not zero; box_rates adds that the box moves it
        self.attainable = np.array([h.alpha_norm > AXIS_TOL
                                    for h in self.facets], dtype=bool)
        self._rates = {}
        self._certificates = {}

    def __len__(self):
        return len(self.facets)

    def __iter__(self):
        return iter(self.facets)

    def box_rates(self, env_outputs):
        """(rate, finite, attainable) of every facet for data whose
        environmental outputs are the mask ``env_outputs``: the rate
        ``2 |-sum(alpha) + sum(beta)|`` at which the box closes a facet's
        gap, environmental outputs left out; the mask of the facets it
        moves; and of those whose threshold is attainable at equality."""
        key = env_outputs.tobytes()
        if key not in self._rates:
            # sums over the variables one row at a time, so that a facet's
            # rate does not depend on the facets stacked with it
            zero = np.zeros(len(self))
            rate = 2.0 * np.abs(-sum(self.alpha, zero)
                                + sum(self.beta[~env_outputs], zero))
            finite = rate > AXIS_TOL
            rates = rate, finite, finite & self.attainable
            for a in rates:  # shared by every unit scored
                a.flags.writeable = False
            self._rates[key] = rates
        return self._rates[key]

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


def facet_thresholds(ds: DeaDataset, dmu: int, facet_set: FacetSet):
    """Smallest box half-width moving the unit's virtual point onto each
    translated facet of ``facet_set``: the arrays (values, attainable).

    The unit moves by sigma along the box direction (inputs down, outputs
    up) and every rival by sigma against it, so the gap ``|alpha'x + beta'y - d|`` closes at twice
    the rate ``|-sum(alpha) + sum(beta)|``, environmental outputs left out.
    A gap no larger than the set's support tolerance ``facet_set.tol`` is
    the unit lying on the facet, and scores 0, not its round-off.  A facet
    that the box cannot move (zero rate) has value inf.  For output-axis
    facets the value is a strict threshold: the unit needs any amount
    beyond it, never exactly it (the projection argument only works in the
    limit of a vanishing facet gradient).
    """
    fs = facet_set
    rate, finite, attainable = fs.box_rates(ds.env_outputs)
    # sums over the variables one row at a time, as box_rates does
    zero = np.zeros(len(fs))
    gap = np.abs(sum(fs.alpha * ds.X[:, dmu, None], zero)
                 + sum(fs.beta * ds.Y[:, dmu, None], zero) - fs.d)
    gap[gap <= fs.tol] = 0.0
    values = np.full(len(fs), math.inf)
    np.divide(gap, rate, out=values, where=finite)
    return values, attainable


def min_uncertainty_to_facet(ds: DeaDataset, dmu: int,
                             h: Hyperplane) -> MinUncertainty:
    """``facet_thresholds`` for the one facet ``h``, at the support
    tolerance of ``ds``."""
    values, attainable = facet_thresholds(
        ds, dmu, FacetSet([h], tol=support_tol(ds)))
    return MinUncertainty(float(values[0]), bool(attainable[0]))
