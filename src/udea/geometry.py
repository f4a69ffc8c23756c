"""Frontier facets as oriented hyperplanes, and the minimum uncertainty
that brings a unit onto each of them.

A facet of the efficient frontier is an oriented supporting hyperplane
``alpha'x + beta'y = d`` with the production set on the >= side, input
coefficients >= 0 and output coefficients <= 0.  With that orientation the
closed form below reproduces the worked two-dimensional example exactly.
A ``FacetSet`` stacks its facets once, when it is built, and the formula
is evaluated for the whole stack at once (``facet_thresholds``); one facet
is a set of one.  A set carries the support tolerance of the data it was
enumerated from (``support_tol``), so the formula does not recompute it
for every unit.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dataset import DeaDataset

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
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        norm = math.hypot(*np.concatenate([self.alpha, self.beta]))
        if norm == 0.0:
            raise ValueError("hyperplane normal must be non-zero")
        self.alpha = self.alpha / norm
        self.beta = self.beta / norm
        self.d = float(self.d) / norm
        if np.any(self.alpha < -1e-9) or np.any(self.beta > 1e-9):
            raise ValueError(
                "expected orientation: input coefficients >= 0, output <= 0")
        if self.kind is None:
            if self.alpha_norm <= AXIS_TOL:
                self.kind = OUTPUT_AXIS
            elif float(np.linalg.norm(self.beta)) <= AXIS_TOL:
                self.kind = INPUT_AXIS
            else:
                self.kind = INTERIOR

    @property
    def alpha_norm(self):
        return float(np.linalg.norm(self.alpha))

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
    by hand snaps only gaps of exactly 0 unless it is given one."""

    facets: list
    generators: list = field(default_factory=list)   # extreme-unit indices per facet
    tol: float = 0.0

    def __post_init__(self):
        self.alpha = np.array([h.alpha for h in self.facets], dtype=float).T
        self.beta = np.array([h.beta for h in self.facets], dtype=float).T
        self.d = np.array([h.d for h in self.facets], dtype=float)
        # alpha is not zero; facet_thresholds adds that the box moves it
        self.attainable = np.array([h.alpha_norm > AXIS_TOL
                                    for h in self.facets], dtype=bool)

    def __len__(self):
        return len(self.facets)

    def __iter__(self):
        return iter(self.facets)


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
    # sums over the variables one row at a time, so that a facet's value
    # does not depend on the facets stacked with it
    zero = np.zeros(len(fs))
    rate = 2.0 * np.abs(-sum(fs.alpha, zero)
                        + sum(fs.beta[~ds.env_outputs], zero))
    finite = rate > AXIS_TOL
    gap = np.abs(sum(fs.alpha * ds.X[:, dmu, None], zero)
                 + sum(fs.beta * ds.Y[:, dmu, None], zero) - fs.d)
    gap[gap <= fs.tol] = 0.0
    values = np.full(len(fs), math.inf)
    np.divide(gap, rate, out=values, where=finite)
    return values, finite & fs.attainable


def min_uncertainty_to_facet(ds: DeaDataset, dmu: int,
                             h: Hyperplane) -> MinUncertainty:
    """``facet_thresholds`` for the one facet ``h``, at the support
    tolerance of ``ds``."""
    values, attainable = facet_thresholds(
        ds, dmu, FacetSet([h], tol=support_tol(ds)))
    return MinUncertainty(float(values[0]), bool(attainable[0]))
