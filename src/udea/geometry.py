"""Frontier facets as oriented hyperplanes, and the minimum uncertainty
that brings a unit onto each of them.

A facet of the efficient frontier is an oriented supporting hyperplane
``alpha'x + beta'y = d`` with the production set on the >= side, input
coefficients >= 0 and output coefficients <= 0.  With that orientation the
closed form below reproduces the worked two-dimensional example exactly.
It is evaluated for a stack of facets at once (``facet_thresholds``); one
facet is a stack of one.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import DeaDataset

AXIS_TOL = 1e-12

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


class MinUncertainty(NamedTuple):
    value: float
    attainable_at_equality: bool


class FacetStack(NamedTuple):
    """Facets as arrays, one column per facet, for one set of
    environmental outputs."""

    alpha: np.ndarray       # N x F
    beta: np.ndarray        # M x F
    d: np.ndarray           # F
    denom: np.ndarray       # F: 2 |-sum(alpha) + sum(beta over non-env rows)|
    finite: np.ndarray      # F bool: denom > AXIS_TOL
    attainable: np.ndarray  # F bool: finite and alpha is not zero


def stack_facets(facets, env_outputs) -> FacetStack:
    """Stack ``facets`` for ``facet_thresholds``; environmental outputs
    (``env_outputs``) stay fixed under the box transform, so their
    coefficients do not enter the denominators."""
    alpha = np.array([h.alpha for h in facets], dtype=float).T
    beta = np.array([h.beta for h in facets], dtype=float).T
    # sums over the variables one row at a time, here and below, so that a
    # facet's value does not depend on the facets stacked with it
    zero = np.zeros(len(facets))
    denom = 2.0 * np.abs(-sum(alpha, zero) + sum(beta[~env_outputs], zero))
    finite = denom > AXIS_TOL
    alpha_ok = np.array([h.alpha_norm > AXIS_TOL for h in facets], dtype=bool)
    return FacetStack(alpha=alpha, beta=beta,
                      d=np.array([h.d for h in facets], dtype=float),
                      denom=denom, finite=finite,
                      attainable=finite & alpha_ok)


def facet_thresholds(ds: DeaDataset, dmu: int, stack: FacetStack):
    """Smallest box half-width moving the unit's virtual point onto each
    translated facet of ``stack``: the arrays (values, attainable).

    The unit moves by sigma along the box direction (inputs down, outputs
    up) and every rival by sigma against it, so the gap ``|alpha'x + beta'y - d|`` closes at twice
    the rate ``|-sum(alpha) + sum(beta)|``, environmental outputs left out.
    A facet that the box cannot move (zero rate) has value inf.  For
    output-axis facets the value is a strict threshold: the unit needs any
    amount beyond it, never exactly it (the projection argument only works
    in the limit of a vanishing facet gradient).
    """
    zero = np.zeros(len(stack.d))
    gap = np.abs(sum(stack.alpha * ds.X[:, dmu, None], zero)
                 + sum(stack.beta * ds.Y[:, dmu, None], zero) - stack.d)
    values = np.full(len(stack.d), math.inf)
    np.divide(gap, stack.denom, out=values, where=stack.finite)
    return values, stack.attainable


def min_uncertainty_to_facet(ds: DeaDataset, dmu: int,
                             h: Hyperplane) -> MinUncertainty:
    """``facet_thresholds`` for the one facet ``h``."""
    values, attainable = facet_thresholds(
        ds, dmu, stack_facets([h], ds.env_outputs))
    return MinUncertainty(float(values[0]), bool(attainable[0]))
