"""Frontier facets as oriented hyperplanes, and the minimum uncertainty
that brings a unit onto one.

A facet of the efficient frontier is an oriented supporting hyperplane
``alpha'x + beta'y = d`` with the production set on the >= side, input
coefficients >= 0 and output coefficients <= 0.  With that orientation the
closed form below reproduces the worked two-dimensional example exactly.
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


def min_uncertainty_to_facet(ds: DeaDataset, dmu: int,
                             h: Hyperplane) -> MinUncertainty:
    """Smallest box half-width moving the unit's virtual point onto the
    translated facet.

    For output-axis facets the value is a strict threshold: the unit needs
    any amount beyond it, never exactly it (the projection argument only
    works in the limit of a vanishing facet gradient).
    """
    gap = abs(h.value(ds.X[:, dmu], ds.Y[:, dmu]))
    denom = 2.0 * abs(-np.sum(h.alpha) + np.sum(h.beta))
    if denom <= AXIS_TOL:
        return MinUncertainty(math.inf, False)
    attainable = h.alpha_norm > AXIS_TOL
    return MinUncertainty(gap / denom, attainable)
