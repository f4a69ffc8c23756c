"""The paper's invariants as properties, over the whole sigma range.

hypothesis draws small datasets, with ties, zeros, copied units and
environmental outputs, and sigmas over [0, 1.5 x max X] together with the
units' own inputs and their ``nextafter`` neighbours, where the floor rule
and the floors of the box transform begin to bind.  Every run draws the
same examples (``derandomize=True``, no example database), so the suite
stays deterministic; a failing example found here becomes an explicit
regression case.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from udea.dataset import DeaDataset, solve_nominal
from udea.robust import _probe, robust_efficiency

PROPERTIES = settings(derandomize=True, database=None, deadline=None,
                      max_examples=100)

# a few round values recur, so that ties and zeros are common
VALUES = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0]),
                   st.floats(0.001, 10.0).map(lambda v: round(v, 3)))


@st.composite
def datasets(draw):
    """1-3 inputs, 1-3 outputs (each possibly environmental) and 2-12
    units, about one in five a copy of an earlier unit."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    units = []
    for k in range(draw(st.integers(2, 12))):
        if k and draw(st.integers(0, 4)) == 0:
            units.append(units[draw(st.integers(0, k - 1))])
            continue
        x = draw(st.lists(VALUES, min_size=n, max_size=n))
        if not any(x):  # every unit needs a positive input
            x[0] = 1.0
        units.append((x, draw(st.lists(VALUES, min_size=m, max_size=m))))
    return DeaDataset(names=[f"u{k}" for k in range(len(units))],
                      X=[list(col) for col in zip(*(x for x, _ in units))],
                      Y=[list(row) for row in zip(*(y for _, y in units))],
                      env_outputs=draw(st.lists(st.booleans(), min_size=m,
                                                max_size=m)))


def sigmas(ds):
    """sigma over [0, 1.5 x max X], or an input of the data, or one of its
    ``nextafter`` neighbours that is not negative."""
    near = sorted({s for x in ds.X.ravel().tolist()
                   for s in (math.nextafter(x, -math.inf), x,
                             math.nextafter(x, math.inf)) if s >= 0})
    return st.one_of(st.floats(0.0, 1.5 * ds.X.max()), st.sampled_from(near))


@st.composite
def probes(draw):
    """A dataset, one of its units and two sigmas, the smaller first."""
    ds = draw(datasets())
    i = draw(st.integers(0, ds.n_units - 1))
    low, high = sorted(draw(st.lists(sigmas(ds), min_size=2, max_size=2)))
    return ds, i, low, high


@PROPERTIES
@given(probes())
def test_probe_is_robust_efficiency_bit_for_bit(case):
    ds, i, low, high = case
    for sigma in (low, high):
        assert (_probe(ds, i, sigma).hex()
                == robust_efficiency(ds, i, sigma).theta.hex())


@PROPERTIES
@given(probes())
def test_score_never_falls_as_sigma_rises(case):
    ds, i, low, high = case
    assert _probe(ds, i, high) >= _probe(ds, i, low) - 1e-9


@PROPERTIES
@given(probes())
def test_score_at_least_nominal(case):
    ds, i, low, high = case
    nominal = solve_nominal(ds, i).theta
    for sigma in (low, high):
        assert _probe(ds, i, sigma) >= nominal - 1e-9
