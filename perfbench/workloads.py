"""Seeded input generators for the three benchmark workloads.

A workload turns a seed into a list of *pass inputs*.  One pass input is
what one fresh interpreter processes end to end: one or more dataset CSV
files plus the CLI settings they are run with.  The program under test only
ever sees the CSV files.

``case_study`` and ``exact_enum`` build each dataset around a known
frontier so that the work per pass barely depends on the seed:

* ``E`` frontier units lie on an ellipsoid bulging towards less input and
  more output, so every one of them is an extreme efficient unit;
* every other unit is a frontier point pushed back along the uncertainty
  direction g = (+1 on inputs, -1 on perturbed outputs) by a distance b, so
  its exact minimum uncertainty is b / 2.  The distances come from
  stratified quantiles, so the number of grid solves a dataset needs (and
  the spread of upsilon around the cap) is nearly the same for every seed.

``nominal_wide`` is plain uniform random data, as a user's unstructured
table would be; nothing about it is filtered.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from oracle import ddf_beta

# case-study preset factors, repeated here so the generator can work in
# the scaled space the radiotherapy preset produces
RT_INPUT_FACTOR = 100.0 / 70.0
RT_OUTPUT_FACTOR = 100.0 / (74.0 * 0.95)

NAMES = ("case_study", "nominal_wide", "exact_enum")


@dataclass
class Settings:
    """CLI settings a pass runs with (mirrors ``udea <mode>`` flags)."""

    mode: str
    nu: float = 3.6
    step: float = 0.01
    preset: str = None


@dataclass
class PassInput:
    label: str
    settings: Settings
    csv_paths: list = field(default_factory=list)


@dataclass
class Table:
    """One generated dataset before it is written out."""

    names: list
    X: np.ndarray
    Y: np.ndarray
    env: np.ndarray
    input_names: list
    output_names: list


def frontier_table(rng, n_in, n_out, n_frontier, n_units, x0, rx, y0, ry,
                   b_max, decimals):
    """Units on and behind an ellipsoidal frontier (see module docstring).

    Returns (X, Y, b): b[k] is the push-back distance of unit k (0 for
    frontier units).
    """
    phi = n_in + n_out
    dirs = np.abs(rng.standard_normal((n_frontier, phi))) + 0.35
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    fx = x0 - rx * dirs[:, :n_in].T
    fy = y0 + ry * dirs[:, n_in:].T
    env = np.zeros(n_out, dtype=bool)

    n_inner = n_units - n_frontier
    # stratified quantiles, squared so that most units sit close to the
    # frontier and a few need more than the cap
    q = (np.arange(n_inner) + rng.uniform(size=n_inner)) / n_inner
    b = b_max * q ** 2
    b = np.maximum(b, 0.1)
    X = np.zeros((n_in, n_units))
    Y = np.zeros((n_out, n_units))
    X[:, :n_frontier] = fx
    Y[:, :n_frontier] = fy
    for k in range(n_inner):
        picks = rng.choice(n_frontier, size=min(3, n_frontier), replace=False)
        w = rng.dirichlet(np.ones(picks.size))
        qx = fx[:, picks] @ w
        qy = fy[:, picks] @ w
        # q is inside the hull, so adding it leaves the frontier unchanged
        beta = ddf_beta(np.c_[fx, qx], np.c_[fy, qy], env, n_frontier)
        # qx - beta is on the frontier; step back from it by b[k]
        X[:, n_frontier + k] = qx - beta + b[k]
        Y[:, n_frontier + k] = qy + beta - b[k]
    order = rng.permutation(n_units)
    X, Y = X[:, order], Y[:, order]
    b_all = np.concatenate([np.zeros(n_frontier), b])[order]
    return X.round(decimals), Y.round(decimals), b_all


def case_study_table(rng):
    """About 40 treatment plans: one organ-at-risk dose input, two target
    dose outputs and one environmental column, in Gy before scaling."""
    n_units, n_frontier = 40, 8
    # built in the preset's scaled space (dose as % of 70 Gy / 70.3 Gy) so
    # that b / 2 is the minimum uncertainty the case-study grid walks to
    Xs, Ys, b = frontier_table(rng, 1, 2, n_frontier, n_units,
                               x0=100.0, rx=40.0, y0=90.0, ry=10.0,
                               b_max=8.0, decimals=12)
    X = (Xs / RT_INPUT_FACTOR).round(3)
    Y = (Ys / RT_OUTPUT_FACTOR).round(3)
    # environmental column (e.g. a target-volume class): frontier plans sit
    # above every other plan, so it never changes who the peers are
    env = np.where(b == 0.0, rng.uniform(1.5, 2.5, n_units),
                   rng.uniform(0.5, 1.5, n_units)).round(3)
    # plans listed by organ-at-risk dose, as a planning table would be;
    # Bland's rule follows column order, and a random order alone moves a
    # plan set's pivot count by about 13% (5% in a fixed order)
    order = np.argsort(X[0], kind="stable")
    return Table(names=[f"plan{k:02d}" for k in range(n_units)],
                 X=X[:, order], Y=np.vstack([Y, env])[:, order],
                 env=np.array([False, False, True]),
                 input_names=["rectum_dose"],
                 output_names=["ptv_d95", "ctv_d98", "volume_class"])


def nominal_wide_table(rng):
    """300 units, 3 inputs and 3 outputs, uniform on [0.5, 10]."""
    n_units = 300
    return Table(names=[f"u{k:03d}" for k in range(n_units)],
                 X=rng.uniform(0.5, 10.0, size=(3, n_units)).round(3),
                 Y=rng.uniform(0.5, 10.0, size=(3, n_units)).round(3),
                 env=np.zeros(3, dtype=bool),
                 input_names=["i1", "i2", "i3"],
                 output_names=["o1", "o2", "o3"])


# facet enumeration is limited to 4 variables: mix every split of them
EXACT_SHAPES = ((2, 2), (1, 3), (3, 1))


def exact_table(rng, n_in, n_out):
    """64 units with n_in + n_out = 4 around a 10-unit frontier."""
    n_units = 64
    X, Y, _ = frontier_table(rng, n_in, n_out, 10, n_units,
                             x0=40.0, rx=30.0, y0=15.0, ry=30.0,
                             b_max=9.0, decimals=4)
    return Table(names=[f"d{k:02d}" for k in range(n_units)], X=X, Y=Y,
                 env=np.zeros(n_out, dtype=bool),
                 input_names=[f"i{k + 1}" for k in range(n_in)],
                 output_names=[f"o{k + 1}" for k in range(n_out)])


# distinct pass inputs per run; passes cycle through them.  Pivot counts
# still differ between datasets, so a run spreads its passes over several
PASS_INPUTS = {"case_study": 8, "nominal_wide": 10, "exact_enum": 6}


def generate(name, seed):
    """Tables per pass input: a list of (label, Settings, [Table, ...])."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    out = []
    for p in range(PASS_INPUTS[name]):
        if name == "case_study":
            settings = Settings(mode="iterative", preset="radiotherapy")
            tables = [case_study_table(rng)]
        elif name == "nominal_wide":
            settings = Settings(mode="nominal")
            tables = [nominal_wide_table(rng)]
        else:
            settings = Settings(mode="exact")
            tables = [exact_table(rng, *shape) for shape in EXACT_SHAPES]
        out.append((f"p{p}", settings, tables))
    return out


def write_csv(table: Table, path):
    """Write a dataset in the CLI's CSV layout."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dmu"] + [f"in:{v}" for v in table.input_names]
                        + [("env:" if e else "out:") + v
                           for v, e in zip(table.output_names, table.env)])
        for i, name in enumerate(table.names):
            writer.writerow([name] + [repr(float(v)) for v in table.X[:, i]]
                            + [repr(float(v)) for v in table.Y[:, i]])


def scaled(table, settings):
    """The data as the CLI sees them after ``apply_scaling``."""
    if settings.preset != "radiotherapy":
        return table.X, table.Y
    factors = np.where(table.env, 1.0, RT_OUTPUT_FACTOR)
    return table.X * RT_INPUT_FACTOR, table.Y * factors[:, None]
