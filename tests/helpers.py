"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own solution paths:
vertex enumeration for small LPs and exhaustive perturbation-corner search
for the robust transform.  The worked example's 2-D geometry and the
dataset CSV writer live here too, since only the tests use them, and so do
the scalar loops the package's array code replaced (simplex kernel, facet
enumeration, facet scoring) and the per-unit exact solver, kept as
references.
"""

import csv
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import udea.dataset
from udea.dataset import (SCORE_TOL, DeaDataset, _check_index,
                          _frontier_score, _nominal_tableau, is_extreme)
from udea.facets import FacetSet
from udea.iterative import iterative_udea
from udea.geometry import (AXIS_TOL, SUPPORT_TOL, Hyperplane, MinUncertainty,
                           min_uncertainty_to_facet)
from udea.outcome import UdeaOutcome
from udea.robust import (DEFAULT_EPS, _certificate, _probe, _proves_failure,
                         _proves_success, robust_efficiency, transform_box)


def table1_dataset():
    return DeaDataset(
        names=list("ABCDEF"),
        X=np.array([[1, 3, 7, 10, 8, 6]], dtype=float),
        Y=np.array([[1, 4, 7, 8, 5, 2]], dtype=float),
    )


def table1_plus_g():
    """Table 1 plus a unit G (X = 12, Y = 0.05) whose tiny output sits on
    the zero floor in every other unit's corner from sigma = 0.05 on."""
    base = table1_dataset()
    return DeaDataset(names=base.names + ["G"],
                      X=np.hstack([base.X, [[12.0]]]),
                      Y=np.hstack([base.Y, [[0.05]]]))


# one input and one output on which sigma floors own inputs well below
# 1.5 x max(X), and the zero floor binds on outputs
CLAMP_X = [1.568, 2.956, 3.584, 3.153, 3.934, 4.689, 5.781, 2.421]
CLAMP_Y = [4.243, 4.481, 2.464, 1.007, 5.867, 2.492, 2.57, 5.459]


def clamp_dataset():
    return DeaDataset(names=list("abcdefgh"), X=[CLAMP_X], Y=[CLAMP_Y])


def random_dataset(rng, max_units=12, max_dim=3, lo=0.5, hi=5.0):
    """Random dataset with N + M <= max_dim and 2..max_units units."""
    n = int(rng.integers(1, max_dim))
    m = int(rng.integers(1, max_dim + 1 - n))
    i = int(rng.integers(2, max_units + 1))
    return DeaDataset(
        names=[f"u{k}" for k in range(i)],
        X=rng.uniform(lo, hi, size=(n, i)).round(3),
        Y=rng.uniform(lo, hi, size=(m, i)).round(3),
    )


def random_dataset_2d(rng, min_units=3, max_units=8):
    i = int(rng.integers(min_units, max_units + 1))
    return DeaDataset(
        names=[f"u{k}" for k in range(i)],
        X=rng.uniform(0.5, 10.0, size=(1, i)).round(2),
        Y=rng.uniform(0.5, 10.0, size=(1, i)).round(2),
    )


def lp_vertex_oracle(lp, feas_tol=1e-7):
    """Minimum objective over enumerated feasible vertices, or None when no
    vertex is feasible (infeasible for bounded regions)."""
    n = lp.c.size
    cons = [(np.asarray(a, float), s, float(b))
            for a, s, b in zip(lp.A, lp.senses, lp.b)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        cons.append((e, ">=", float(lp.lb[j])))
    best = None
    for combo in itertools.combinations(range(len(cons)), n):
        A = np.array([cons[k][0] for k in combo])
        b = np.array([cons[k][2] for k in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        feasible = True
        for a, s, bb in cons:
            v = a @ x
            if (s == "<=" and v > bb + feas_tol) \
                    or (s == ">=" and v < bb - feas_tol) \
                    or (s == "=" and abs(v - bb) > feas_tol):
                feasible = False
                break
        if feasible:
            obj = float(lp.c @ x)
            if best is None or obj < best:
                best = obj
    return best


def best_corner_score(ds, dmu, sigma, eps=1e-9):
    """Best score for ``dmu`` over every {-sigma, 0, +sigma} perturbation
    pattern of every data cell, with the same nonnegativity clamps the
    transform applies.  Exponential: keep total cells <= 8."""
    n = ds.X.size
    best = -np.inf
    for pattern in itertools.product((-sigma, 0.0, sigma),
                                     repeat=n + ds.Y.size):
        # every input cell, then every output cell, in row-major order
        delta = np.array(pattern)
        X = np.maximum(ds.X + delta[:n].reshape(ds.X.shape), eps)
        Y = np.maximum(ds.Y + delta[n:].reshape(ds.Y.shape), 0.0)
        # the bits of solve_nominal on the perturbed data, without building
        # and validating a dataset of them
        score = 1.0 - _frontier_score(_nominal_tableau(X, Y, dmu), dmu)
        best = max(best, score)
    return best


def sorted_extremes_2d(ds):
    """Extreme efficient units of a 1-input/1-output dataset sorted by
    input, or None when the sorted order is not strictly monotone in both
    coordinates (degenerate ties)."""
    from udea.dataset import is_extreme

    ext = sorted((i for i in range(ds.n_units) if is_extreme(ds, i)),
                 key=lambda i: ds.X[0, i])
    xs = np.array([ds.X[0, i] for i in ext])
    ys = np.array([ds.Y[0, i] for i in ext])
    if xs.size == 0 or np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        return None
    return ext, xs, ys


def emit_csv(ds: DeaDataset, path):
    """Write a dataset back out at full precision (round-trips exactly for
    decimals of up to 12 significant digits)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["dmu"]
        header += [f"in:{v}" for v in ds.input_names]
        header += [("env:" if e else "out:") + v
                   for v, e in zip(ds.output_names, ds.env_outputs)]
        writer.writerow(header)
        for i, name in enumerate(ds.names):
            row = [name]
            row += [repr(float(v)) for v in ds.X[:, i]]
            row += [repr(float(v)) for v in ds.Y[:, i]]
            writer.writerow(row)


# The paper's worked two-dimensional example: point-to-facet distances,
# fixed-output targets, facet translation and the segment rule.  The
# package keeps only the facet formula they are checked against,
# ``udea.geometry.min_uncertainty_to_facet``.


@dataclass
class TargetPoint:
    """Fixed-output projection of a (virtual) unit onto a facet."""

    facet: Hyperplane
    x: np.ndarray
    y: np.ndarray


def dea_distance(ds: DeaDataset, dmu: int, h: Hyperplane) -> float:
    """Euclidean distance from the unit to its fixed-output projection on
    ``h``; infinite for output-axis facets (no input-direction projection)."""
    a = h.alpha_norm
    if a <= AXIS_TOL:
        return math.inf
    return abs(h.value(ds.X[:, dmu], ds.Y[:, dmu])) / a


def min_dea_distance(ds: DeaDataset, dmu: int, facets) -> tuple:
    """(min distance, attaining facet); ties broken by lowest facet index."""
    facets = list(facets)
    if not facets:
        raise ValueError("facet list must be non-empty")
    values = [dea_distance(ds, dmu, h) for h in facets]
    k = int(np.argmin(values))
    return values[k], facets[k]


def target_point(ds: DeaDataset, dmu: int, h: Hyperplane) -> TargetPoint:
    """Project the unit onto ``h`` moving only in input space."""
    a2 = h.alpha_norm ** 2
    if a2 <= AXIS_TOL:
        raise ValueError("output-axis facet has no fixed-output projection")
    x = ds.X[:, dmu]
    y = ds.Y[:, dmu]
    shift = h.value(x, y) / a2
    return TargetPoint(facet=h, x=x - shift * h.alpha, y=y.copy())


def min_uncertainty_2d(x_c: float, y_c: float, x_a: float, y_a: float,
                       g: float) -> float:
    """One-input/one-output closed form: uncertainty for a unit at
    (x_c, y_c) to reach the facet of gradient ``g`` through (x_a, y_a)."""
    if abs(1.0 + g) <= AXIS_TOL:
        raise ZeroDivisionError("degenerate facet gradient g = -1")
    return (g * (x_c - x_a) - y_c + y_a) / (2.0 * (1.0 + g))


class Segment2D(NamedTuple):
    """Identifier for a one-input/one-output frontier piece.

    ``kind`` is "vertical" (input-axis facet through the first extreme),
    "segment" (between extremes ``lo`` and ``hi``) or "horizontal"
    (output-axis facet through the last extreme).
    """

    kind: str
    lo: int
    hi: int


def select_segment_2d(xs, ys, x_i: float, y_i: float) -> Segment2D:
    """Pick the frontier segment needing the least uncertainty for a unit at
    (x_i, y_i), from extreme points sorted by increasing input and output.

    Under the box transform every point slides along lines of constant
    x + y, so the bucket of x_i + y_i among the extreme-point sums decides
    the attaining segment; boundary sums may resolve to either neighbour.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size == 0:
        raise ValueError("extreme coordinate arrays must match and be non-empty")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("extreme points must be strictly sorted in x and y")
    sums = xs + ys
    s = x_i + y_i
    if s <= sums[0]:
        return Segment2D("vertical", 0, 0)
    if s >= sums[-1]:
        last = xs.size - 1
        return Segment2D("horizontal", last, last)
    k = int(np.searchsorted(sums, s, side="right")) - 1
    return Segment2D("segment", k, k + 1)


def translate_facet(h: Hyperplane, sigma: float) -> Hyperplane:
    """Parallel facet after the rivals' corner shift (+sigma inputs,
    -sigma outputs): same normal, offset d + sigma (sum alpha - sum beta)."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    d = h.d + sigma * (np.sum(h.alpha) - np.sum(h.beta))
    return Hyperplane(alpha=h.alpha.copy(), beta=h.beta.copy(), d=d,
                      kind=h.kind)


def segment_hyperplane_2d(x_a, y_a, x_b, y_b) -> Hyperplane:
    """Oriented facet through two frontier points with one input/output."""
    if abs(x_b - x_a) <= AXIS_TOL:
        raise ValueError("vertical segment: use an input-axis hyperplane")
    g = (y_b - y_a) / (x_b - x_a)
    # g*x - y = g*x_a - y_a, scaled below to unit norm by the constructor
    return Hyperplane(alpha=[g], beta=[-1.0], d=g * x_a - y_a)


def segment_min_uncertainty(ds, dmu, seg, xs, ys):
    """Minimum uncertainty for the facet named by a Segment2D identifier."""
    if seg.kind == "vertical":
        return (ds.X[0, dmu] - xs[0]) / 2.0
    if seg.kind == "horizontal":
        return (ys[-1] - ds.Y[0, dmu]) / 2.0
    h = segment_hyperplane_2d(xs[seg.lo], ys[seg.lo], xs[seg.hi], ys[seg.hi])
    return min_uncertainty_to_facet(ds, dmu, h).value


def efficiency_gain_upper_bound(ds: DeaDataset, dmu: int, sigma: float,
                                binding_inputs) -> float:
    """Upper bound on the score increase available to ``dmu`` when all data
    move by at most sigma, taken over its binding input rows."""
    i = int(dmu)
    q_set = list(binding_inputs)
    if not q_set:
        raise ValueError("binding input set must be non-empty")
    others = [k for k in range(ds.n_units) if k != i]
    if not others:
        raise ValueError("bound needs at least two units")
    best = -np.inf
    for q in q_set:
        xqi = ds.X[q, i]
        if xqi <= 0:
            raise ZeroDivisionError(f"unit {i} has nonpositive input {q}")
        spread = ds.X[q, others].max() - ds.X[q, others].min()
        best = max(best, (spread + 2.0 * sigma) / xqi)
    return float(best)


def count_lps(monkeypatch):
    """A list that grows by one with each LP solved until ``monkeypatch``
    is undone.  Every frontier program is solved by one call of the
    kernel binding ``udea.dataset.simplex_core``, so its calls are the
    LPs."""
    calls = []
    kernel = udea.dataset.simplex_core

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(udea.dataset, "simplex_core", counting)
    return calls


def linear_walk_udea(ds, dmu, cfg):
    """Reference iterative solver: the plain walk up the sigma grid.

    Solves at every grid point ``k * step`` below the cap until the unit is
    efficient, then rounds with one midpoint solve; with no success it
    decides capability by one solve at the cap.  ``iterative_udea`` must
    return the same upsilon, bracket, gamma and capability.
    """
    from udea.outcome import UdeaOutcome

    i = int(dmu)
    t = cfg.step

    def score_at(sigma):
        return robust_efficiency(ds, i, sigma, cfg.eps).theta

    trace = []
    k = 0
    sigma = 0.0
    while True:
        score = score_at(sigma)
        trace.append((sigma, score))
        if score >= 1.0 - SCORE_TOL:
            break
        k += 1
        sigma = k * t
        if sigma >= cfg.nu:
            break

    if score >= 1.0 - SCORE_TOL:
        if k == 0:
            return UdeaOutcome(dmu=i, upsilon=0.0, gamma=score,
                               capable=True, trace=trace,
                               bracket=(0.0, 0.0))
        upsilon = sigma - t if score_at(sigma - 0.5 * t) >= 1.0 - SCORE_TOL \
            else sigma
        return UdeaOutcome(dmu=i, upsilon=upsilon, gamma=score,
                           capable=True, trace=trace,
                           bracket=(sigma - t, sigma))
    score = score_at(cfg.nu)
    trace.append((cfg.nu, score))
    if score >= 1.0 - SCORE_TOL:
        return UdeaOutcome(dmu=i, upsilon=cfg.nu, gamma=score,
                           capable=True, trace=trace,
                           bracket=(max(cfg.nu - t, 0.0), cfg.nu))
    return UdeaOutcome(dmu=i, upsilon=None, gamma=score,
                       capable=False, trace=trace)


def assert_capability_from_trace(out, cfg):
    """Capable iff some probed sigma, all at most nu, reached efficiency."""
    assert all(sigma <= cfg.nu for sigma, _ in out.trace)
    assert out.capable == any(score >= 1.0 - SCORE_TOL
                              for _, score in out.trace)


def assert_same_as_walk(ds, dmu, cfg, ref=None):
    """``iterative_udea`` gives the upsilon, bracket, gamma (bit for bit)
    and capability of ``linear_walk_udea`` (or of ``ref``, its outcome),
    with a sorted trace whose scores are the walk's where both probe."""
    if ref is None:
        ref = linear_walk_udea(ds, dmu, cfg)
    out = iterative_udea(ds, dmu, cfg)
    assert out.upsilon == ref.upsilon
    assert out.bracket == ref.bracket
    assert out.gamma.hex() == ref.gamma.hex()
    assert out.capable == ref.capable
    sigmas = [s for s, _ in out.trace]
    assert sigmas == sorted(sigmas)
    walked = dict(ref.trace)
    for sigma, score in out.trace:
        if sigma in walked:
            assert score == walked[sigma]
    assert_capability_from_trace(out, cfg)
    return out


def sweep_reference(ds, cfg):
    """Reference ``udea sweep`` rows: ``robust_efficiency`` solved at every
    sigma of the grid, unit by unit.  The CLI must give the same bits."""
    from udea.cli import _sigma_grid

    return [[ds.names[i], sigma,
             robust_efficiency(ds, i, sigma, cfg.eps).theta]
            for i in range(ds.n_units) for sigma in _sigma_grid(cfg)]


def assert_eps_invariant(ds, sigmas):
    """At sigma >= eps no rival input x + sigma reaches the floor, and an
    own input the floor lifts is at or below sigma, where the floor rule
    scores 1: every unit's theta at each of ``sigmas`` from
    ``DEFAULT_EPS`` on has the same bits at every eps up to sigma.  Only
    eps = 0 may leave a unit no positive input, and only once sigma
    reaches its largest own input."""
    for i in range(ds.n_units):
        for sigma in sigmas:
            if sigma < DEFAULT_EPS:
                continue
            ref = robust_efficiency(ds, i, sigma).theta.hex()
            for eps in (0.0, 1e-12, 1e-6, 1e-3):
                if sigma < eps:
                    continue
                try:
                    theta = robust_efficiency(ds, i, sigma, eps).theta
                except ValueError:
                    assert eps == 0.0 and sigma >= ds.X[:, i].max()
                    continue
                assert theta.hex() == ref, (i, sigma, eps)


def failure_proved(ds, i, sigma, lam, eps=DEFAULT_EPS):
    """``robust._proves_failure`` with the certificate of ``lam``, where
    ``_probe`` would try it: every own input of the corner exceeds
    sigma."""
    corner = transform_box(ds, i, sigma, eps)
    lam = _certificate(ds, lam, None)[0]
    return (lam is not None and corner.X[:, i].min() > sigma
            and _proves_failure(corner.X, corner.Y, i, lam))


def success_proved(ds, i, sigma, duals, eps=DEFAULT_EPS):
    """``robust._proves_success`` with the certificate of ``duals``, where
    ``_probe`` would try it: every own input of the corner exceeds
    sigma."""
    corner = transform_box(ds, i, sigma, eps)
    _, u, v = _certificate(ds, None, duals)
    return (u is not None and corner.X[:, i].min() > sigma
            and _proves_success(corner.X, corner.Y, i, u, v))


def _highs(ds, i, z_cost, z_col, x_rhs, own_bound=(0, None)):
    """min z_cost * z s.t. Y lam - z_y z >= y_i, X lam + z_x z <= x_rhs,
    sum(lam) = 1, lam >= 0 with ``own_bound`` on lam_i, over (lam, z) with
    ``z_col`` = (z_y, z_x), solved by scipy's HiGHS; None when
    infeasible."""
    from scipy.optimize import linprog

    m, n_units = ds.n_outputs, ds.n_units
    A_ub = np.vstack([np.hstack([-ds.Y, z_col[:m, None]]),
                      np.hstack([ds.X, z_col[m:, None]])])
    b_ub = np.concatenate([-ds.Y[:, i], x_rhs])
    A_eq = np.append(np.ones(n_units), 0.0)[None, :]
    bounds = [(0, None)] * n_units + [(None, None)]
    bounds[i] = own_bound
    c = np.append(np.zeros(n_units), z_cost)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None
    assert res.status == 0
    return res.fun


def highs_theta(ds, i, restricted=False):
    """min theta s.t. Y lam >= y_i, X lam <= theta x_i, sum(lam) = 1, with
    lam_i = 0 when ``restricted``, by HiGHS: the nominal program as the
    model states it (needs scipy)."""
    z_col = np.concatenate([np.zeros(ds.n_outputs), -ds.X[:, i]])
    return _highs(ds, i, 1.0, z_col, np.zeros(ds.n_inputs),
                  (0, 0) if restricted else (0, None))


def highs_beta(ds, i):
    """max beta s.t. Y lam >= y_i + g beta, X lam + beta <= x_i,
    sum(lam) = 1, by HiGHS: the directional distance program as the model
    states it (needs scipy)."""
    g = np.where(ds.env_outputs, 0.0, 1.0)
    z_col = np.concatenate([g, np.ones(ds.n_inputs)])
    return -_highs(ds, i, -1.0, z_col, ds.X[:, i])


def blas_product(f, p):
    """The products ``f * p`` as BLAS forms them in a matrix product with
    one inner term: ``f * p`` rounded once, but +0.0 wherever ``f`` or
    ``p`` is zero, whatever the sign of either factor (a product that
    underflows keeps its sign, as ``-1e-200 * 1e-200`` gives -0.0)."""
    return np.where((f == 0.0) | (p == 0.0), 0.0, f * p)


def scalar_simplex_core(T, basis, allowed, tol, max_iter):
    """Reference simplex kernel: the rule of ``udea._kernels._simplex_core``
    (Dantzig pricing, then the ratio test with its lexicographic
    tie-break on the slack block) written as an element-by-element loop.
    It reads the tableau one element at a time and updates it row by row,
    every row but the pivot row, zero multipliers included, subtracting
    each product as the kernel's BLAS product forms it
    (``blas_product``).  The package kernel must leave the same ``T``
    (bit for bit, signs of zero included), ``basis`` and status.
    """
    from udea._kernels import ITERATION_LIMIT, OPTIMAL, UNBOUNDED

    m = T.shape[0] - 1
    n = T.shape[1] - 1
    for _ in range(max_iter):
        # the most negative allowed reduced cost, the first on ties
        enter = -1
        for j in range(n):
            if allowed[j] and (enter == -1 or T[m, j] < T[m, enter]):
                enter = j
        if enter == -1 or not T[m, enter] < -tol:
            return OPTIMAL
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > tol:
                # round-off negatives in basic right-hand sides read as 0
                rhs = T[i, n]
                if rhs < 0.0:
                    rhs = 0.0
                r = rhs / a
                if r < best - 1e-12:
                    best = r
                    leave = i
                elif r <= best + 1e-12 and leave >= 0:
                    # tie: the lexicographically smaller row of the slack
                    # block over its pivot-column entry, then the lowest
                    # basic index
                    for k in range(n - m, n):
                        u = T[i, k] / a
                        v = T[leave, k] / T[leave, enter]
                        if u != v:
                            if u < v:
                                leave = i
                            break
                    else:
                        if basis[i] < basis[leave]:
                            leave = i
        if leave == -1:
            return UNBOUNDED
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(m + 1):
            if i != leave:
                T[i, :] -= blas_product(T[i, enter], T[leave, :])
        basis[leave] = enter
    return ITERATION_LIMIT


def scalar_enumerate_facets(ds: DeaDataset) -> FacetSet:
    """Reference facet enumeration: the per-candidate loop that
    ``udea.facets.enumerate_efficient_facets`` replaced, kept verbatim (the
    size limits aside) but for two changes, as in the package: identical
    units are collapsed to their lowest index, and a unit that another
    distinct unit weakly dominates (found pair by pair here) is dropped,
    before the extreme-point tests among the units left.  One normal, one
    support test and one orientation per (subset, direction choice)
    candidate.  The package must return the same facets (alpha, beta and d
    bit for bit) and generators.
    """
    n, m = ds.n_inputs, ds.n_outputs
    phi = n + m
    points = np.vstack([ds.X, ds.Y]).T  # I x phi
    first = sorted(np.unique(points, axis=0, return_index=True)[1].tolist())
    first = [k for k in first
             if not any(np.all(points[j, :n] <= points[k, :n])
                        and np.all(points[j, n:] >= points[k, n:])
                        for j in first if j != k)]
    tested = DeaDataset(names=[ds.names[i] for i in first],
                        X=ds.X[:, first], Y=ds.Y[:, first],
                        env_outputs=ds.env_outputs)
    extremes = [i for k, i in enumerate(first) if is_extreme(tested, k)]

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
                normal = scalar_unique_normal(rows, phi)
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
                    generators=[v[1] for _, v in ordered], tol=tol)


def scalar_unique_normal(rows: np.ndarray, phi: int):
    """Unit normal of the hyperplane spanned by ``rows``, one candidate at
    a time: the generalised cross product of ``udea.facets._unique_normal``
    (the rows scaled by a power of two below 1, component j the signed
    minor without column j) and its rank test.  None when the rows are rank
    deficient (no unique hyperplane)."""
    if phi < 2 or rows.shape != (phi - 1, phi):
        return None
    scale = np.ldexp(1.0, -np.frexp(np.abs(rows).max())[1])
    rows = rows * scale
    normal = np.array([np.linalg.det(np.delete(rows, j, axis=1))
                       for j in range(phi)])
    normal[1::2] *= -1.0
    length = np.sqrt((normal * normal).sum())
    frob = np.sqrt((rows * rows).sum())
    if not length > 1e-9 * max(scale, frob) * frob ** (phi - 2):
        return None
    return normal / length


def svd_unique_normal(rows: np.ndarray):
    """The SVD's answer for a stack like ``udea.facets._unique_normal``'s:
    the last right singular vector of each matrix, and whether its smallest
    singular value passes ``s_min > 1e-9 * max(1, s_max)``."""
    _, s, vt = np.linalg.svd(rows)
    return vt[:, -1], s[:, -1] > 1e-9 * np.maximum(1.0, s[:, 0])


def scalar_min_uncertainty_to_facet(ds: DeaDataset, dmu: int,
                                    h: Hyperplane) -> MinUncertainty:
    """Reference threshold of one facet: the per-facet formula that
    ``udea.geometry.facet_thresholds`` replaced, kept verbatim but for
    leaving environmental outputs out of the denominator and scoring a gap
    within the enumeration's support tolerance as 0."""
    gap = abs(h.value(ds.X[:, dmu], ds.Y[:, dmu]))
    if gap <= SUPPORT_TOL * max(1.0, ds.X.max(), ds.Y.max()):
        gap = 0.0
    denom = 2.0 * abs(-np.sum(h.alpha) + np.sum(h.beta[~ds.env_outputs]))
    if denom <= AXIS_TOL:
        return MinUncertainty(math.inf, False)
    attainable = h.alpha_norm > AXIS_TOL
    return MinUncertainty(gap / denom, attainable)


def scalar_exact_choice(ds: DeaDataset, dmu: int, facets):
    """Reference facet choice of ``udea.facets.exact_udea``: the per-facet
    scoring loop it replaced, kept verbatim.  Returns (facet index,
    upsilon, attainable)."""
    i = int(dmu)
    best = None
    for k, h in enumerate(facets):
        value, attainable = scalar_min_uncertainty_to_facet(ds, i, h)
        # prefer attainable facets on value ties: a strict threshold needs
        # more uncertainty than an equal attainable one (snap the value so
        # float noise cannot break a genuine tie)
        cand = (round(value, 12), 0 if attainable else 1, k, value)
        if best is None or cand < best:
            best = cand
    _, strict_flag, k, upsilon = best
    return k, upsilon, strict_flag == 0


def per_unit_exact_udea(ds: DeaDataset, dmu: int, nu: float,
                        facet_set: FacetSet,
                        eps: float = DEFAULT_EPS) -> UdeaOutcome:
    """Reference ``udea.facets.exact_udea``: the per-unit version it
    replaced, kept verbatim but for taking its facet set, which recomputes
    for every unit the box rates of the facets and the (u, v) certificate
    of the attaining one, where the package keeps both on the set.  The
    package must return the same outcome, upsilon and gamma bit for bit."""
    i = _check_index(ds, dmu)
    fs = facet_set
    zero = np.zeros(len(fs))
    rate = 2.0 * np.abs(-sum(fs.alpha, zero)
                        + sum(fs.beta[~ds.env_outputs], zero))
    finite = rate > AXIS_TOL
    gap = np.abs(sum(fs.alpha * ds.X[:, i, None], zero)
                 + sum(fs.beta * ds.Y[:, i, None], zero) - fs.d)
    gap[gap <= fs.tol] = 0.0
    values = np.full(len(fs), math.inf)
    np.divide(gap, rate, out=values, where=finite)
    attainable = finite & fs.attainable
    k = int(np.lexsort((~attainable, np.round(values, 12)))[0])
    upsilon = float(values[k])
    attainable = bool(attainable[k])
    sigma = min(upsilon, nu)
    facet = fs.facets[k]
    _, u, v = _certificate(ds, None, np.concatenate([-facet.beta,
                                                     facet.alpha]))
    gamma = _probe(ds, i, sigma if math.isfinite(sigma) else 0.0, eps,
                   (2.0 * upsilon, None, u, v))
    return UdeaOutcome(dmu=i, upsilon=upsilon, gamma=gamma,
                       capable=upsilon < nu or (upsilon <= nu and attainable),
                       facet=facet, facet_index=k, attainable=attainable)
