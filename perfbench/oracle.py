"""Independent reference answers from scipy's HiGHS, and the comparison.

Nothing here imports the package under test: the envelopment program, the
box transform and the directional distance function are written out again
from the model's definition and handed to ``scipy.optimize.linprog``.

* nominal: theta of the input-oriented variable-returns envelopment LP;
* iterative: the same sigma-grid rule as the iterative solver (first grid
  point whose robust score reaches 1 - 1e-6, then one midpoint solve to
  round), with the grid point located from the directional distance
  function and confirmed by HiGHS solves at and below it.  When a
  nonnegativity clamp could bind below the cap, monotonicity is not
  assumed and the whole grid is walked instead;
* exact: upsilon* = beta* / 2 of the directional distance function with
  direction (-1 on inputs, +1 on non-environmental outputs).
"""

import math

import numpy as np
from scipy.optimize import linprog

SCORE_TOL = 1e-6      # efficiency threshold used by the solvers
THETA_TOL = 1e-6      # allowed |theta - reference|
UPSILON_TOL = 1e-6    # allowed |upsilon_exact - beta*/2|
GRID_TOL = 1e-9       # grid values are produced by identical arithmetic
EPS = 1e-9            # the solvers' default input clamp floor
# presolve only adds overhead on programs this small
HIGHS_OPTIONS = {"presolve": False}


def theta(X, Y, i):
    n_units = X.shape[1]
    c = np.zeros(n_units + 1)
    c[-1] = 1.0
    A_ub = np.vstack([np.hstack([-Y, np.zeros((Y.shape[0], 1))]),
                      np.hstack([X, -X[:, [i]]])])
    b_ub = np.concatenate([-Y[:, i], np.zeros(X.shape[0])])
    A_eq = np.hstack([np.ones((1, n_units)), np.zeros((1, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=(0, None), method="highs", options=HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on unit {i}: {res.message}")
    return float(res.x[-1])


def box_corner(X, Y, env, i, sigma, eps=EPS):
    """Data at the corner of the sigma-box most favourable to unit i."""
    Xs = X + sigma
    Xs[:, i] = X[:, i] - sigma
    Ys = Y - sigma
    Ys[:, i] = Y[:, i] + sigma
    Ys[env, :] = Y[env, :]
    if sigma > 0:
        Xs = np.maximum(Xs, eps)
        Ys = np.maximum(Ys, 0.0)
    return Xs, Ys


def robust_theta(X, Y, env, i, sigma):
    return theta(*box_corner(X, Y, env, i, sigma), i)


def ddf_beta(X, Y, env, i):
    """max beta: X lam <= x_i - beta, Y lam >= y_i + beta g, sum lam = 1."""
    n_units = X.shape[1]
    g = (~env).astype(float)
    c = np.zeros(n_units + 1)
    c[-1] = -1.0
    A_ub = np.vstack([np.hstack([X, np.ones((X.shape[0], 1))]),
                      np.hstack([-Y, g[:, None]])])
    b_ub = np.concatenate([X[:, i], -Y[:, i]])
    A_eq = np.hstack([np.ones((1, n_units)), np.zeros((1, 1))])
    bounds = [(0, None)] * n_units + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs", options=HIGHS_OPTIONS)
    if res.status == 3:
        return math.inf
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on unit {i}: {res.message}")
    return float(res.x[-1])


def iterative_reference(X, Y, env, i, nu, step):
    """(upsilon or None, capable, bracket or None, gamma) by the grid rule."""
    if not math.isfinite(nu):
        raise ValueError("the grid reference needs a finite cap")

    def score(sigma):
        return robust_theta(X, Y, env, i, sigma)

    def ok(sigma):
        return score(sigma) >= 1.0 - SCORE_TOL

    base = score(0.0)
    if base >= 1.0 - SCORE_TOL:
        return 0.0, True, (0.0, 0.0), base
    # grid points k * step strictly below the cap, as the solver walks them
    last = 0
    while (last + 1) * step < nu:
        last += 1
    # the unit's own inputs and every perturbed output shrink by sigma
    lowest = min(X[:, i].min(), Y[~env].min() if np.any(~env) else np.inf)
    if lowest > nu:
        # no clamp binds up to the cap: the score is monotone in sigma, so
        # start at the grid point the directional distance function gives
        guess = ddf_beta(X, Y, env, i) / 2.0
        k = min(max(1, math.ceil(guess / step - 1e-9)), last + 1)
        while k <= last and not ok(k * step):
            k += 1
        while k - 1 >= 1 and ok((k - 1) * step):
            k -= 1
    else:
        k = 1
        while k <= last and not ok(k * step):
            k += 1
    if k <= last:
        sigma = k * step
        gamma = score(sigma)
        upsilon = sigma - step if ok(sigma - 0.5 * step) else sigma
        return upsilon, True, (sigma - step, sigma), gamma
    gamma = score(nu)
    if gamma >= 1.0 - SCORE_TOL:
        return nu, True, (max(nu - step, 0.0), nu), gamma
    return None, False, None, gamma


def reference(X, Y, env, settings):
    """Reference answers for one dataset, one dict per unit."""
    out = []
    for i in range(X.shape[1]):
        ref = {"theta": theta(X, Y, i)}
        if settings.mode == "iterative":
            ups, capable, bracket, gamma = iterative_reference(
                X, Y, env, i, settings.nu, settings.step)
            ref.update(upsilon=ups, capable=capable, bracket=bracket,
                       gamma=gamma)
        elif settings.mode == "exact":
            ref["upsilon"] = ddf_beta(X, Y, env, i) / 2.0
        out.append(ref)
    return out


def compare(result, ref, settings):
    """Reasons a unit's result disagrees with the reference ([] if none)."""
    reasons = []
    if abs(result["theta"] - ref["theta"]) > THETA_TOL:
        reasons.append(f"theta {result['theta']!r} != HiGHS {ref['theta']!r}")
    if settings.mode == "iterative":
        if result["capable"] != ref["capable"]:
            reasons.append(f"capable {result['capable']} != grid rule "
                           f"{ref['capable']}")
        elif ref["capable"]:
            if abs(result["upsilon"] - ref["upsilon"]) > GRID_TOL:
                reasons.append(f"upsilon {result['upsilon']!r} != grid rule "
                               f"{ref['upsilon']!r}")
            if any(abs(a - b) > GRID_TOL
                   for a, b in zip(result["bracket"], ref["bracket"])):
                reasons.append(f"bracket {result['bracket']} != grid rule "
                               f"{ref['bracket']}")
        if abs(result["gamma"] - ref["gamma"]) > THETA_TOL:
            reasons.append(f"gamma {result['gamma']!r} != HiGHS "
                           f"{ref['gamma']!r}")
    elif settings.mode == "exact":
        if abs(result["upsilon"] - ref["upsilon"]) > UPSILON_TOL:
            reasons.append(f"upsilon {result['upsilon']!r} != beta*/2 "
                           f"{ref['upsilon']!r}")
        # capability is only decidable from beta* away from the cap, where
        # the strict/attainable distinction cannot matter
        elif abs(ref["upsilon"] - settings.nu) > UPSILON_TOL and \
                result["capable"] != (ref["upsilon"] < settings.nu):
            reasons.append(f"capable {result['capable']} but beta*/2 = "
                           f"{ref['upsilon']!r} vs nu {settings.nu}")
    return reasons
