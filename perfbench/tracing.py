"""Spans and counters recorded from outside the package under test.

Both recorders work the same way: each layer's public function is replaced,
in every ``udea`` module that holds a reference to it, by a wrapper; no
file of the package changes.  ``Spans`` records (name, start, end, parent)
in memory.  ``Counts`` records work done, and replaces the simplex kernel by
a stepping counter that calls the original kernel with ``max_iter=1`` until
it stops, so pivots are counted without touching the kernel's arithmetic.
The two never run in the same pass: counting changes the timing.
"""

import sys
import time
from collections import defaultdict

import numpy as np

import udea.dataset
import udea.lp
from udea import _kernels

GEQ, EQ = udea.lp.GEQ, udea.lp.EQ

# layer name -> (module, attribute) of the function a span wraps
SPAN_POINTS = {
    "cli.ingest": ("udea.cli", "ingest_csv"),
    "cli.scale": ("udea.cli", "apply_scaling"),
    "dataset.solve_nominal": ("udea.dataset", "solve_nominal"),
    "dataset.build_lp": ("udea.dataset", "build_envelopment_lp"),
    "robust.transform": ("udea.robust", "transform_box"),
    "iterative.unit": ("udea.iterative", "iterative_udea"),
    "facets.enumerate": ("udea.facets", "enumerate_efficient_facets"),
    "facets.exact": ("udea.facets", "exact_udea"),
    "geometry.facet_threshold": ("udea.geometry", "min_uncertainty_to_facet"),
    "lp.solve": ("udea.lp", "solve_lp"),
}
# dataclass validation runs from the generated __init__ via the class
METHOD_POINTS = {
    "dataset.validate": (udea.dataset.DeaDataset, "__post_init__"),
    "lp.validate": (udea.lp.LinearProgram, "__post_init__"),
}


def _replace_everywhere(original, replacement):
    """Rebind every ``udea.*`` module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "udea" or name.startswith("udea."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _lookup(module_name, attr):
    return getattr(sys.modules[module_name], attr)


def has_artificials(lp):
    """True when ``solve_lp`` runs a phase one for ``lp`` (some row is an
    equality or a >= row after making the right-hand side nonnegative)."""
    b = lp.b - lp.A @ lp.lb
    return any(s == EQ or ((s == GEQ) == (rhs >= 0))
               for s, rhs in zip(lp.senses, b))


class Spans:
    """In-memory span recorder: one (name, start, end, parent) per call."""

    def __init__(self):
        self.records = []   # [name, start, end, parent index]
        self._stack = []
        self._lp_state = []  # per open solve_lp: [has_artificials, calls]

    def _wrap(self, name, fn):
        records, stack = self.records, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            records.append(rec)
            stack.append(len(records) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def install(self):
        for name, (module, attr) in SPAN_POINTS.items():
            original = _lookup(module, attr)
            if name == "lp.solve":
                wrapped = self._wrap(name, self._solve_lp(original))
            else:
                wrapped = self._wrap(name, original)
            _replace_everywhere(original, wrapped)
        for name, (cls, attr) in METHOD_POINTS.items():
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
        kernel = udea.lp.simplex_core
        phase1 = self._wrap("kernel.phase1", kernel)
        phase2 = self._wrap("kernel.phase2", kernel)
        state = self._lp_state

        def phased_kernel(T, basis, allowed, tol, max_iter):
            top = state[-1]
            top[1] += 1
            first = top[1] == 1 and top[0]
            return (phase1 if first else phase2)(T, basis, allowed, tol,
                                                 max_iter)
        udea.lp.simplex_core = phased_kernel

    def _solve_lp(self, original):
        state = self._lp_state

        def solve_lp(lp, *args, **kwargs):
            state.append([has_artificials(lp), 0])
            try:
                return original(lp, *args, **kwargs)
            finally:
                state.pop()
        return solve_lp


class Counts:
    """Work counters for one pass; the kernel is stepped one pivot at a
    time so every pivot is seen."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.clamp_cells = 0
        self.iteration_limit = 0
        self.tableau_cells = []           # per LP that reached the kernel
        self.pivots = {1: [], 2: []}      # per kernel call, by phase
        self.pivots_per_lp = []
        self.degenerate = 0
        self.flops = 0
        self.bytes = 0
        self.facets_found = 0
        self.solves_per_unit = []
        self._lp = None       # [has_artificials, kernel calls, pivots]
        self._unit = None     # solve count of the open iterative unit

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for name, (module, attr) in SPAN_POINTS.items():
            original = _lookup(module, attr)
            hook = getattr(self, "_" + name.replace(".", "_"), None)
            wrapped = self._count(name, hook(original) if hook else original)
            _replace_everywhere(original, wrapped)
        for name, (cls, attr) in METHOD_POINTS.items():
            setattr(cls, attr, self._count(name, getattr(cls, attr)))
        for module, attr, name in (("udea.facets", "is_extreme",
                                    "facets.extreme_check"),
                                   ("udea.facets", "_unique_normal",
                                    "facets.normal")):
            original = _lookup(module, attr)
            _replace_everywhere(original, self._count(name, original))
        udea.lp.simplex_core = self.stepping_kernel(udea.lp.simplex_core)

    def stepping_kernel(self, kernel):
        """The kernel run one pivot per call until it stops; the sequence
        of floating-point operations is the same as one call."""
        def step(T, basis, allowed, tol, max_iter):
            # outside solve_lp (as in the tests) a call counts as one LP
            lp = self._lp if self._lp is not None else [False, 0, 0]
            lp[1] += 1
            phase = 1 if (lp[1] == 1 and lp[0]) else 2
            rows, cols = T.shape
            if lp[1] == 1:
                self.tableau_cells.append(rows * cols)
            pivots = 0
            status = _kernels.ITERATION_LIMIT
            while pivots < max_iter:
                before = basis.copy()
                status = kernel(T, basis, allowed, tol, 1)
                if status != _kernels.ITERATION_LIMIT:
                    break
                pivots += 1
                leave = int(np.flatnonzero(basis != before)[0])
                # after the pivot the leaving row holds the step length;
                # zero means the basis changed but the point did not move
                if abs(T[leave, -1]) <= tol:
                    self.degenerate += 1
            self.pivots[phase].append(pivots)
            lp[2] += pivots
            # computed, not measured: each pivot rewrites the whole tableau
            # (one multiply and one subtract per cell, 8 bytes read and 8
            # written per cell)
            self.flops += pivots * 2 * rows * cols
            self.bytes += pivots * 16 * rows * cols
            return status
        return step

    def _lp_solve(self, original):
        def solve_lp(lp, *args, **kwargs):
            outer = self._lp
            self._lp = [has_artificials(lp), 0, 0]
            if self._unit is not None:
                self._unit[0] += 1
            try:
                return original(lp, *args, **kwargs)
            except udea.lp.SolverFault as exc:
                if "iteration limit" in str(exc):
                    self.iteration_limit += 1
                raise
            finally:
                if self._lp[1]:
                    self.pivots_per_lp.append(self._lp[2])
                self._lp = outer
        return solve_lp

    def _robust_transform(self, original):
        def transform_box(ds, dmu, sigma, eps=udea.robust.DEFAULT_EPS):
            if sigma > 0:
                # the corner before the floors, as transform_box builds it
                i = int(dmu)
                X = ds.X + sigma
                X[:, i] = ds.X[:, i] - sigma
                Y = ds.Y - sigma
                Y[:, i] = ds.Y[:, i] + sigma
                Y[ds.env_outputs, :] = ds.Y[ds.env_outputs, :]
                self.clamp_cells += int((X < eps).sum() + (Y < 0.0).sum())
            return original(ds, dmu, sigma, eps)
        return transform_box

    def _iterative_unit(self, original):
        def iterative_udea(*args, **kwargs):
            self._unit = [0]
            try:
                return original(*args, **kwargs)
            finally:
                self.solves_per_unit.append(self._unit[0])
                self._unit = None
        return iterative_udea

    def _facets_enumerate(self, original):
        def enumerate_efficient_facets(*args, **kwargs):
            facet_set = original(*args, **kwargs)
            self.facets_found += len(facet_set)
            return facet_set
        return enumerate_efficient_facets

    def summary(self):
        """Raw sums, so that several passes can be added together."""
        return {
            "calls": dict(self.calls),
            "clamp_cells": self.clamp_cells,
            "iteration_limit": self.iteration_limit,
            "tableau_cells_sum": sum(self.tableau_cells),
            "tableau_lps": len(self.tableau_cells),
            "pivots_phase1": sum(self.pivots[1]),
            "calls_phase1": len(self.pivots[1]),
            "pivots_phase2": sum(self.pivots[2]),
            "calls_phase2": len(self.pivots[2]),
            "pivots_max": max(self.pivots_per_lp, default=0),
            "degenerate": self.degenerate,
            "flops": self.flops,
            "bytes": self.bytes,
            "facets_found": self.facets_found,
            "solves_per_unit": self.solves_per_unit,
        }
