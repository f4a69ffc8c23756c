"""Compare the numba-compiled and pure-numpy simplex kernels.

Times full nominal sweeps (one envelopment LP per unit) on synthetic
datasets of growing size with each backend swapped in.  Without numba only
the numpy backend is timed and the numba columns read n/a.  Pivots per LP
are counted in a separate, untimed sweep that steps the kernel one pivot
per call; the numpy time per pivot is the sweep time divided by them.

Usage: python benchmarks/bench_simplex.py [--units 20 60 120] [--repeats 3]
"""

import argparse
import time

import numpy as np

import udea.lp
from udea._kernels import (HAVE_NUMBA, ITERATION_LIMIT, simplex_core_numba,
                           simplex_core_numpy)
from udea.dataset import DeaDataset, solve_all


def make_dataset(rng, units, n_inputs=2, n_outputs=2):
    return DeaDataset(
        names=[f"u{k}" for k in range(units)],
        X=rng.uniform(0.5, 10.0, size=(n_inputs, units)),
        Y=rng.uniform(0.5, 10.0, size=(n_outputs, units)),
    )


def time_backend(core, ds, repeats):
    udea.lp.simplex_core = core
    solve_all(ds)  # warm-up (jit compilation, caches)
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        solve_all(ds)
        best = min(best, time.perf_counter() - start)
    return best


def count_pivots(ds):
    """(LPs, pivots) of one nominal sweep with the numpy kernel."""
    counts = [0, 0]

    def stepping(T, basis, allowed, tol, max_iter):
        counts[0] += 1
        for _ in range(max_iter):
            status = simplex_core_numpy(T, basis, allowed, tol, 1)
            if status != ITERATION_LIMIT:
                return status
            counts[1] += 1
        return ITERATION_LIMIT
    udea.lp.simplex_core = stepping
    solve_all(ds)
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--units", type=int, nargs="+",
                        default=[20, 60, 120])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'units':>6}  {'pivots/LP':>9}  {'numpy [ms]':>11}  "
          f"{'numpy [us/pivot]':>16}  {'numba [ms]':>11}  {'speed-up':>8}")
    for units in args.units:
        ds = make_dataset(rng, units)
        lps, pivots = count_pivots(ds)
        t_np = time_backend(simplex_core_numpy, ds, args.repeats)
        if HAVE_NUMBA:
            t_nb = time_backend(simplex_core_numba, ds, args.repeats)
            numba_cols = f"{t_nb * 1e3:>11.2f}  {t_np / t_nb:>7.1f}x"
        else:
            numba_cols = f"{'n/a':>11}  {'n/a':>8}"
        print(f"{units:>6}  {pivots / lps:>9.1f}  {t_np * 1e3:>11.2f}  "
              f"{t_np / pivots * 1e6:>16.1f}  {numba_cols}")


if __name__ == "__main__":
    main()
