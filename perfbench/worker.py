"""One benchmark pass in a fresh interpreter.

Usage: python perfbench/worker.py REQUEST.json RESULT.json

The request names the CSV files, the CLI settings and the recording mode:
``plain`` (nothing recorded but the clock), ``spans`` or ``counts`` (see
``tracing.py``).  The pass makes the same public calls as ``udea <mode>``
at ``--jobs 1``: ingest, scale, ``solve_nominal`` for every unit, then
``iterative_udea`` per unit or ``enumerate_efficient_facets`` once and
``exact_udea`` per unit.  A unit whose call raises is recorded with the
reason and the pass carries on.  Report rendering is private to the CLI
and is not part of the pass.

``PassClock`` times the pass.  It also times short slices of the fixed
work in ``calibration.py`` at the start, between units every half second
of pass time, and at the end; the slices are left out of the pass time.
Each stretch of the pass between two slices is divided by the mean of
those two slices, and the sum is the pass time in slice units
(``rel``): a measure of the pass that the host's changing speed moves far
less than it moves the seconds.
"""

import json
import resource
import sys
import time

_t0 = time.perf_counter()
import udea.cli as cli  # noqa: E402  (the import is what setup_s times)
IMPORT_S = time.perf_counter() - _t0

import udea  # noqa: E402
from udea import _kernels  # noqa: E402

import calibration  # noqa: E402


def _reason(stage, exc):
    return f"{stage}: {type(exc).__name__}: {exc}"


class PassClock:
    """Pass time, with calibration slices taken between units."""

    SLICE_EVERY_S = 0.5

    def __init__(self):
        self.slices = [calibration.run()]
        self.stretches = [0.0]   # pass time after each slice
        self._t = time.perf_counter()

    def _lap(self):
        now = time.perf_counter()
        self.stretches[-1] += now - self._t
        self._t = now

    def tick(self):
        """Call between units; may run a calibration slice."""
        self._lap()
        if self.stretches[-1] >= self.SLICE_EVERY_S:
            self.slices.append(calibration.run())
            self.stretches.append(0.0)
            self._t = time.perf_counter()

    def stop(self):
        self._lap()
        self.slices.append(calibration.run())

    @property
    def pass_s(self):
        return sum(self.stretches)

    @property
    def rel(self):
        return sum(s / (0.5 * (a + b)) for s, a, b in
                   zip(self.stretches, self.slices, self.slices[1:]))


def run_dataset(path, config, cfg, clock):
    ds = cli.apply_scaling(cli.ingest_csv(path), config)
    clock.tick()
    units = [{"name": name} for name in ds.names]
    errors = {}

    def fail(i, reason):
        errors.setdefault(ds.names[i], []).append(reason)

    for i in range(ds.n_units):
        try:
            units[i]["theta"] = float(cli.solve_nominal(ds, i).theta)
        except Exception as exc:  # one unit failing must not end the pass
            fail(i, _reason("nominal", exc))
        clock.tick()

    if config.mode == "iterative":
        for i in range(ds.n_units):
            try:
                out = cli.iterative_udea(ds, i, cfg)
            except Exception as exc:
                fail(i, _reason("iterative", exc))
                continue
            finally:
                clock.tick()
            units[i].update(upsilon=out.upsilon, capable=out.capable,
                            bracket=out.bracket, gamma=float(out.gamma))
    elif config.mode == "exact":
        try:
            facet_set = cli.enumerate_efficient_facets(ds)
        except Exception as exc:
            for i in range(ds.n_units):
                fail(i, _reason("enumerate", exc))
            return {"path": path, "units": units, "errors": errors}
        for i in range(ds.n_units):
            try:
                out = cli.exact_udea(ds, i, nu=cfg.nu, eps=cfg.eps,
                                     facet_set=facet_set)
            except Exception as exc:
                fail(i, _reason("exact", exc))
                continue
            finally:
                clock.tick()
            units[i].update(upsilon=out.upsilon, capable=out.capable,
                            strict=not out.attainable)
    return {"path": path, "units": units, "errors": errors}


def main(argv):
    with open(argv[1]) as fh:
        request = json.load(fh)
    recorder = None
    if request["record"] in ("spans", "counts"):
        import tracing
        recorder = (tracing.Spans() if request["record"] == "spans"
                    else tracing.Counts())
        recorder.install()

    s = request["settings"]
    config = cli.RunConfig(mode=s["mode"], nu=s["nu"], step=s["step"],
                           preset=s["preset"])
    cfg = cli.UncertaintyConfig(nu=config.nu, step=config.step,
                                eps=config.eps)

    clock = PassClock()
    datasets = [run_dataset(path, config, cfg, clock)
                for path in request["csv_paths"]]
    clock.stop()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "import_s": IMPORT_S,
        "wall_s": clock.pass_s,
        "wall_rel": clock.rel,
        "cal_s": sum(clock.slices) / len(clock.slices),
        "maxrss_kb": maxrss_kb,
        "backend": udea.BACKEND,
        "have_numba": _kernels.HAVE_NUMBA,
        "udea_file": udea.__file__,
        "datasets": datasets,
    }
    if request["record"] == "spans":
        with open(request["spans_path"], "w") as fh:
            json.dump(recorder.records, fh)
    elif request["record"] == "counts":
        result["counts"] = recorder.summary()
    with open(argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
