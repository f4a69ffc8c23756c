"""udea benchmark: end-to-end and per-layer metrics for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 30 \
        --trace 0

Set-up generates the workload's datasets from the seed, writes them as CSV
files and computes reference answers with scipy's HiGHS; none of that is
timed.  The run then starts one fresh interpreter per pass
(``perfbench/worker.py``), one after another, until ``--seconds`` have
passed, and checks every unit's answer against the reference.

``--trace 0`` prints the end-to-end metrics: ``wall_rel`` (ingest to the
last unit's result, in units of the calibration slices taken during the
pass, see ``worker.py``; median over passes; the raw ``wall_s`` is printed
too), ``setup_s`` (time to import ``udea.cli`` in the fresh interpreter,
median over passes), ``peak_rss_mb`` (the pass's peak resident memory,
median) and ``success_rate`` (share of unit operations that neither raised
nor disagreed with the reference, each unit of each input counted once
however many passes ran it; the error rate is one minus it).

``--trace 1`` prints the per-layer metrics: self times from span passes
(median per pass), work counts from a counting pass over every input of
the seed, and the tracing overhead (span pass minus plain pass on the same
input, median).  The counting passes count towards ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
(machine record, every sample, every failed unit) is written to
``.perfbench_work/<workload>-s<seed>-t<trace>/report.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import oracle
import workloads

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py")
BLAS_THREADS = "1"
# a run must end within 180 s even if a pass hangs
RUN_DEADLINE_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a failure of a unit)."""


def machine_record(worker_result):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "udea_backend": worker_result["backend"],
        "UDEA_BACKEND": os.environ.get("UDEA_BACKEND", "(unset)"),
        "OPENBLAS_NUM_THREADS": BLAS_THREADS + " (set for every pass)",
        "numba_installed": worker_result["have_numba"],
        "load_generation": "one process, passes one after another "
                           "(closed loop, --jobs 1)",
    }


class Runner:
    """Starts workers in fresh interpreters and collects their results."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                     else []))
        # one BLAS thread: the load is one process at --jobs 1, and the
        # thread pool numpy's OpenBLAS starts at import made import time
        # (setup_s) bimodal on a shared 2-vCPU host
        self.env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
        self.count = 0

    def run(self, record, pass_input):
        self.count += 1
        tag = f"{self.count:03d}_{record}_{pass_input.label}"
        request = {
            "record": record,
            "settings": vars(pass_input.settings),
            "csv_paths": pass_input.csv_paths,
            "spans_path": os.path.join(self.work, f"{tag}_spans.json"),
        }
        req_path = os.path.join(self.work, f"{tag}_request.json")
        out_path = os.path.join(self.work, f"{tag}_result.json")
        with open(req_path, "w") as fh:
            json.dump(request, fh)
        proc = subprocess.run([sys.executable, WORKER, req_path, out_path],
                              cwd=self.root, env=self.env,
                              capture_output=True, text=True,
                              timeout=max(1.0, self.deadline
                                          - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchmarkError(f"worker exited {proc.returncode}:\n"
                                 f"{proc.stderr[-2000:]}")
        with open(out_path) as fh:
            result = json.load(fh)
        expected = os.path.join(self.root, "src", "udea")
        if os.path.dirname(os.path.abspath(result["udea_file"])) != expected:
            raise BenchmarkError(f"worker imported udea from "
                                 f"{result['udea_file']}, not {expected}")
        result["label"] = pass_input.label
        result["record"] = record
        if record == "spans":
            with open(request["spans_path"]) as fh:
                result["spans"] = json.load(fh)
        return result


class Checker:
    """Compares each pass's unit answers with the reference answers.

    One operation is one unit of one input, however many passes run it:
    the program is deterministic, so each pass over an input repeats the
    same work, and counting every (dataset, unit) once keeps ``attempted``
    and ``failed`` the same for a seed however many passes fit into the
    run.  A unit fails if it raised or disagreed with the reference in any
    pass; ``runs`` and ``passes`` say in how many passes it ran and failed.
    """

    def __init__(self, refs, settings):
        self.refs = refs          # csv path -> list of reference dicts
        self.settings = settings  # csv path -> Settings
        self.runs = {}            # (dataset, unit) -> passes that ran it
        self.failures = {}        # (dataset, unit) -> {"reasons", "passes"}
        self.wrong_units = set()

    @property
    def attempted(self):
        return len(self.runs)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def wrong(self):
        return len(self.wrong_units)

    @property
    def checked(self):
        """Unit answers checked over all passes."""
        return sum(self.runs.values())

    def check(self, result):
        for ds in result["datasets"]:
            path = ds["path"]
            refs = self.refs[path]
            for unit, ref in zip(ds["units"], refs):
                key = (os.path.basename(path), unit["name"])
                self.runs[key] = self.runs.get(key, 0) + 1
                reasons = list(ds["errors"].get(unit["name"], []))
                if not reasons:
                    reasons = oracle.compare(unit, ref, self.settings[path])
                    if reasons:
                        self.wrong_units.add(key)
                if reasons:
                    entry = self.failures.setdefault(
                        key, {"reasons": [], "passes": 0})
                    entry["passes"] += 1
                    entry["reasons"] += [r for r in reasons
                                         if r not in entry["reasons"]]


def self_times(spans):
    """Self time by span name: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for k, (name, start, end, parent) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[k]
    return out


# per-layer metric -> span name whose self time it is
SELF_TIME_METRICS = {
    "cli.ingest_s": "cli.ingest",
    "cli.scale_s": "cli.scale",
    "dataset.validate_s": "dataset.validate",
    "dataset.build_lp_s": "dataset.build_lp",
    "dataset.post_s": "dataset.solve_nominal",
    "robust.transform_s": "robust.transform",
    "facets.enumerate_s": "facets.enumerate",
    "facets.exact_s": "facets.exact",
    "geometry.facet_threshold_s": "geometry.facet_threshold",
    "lp.validate_s": "lp.validate",
    "lp.prep_s": "lp.solve",
    "kernel.phase1_s": "kernel.phase1",
    "kernel.phase2_s": "kernel.phase2",
}


def per_layer_metrics(span_passes, plain_passes, counts):
    """Span pass k ran on the same input right after plain pass k."""
    metrics = {}
    selfs = [self_times(p["spans"]) for p in span_passes]
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = (statistics.median(s.get(span, 0.0) for s in selfs),
                           "s")
    unit_ms = [(end - start) * 1e3 for p in span_passes
               for name, start, end, _ in p["spans"]
               if name == "iterative.unit"]
    metrics["iterative.unit_ms_p50"] = (
        statistics.median(unit_ms) if unit_ms else 0.0, "ms")
    metrics["iterative.unit_ms_p90"] = (
        statistics.quantiles(unit_ms, n=10)[8] if len(unit_ms) > 1 else 0.0,
        "ms")
    metrics["trace.overhead_s"] = (statistics.median(
        traced["wall_s"] - plain["wall_s"]
        for traced, plain in zip(span_passes, plain_passes)), "s")

    calls = counts["calls"]
    solves = counts["solves_per_unit"]
    tried = calls.get("facets.normal", 0)
    pivots = counts["pivots_phase1"] + counts["pivots_phase2"]

    def ratio(num, den):
        return num / den if den else 0.0
    metrics.update({
        "dataset.validate_calls": (calls.get("dataset.validate", 0), "count"),
        "dataset.build_lp_calls": (calls.get("dataset.build_lp", 0), "count"),
        "robust.transform_calls": (calls.get("robust.transform", 0), "count"),
        "robust.clamp_cells": (counts["clamp_cells"], "count"),
        "iterative.solves_per_unit_mean": (
            float(np.mean(solves)) if solves else 0.0, "count"),
        "iterative.solves_per_unit_max": (max(solves, default=0), "count"),
        "facets.extreme_checks": (calls.get("facets.extreme_check", 0),
                                  "count"),
        "facets.normals_tried": (tried, "count"),
        "facets.found": (counts["facets_found"], "count"),
        "facets.yield": (ratio(counts["facets_found"], tried), "share"),
        "geometry.facet_threshold_calls": (
            calls.get("geometry.facet_threshold", 0), "count"),
        "lp.solves": (calls.get("lp.solve", 0), "count"),
        "lp.tableau_cells_mean": (ratio(counts["tableau_cells_sum"],
                                        counts["tableau_lps"]), "cells"),
        "lp.iteration_limit": (counts["iteration_limit"], "count"),
        "kernel.pivots_phase1_mean": (ratio(counts["pivots_phase1"],
                                            counts["calls_phase1"]), "count"),
        "kernel.pivots_phase2_mean": (ratio(counts["pivots_phase2"],
                                            counts["calls_phase2"]), "count"),
        "kernel.pivots_max": (counts["pivots_max"], "count"),
        "kernel.degenerate_share": (ratio(counts["degenerate"], pivots),
                                    "share"),
        "kernel.flops": (counts["flops"], "flop"),
        "kernel.bytes": (counts["bytes"], "byte"),
    })
    return metrics


def merge_counts(parts):
    """Add up the raw counts of several count passes."""
    merged = {"calls": {}, "solves_per_unit": [], "pivots_max": 0}
    for part in parts:
        for key, value in part.items():
            if key == "calls":
                for name, n in value.items():
                    merged["calls"][name] = merged["calls"].get(name, 0) + n
            elif key == "solves_per_unit":
                merged[key] += value
            elif key == "pivots_max":
                merged[key] = max(merged[key], value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def end_to_end_metrics(plain, checker):
    return {
        "wall_rel": (statistics.median(p["wall_rel"] for p in plain), "x"),
        "setup_s": (statistics.median(p["import_s"] for p in plain), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] / 1024.0
                                          for p in plain), "MB"),
        "success_rate": ((checker.attempted - checker.failed)
                         / checker.attempted, "share"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "udea", "__init__.py")):
        print("error: run from the repository root; src/udea not found",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_work",
                        f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    # set-up: inputs and reference answers, untimed
    setup_start = time.perf_counter()
    deadline = setup_start + RUN_DEADLINE_S
    passes, refs, settings_of = [], {}, {}
    for label, settings, tables in workloads.generate(args.workload,
                                                      args.seed):
        paths = []
        for k, table in enumerate(tables):
            path = os.path.join(work, f"{label}_d{k}.csv")
            workloads.write_csv(table, path)
            X, Y = workloads.scaled(table, settings)
            refs[path] = oracle.reference(X, Y, table.env, settings)
            settings_of[path] = settings
            paths.append(path)
        passes.append(workloads.PassInput(label, settings, paths))
    runner = Runner(root, work, deadline)
    # compile the package's bytecode once, as any installed copy would be
    warm = runner.run("plain", workloads.PassInput("warm",
                                                   passes[0].settings, []))
    setup_s = time.perf_counter() - setup_start

    checker = Checker(refs, settings_of)
    plain, span_passes, count_passes = [], [], []
    start = time.perf_counter()
    if args.trace:
        # the counting passes are part of a traced run's measuring time
        for p in passes:
            count_passes.append(runner.run("counts", p))
            checker.check(count_passes[-1])
    k = 0
    while True:
        p = passes[k % len(passes)]
        plain.append(runner.run("plain", p))
        checker.check(plain[-1])
        if args.trace:
            span_passes.append(runner.run("spans", p))
            checker.check(span_passes[-1])
        k += 1
        # every unit of the seed is checked: by the counting passes in a
        # traced run, else by running every input at least once
        covered = args.trace or k >= len(passes)
        if covered and time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        metrics = per_layer_metrics(
            span_passes, plain,
            merge_counts([c["counts"] for c in count_passes]))
    else:
        metrics = end_to_end_metrics(plain, checker)

    machine = machine_record(warm)
    error_rate = checker.failed / checker.attempted
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine,
        "benchmark_setup_s": setup_s,
        "passes": len(plain),
        "samples": {
            "wall_s": [p["wall_s"] for p in plain],
            "wall_rel": [p["wall_rel"] for p in plain],
            "cal_s": [p["cal_s"] for p in plain],
            "setup_s": [p["import_s"] for p in plain],
            "peak_rss_mb": [p["maxrss_kb"] / 1024.0 for p in plain],
            "traced_wall_s": [p["wall_s"] for p in span_passes],
        },
        "error_rate": error_rate,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "unit_answers_checked": checker.checked,
        "failures": [{"dataset": d, "unit": u, "runs": checker.runs[(d, u)],
                      **v}
                     for (d, u), v in sorted(checker.failures.items())],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(work, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} passes over {len(passes)} inputs")
    print("machine " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    walls = report["samples"]["wall_s"]
    if args.trace:
        print(f"times: self time per pass, median of {len(span_passes)} "
              f"span passes; counts: totals over all {len(passes)} inputs")
    else:
        cals = report["samples"]["cal_s"]
        print(f"medians of {len(plain)} passes; wall_s ranged "
              f"{min(walls):.4f} .. {max(walls):.4f} s, calibration "
              f"{min(cals):.4f} .. {max(cals):.4f} s")
        print(f"  {'wall_s':32s} {statistics.median(walls):>16.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(f"  {'error_rate':32s} {error_rate:>16.6g} share  "
          f"({checker.failed} of {checker.attempted} units; "
          f"{checker.checked} unit answers checked over all passes)")
    for (d, u), v in sorted(checker.failures.items()):
        print(f"  FAILED {d} {u} (in {v['passes']} of "
              f"{checker.runs[(d, u)]} passes): "
              + "; ".join(v["reasons"]))
    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
