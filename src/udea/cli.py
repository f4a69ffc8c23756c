"""Batch front door: CSV ingestion, run modes and machine-readable reports.

CSV layout: first column is the unit name; remaining columns are headed
``in:<name>``, ``out:<name>`` or ``env:<name>`` (environmental outputs,
exempt from uncertainty), the name stripped and not empty.  Values are
nonnegative decimal reals.
"""

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dataset import DeaDataset, scale_dataset, solve_all, solve_nominal
from .facets import SizeLimitError, enumerate_efficient_facets, exact_udea
from .iterative import _grid_index, iterative_udea
from .lp import SolverFault
from .robust import (DEFAULT_CAP, DEFAULT_EPS, DEFAULT_STEP,
                     UncertaintyConfig, _probe, _robust_scores)

MODES = ("nominal", "robust", "sweep", "exact", "iterative")
# the report columns that the modes reporting upsilon_star (exact and
# iterative) also write as plot data
_PLOT_COLUMNS = ("dmu", "nominal_score", "upsilon_star", "capable")

_TEXT_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})

EXIT_OK = 0
EXIT_DATA_ERROR = 2
EXIT_SIZE_ERROR = 3
EXIT_SOLVER_FAULT = 4

# case-study scaling: output = proportion of the prescribed target dose
# (74 Gy at the 95% level), input = fraction of the 70 Gy risk threshold,
# both times 100 so a 3.6% uncertainty is sigma = 3.6 directly
RADIOTHERAPY_OUTPUT_FACTOR = 100.0 / (74.0 * 0.95)
RADIOTHERAPY_INPUT_FACTOR = 100.0 / 70.0


class DataError(ValueError):
    """Dataset file rejected; message carries the offending location."""


@dataclass
class RunConfig:
    mode: str
    sigma: float = 0.0
    nu: float = DEFAULT_CAP
    step: float = DEFAULT_STEP
    eps: float = DEFAULT_EPS
    scale: dict = field(default_factory=dict)  # variable name -> factor
    preset: str = None
    out: str = None
    plot_out: str = None
    fmt: str = "csv"
    full_precision: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.fmt not in ("csv", "text"):
            raise ValueError("format must be csv or text")


def ingest_csv(path) -> DeaDataset:
    """Read a dataset file, enforcing invariants with cell locations."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required")
        # (row number, fields), numbered as the reader yields rows, the
        # header row 1 and blank rows included
        rows = [(r, row) for r, row in enumerate(reader, start=2)
                if any(c.strip() for c in row)]
    if len(header) < 2:
        raise DataError(f"{path}: header needs a name column and variables")

    input_names, output_names, env_flags = [], [], []
    in_cols, out_cols = [], []  # data column positions, in header order
    for c, head in enumerate(header[1:], start=2):
        head = head.strip()
        kind, colon, var = head.partition(":")
        var = var.strip()
        if not colon or kind not in ("in", "out", "env"):
            raise DataError(
                f"{path}: column {c} header {head!r} must start with "
                "'in:', 'out:' or 'env:'")
        if not var:
            raise DataError(f"{path}: column {c} header {head!r} names "
                            "no variable")
        if kind == "in":
            in_cols.append(c - 2)
            input_names.append(var)
        else:
            out_cols.append(c - 2)
            output_names.append(var)
            env_flags.append(kind == "env")
    if not input_names:
        raise DataError(f"{path}: at least one 'in:' column is required")
    if not output_names:
        raise DataError(f"{path}: at least one 'out:' or 'env:' column required")

    names, seen, table = [], set(), []
    for r, row in rows:
        if len(row) != len(header):
            raise DataError(f"{path}: row {r} has {len(row)} fields, "
                            f"expected {len(header)}")
        name = row[0].strip()
        if name in seen:
            raise DataError(f"{path}: row {r}: duplicate unit name {name!r}")
        if ";" in name:
            # the peers column joins unit names with ';'
            raise DataError(f"{path}: row {r}: unit name {name!r} "
                            "holds ';', which separates peers")
        names.append(name)
        seen.add(name)
        values = []
        for c, raw in enumerate(row[1:]):
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"{path}: row {r}, column {c + 2}: "
                                f"unparseable value {raw!r}")
            if not math.isfinite(value) or value < 0:
                raise DataError(f"{path}: row {r}, column {c + 2}: "
                                f"negative or non-finite value {raw}")
            values.append(value)
        table.append(values)
    # one unit per row of `table`, one variable per row of X and Y, copied
    # to C order: a matrix-vector product may round differently on the
    # transposed layout
    table = np.array(table, dtype=float).reshape(len(rows), len(header) - 1)
    X = table[:, in_cols].T.copy()
    Y = table[:, out_cols].T.copy()
    if not rows:
        raise DataError(f"{path}: no data rows")
    for k, var in enumerate(input_names):
        if not X[k].any():
            raise DataError(f"{path}: input column 'in:{var}' is all zero")
    for k, var in enumerate(output_names):
        if not Y[k].any():
            raise DataError(f"{path}: output column for {var!r} is all zero")
    k = X.any(axis=0).argmin()  # the first unit with no positive input, if any
    if not X[:, k].any():
        raise DataError(f"{path}: row {rows[k][0]}: unit {names[k]!r} has "
                        "no positive input")
    try:
        return DeaDataset(names=names, X=X, Y=Y,
                          env_outputs=np.array(env_flags, dtype=bool),
                          input_names=input_names, output_names=output_names)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")


def apply_scaling(ds: DeaDataset, config: RunConfig) -> DeaDataset:
    factors = np.ones(ds.n_inputs + ds.n_outputs)
    if config.preset == "radiotherapy":
        factors[: ds.n_inputs] = RADIOTHERAPY_INPUT_FACTOR
        for k in range(ds.n_outputs):
            if not ds.env_outputs[k]:
                factors[ds.n_inputs + k] = RADIOTHERAPY_OUTPUT_FACTOR
    if config.scale:
        variables = ds.variable_names()
        for var, factor in config.scale.items():
            if var not in variables:
                raise DataError(f"unknown variable {var!r} in --scale")
            factors[variables.index(var)] = factor
    if np.all(factors == 1.0):
        return ds
    return scale_dataset(ds, factors)


def run(config: RunConfig, ds: DeaDataset):
    """Execute one run mode: write the report and, for the
    minimum-uncertainty modes, the plot data."""
    ds = apply_scaling(ds, config)
    cfg = UncertaintyConfig(nu=config.nu, step=config.step, eps=config.eps)

    header, rows = _compute(config, ds, cfg)
    fmt = _formatter(config)

    body = _render(header, [[fmt(v) for v in row] for row in rows], config.fmt)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)

    plot_path = config.plot_out or (
        f"{config.out}.plot.csv" if config.out else None)
    if plot_path and "upsilon_star" in header:
        plot_body = _render(list(_PLOT_COLUMNS),
                            [[fmt(v) for v in row]
                             for row in _plot_rows(header, rows)], "csv")
        with open(plot_path, "w") as fh:
            fh.write(plot_body)


def _plot_rows(header, rows):
    """The ``_PLOT_COLUMNS`` of each report row, with ``upsilon_star`` blank
    where the unit is not capable."""
    cols = [header.index(c) for c in _PLOT_COLUMNS]
    picked = ([row[c] for c in cols] for row in rows)
    return [[name, theta, upsilon if capable else "", capable]
            for name, theta, upsilon, capable in picked]


def _compute(config: RunConfig, ds: DeaDataset, cfg: UncertaintyConfig):
    """Dispatch on mode; returns (header, rows)."""
    units = range(ds.n_units)
    if config.mode == "nominal":
        results = [solve_nominal(ds, i) for i in units]
        header = (["dmu", "score", "peers"]
                  + [f"slack_in:{v}" for v in ds.input_names]
                  + [f"slack_out:{v}" for v in ds.output_names])
        rows = []
        for res in results:
            rows.append([ds.names[res.dmu], res.theta,
                         ";".join(ds.names[p] for p in res.peers)]
                        + list(res.input_slacks) + list(res.output_slacks))
        return header, rows

    if config.mode == "robust":
        rows = [[ds.names[i], config.sigma,
                 _probe(ds, i, config.sigma, cfg.eps)] for i in units]
        return ["dmu", "sigma", "score"], rows

    if config.mode == "sweep":
        sigmas = _sigma_grid(cfg)
        rows = [[ds.names[i], s, score] for i in units
                for s, score in zip(sigmas,
                                    _robust_scores(ds, i, sigmas, cfg.eps))]
        return ["dmu", "sigma", "score"], rows

    if config.mode == "exact":
        nominal = solve_all(ds)
        facet_set = enumerate_efficient_facets(ds)
        outcomes = [exact_udea(ds, i, nu=cfg.nu, eps=cfg.eps,
                               facet_set=facet_set) for i in units]
        header = ["dmu", "nominal_score", "upsilon_star", "gamma_star",
                  "capable", "facet", "strict"]
        rows = []
        for res, out in zip(nominal, outcomes):
            facet_id = "+".join(ds.names[g]
                                for g in facet_set.generators[out.facet_index])
            rows.append([ds.names[out.dmu], res.theta, out.upsilon, out.gamma,
                         out.capable, facet_id, not out.attainable])
        return header, rows

    # iterative: the search's first probe is sigma = 0, the nominal program
    outcomes = [iterative_udea(ds, i, cfg) for i in units]
    header = ["dmu", "nominal_score", "upsilon_star", "bracket_lo",
              "bracket_hi", "gamma_star", "capable"]
    rows = []
    for out in outcomes:
        upsilon = "" if out.upsilon is None else out.upsilon
        lo, hi = out.bracket if out.bracket else ("", "")
        rows.append([ds.names[out.dmu], out.trace[0][1], upsilon, lo, hi,
                     out.gamma, out.capable])
    return header, rows


def _sigma_grid(cfg: UncertaintyConfig):
    """The grid points below ``nu``, then ``nu``: the sigmas
    ``iterative_udea`` may probe."""
    if not math.isfinite(cfg.nu):
        raise ValueError("sweep mode needs a finite cap nu")
    sigmas = [k * cfg.step for k in range(_grid_index(cfg.nu, cfg.step))]
    return sigmas + [cfg.nu]


def _formatter(config: RunConfig):
    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (float, np.floating)):
            if config.full_precision:
                return repr(float(value))
            # round-off below zero, such as a slack of -4e-16, prints as 0
            text = f"{value:.6f}"
            return "0.000000" if text == "-0.000000" else text
        return str(value)
    return fmt


def _render(header, rows, fmt):
    if fmt == "csv":
        # quoted where a cell holds a comma, quote or line break
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    # one line per row: line breaks print as \n and \r, and a backslash
    # as \\, so that the escapes read back unambiguously
    header = [h.translate(_TEXT_ESCAPES) for h in header]
    rows = [[v.translate(_TEXT_ESCAPES) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[k]) for r in rows)) if rows else len(h)
              for k, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="udea",
        description="Relative efficiency of decision making units under "
                    "exact and box-uncertain data")
    sub = parser.add_subparsers(dest="mode", required=True)
    # the options each mode reads beyond the six every mode takes; any
    # other is a usage error, and one left out takes RunConfig's default
    reads = {"nominal": "", "robust": "--sigma", "sweep": "--nu --step",
             "exact": "--nu --plot-out", "iterative": "--nu --step --plot-out"}
    options = {
        "--sigma": dict(type=float, default=0.0, help="box half-width"),
        "--nu": dict(type=float, default=DEFAULT_CAP,
                     help="uncertainty cap (default %(default)s)"),
        "--step": dict(type=float, default=DEFAULT_STEP,
                       help="sigma grid step (default %(default)s)"),
        "--plot-out": dict(help="plot-data CSV path (default <out>.plot.csv)")}
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--data", required=True, help="dataset CSV path")
        p.add_argument("--scale", action="append", default=[],
                       metavar="VAR=FACTOR",
                       help="per-variable scale factor, repeatable")
        p.add_argument("--preset", choices=["radiotherapy"], default=None)
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=["csv", "text"],
                       default="csv")
        p.add_argument("--full-precision", action="store_true")
        for option in reads[mode].split():
            p.add_argument(option, **options[option])
    return parser


def _parse_scales(pairs):
    scales = {}
    for pair in pairs:
        if "=" not in pair:
            raise DataError(f"--scale expects VAR=FACTOR, got {pair!r}")
        var, _, raw = pair.partition("=")
        try:
            factor = float(raw)
        except ValueError:
            raise DataError(f"--scale factor {raw!r} is not a number")
        if not 0 < factor < math.inf:  # also rejects nan
            raise DataError(f"--scale factor for {var!r} must be positive "
                            f"and finite, got {raw}")
        if var in scales:
            raise DataError(f"--scale gives variable {var!r} twice")
        scales[var] = factor
    return scales


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    data = args.pop("data")
    try:
        config = RunConfig(**args | {"scale": _parse_scales(args["scale"])})
        run(config, ingest_csv(data))
    except SolverFault as exc:
        print(f"error: solver fault: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAULT
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_ERROR if isinstance(exc, SizeLimitError) \
            else EXIT_DATA_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
