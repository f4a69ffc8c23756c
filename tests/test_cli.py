import csv

import numpy as np
import pytest

import udea.cli
import udea.dataset
from conftest import DATA_DIR
from helpers import (CLAMP_X, clamp_dataset, count_lps, emit_csv,
                     sweep_reference)
from udea.cli import (MODES, DataError, RunConfig, _compute, _plot_rows,
                      _sigma_grid, apply_scaling, build_parser, ingest_csv,
                      main)
from udea.dataset import solve_all
from udea.iterative import iterative_udea
from udea._kernels import UNBOUNDED
from udea.robust import UncertaintyConfig

# the options every mode takes besides --data, and those each mode reads
# beyond them, by the RunConfig field they set
COMMON_OPTIONS = {"scale", "preset", "out", "fmt", "full_precision"}
MODE_OPTIONS = {"nominal": set(), "robust": {"sigma"},
                "sweep": {"nu", "step"}, "exact": {"nu", "plot_out"},
                "iterative": {"nu", "step", "plot_out"}}
OPTION_VALUES = {"sigma": "0.5", "nu": "1.0", "step": "0.05",
                 "eps": "1e-9", "plot_out": "p.csv"}


def read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_ingest_example(example1_csv):
    ds = ingest_csv(example1_csv)
    assert ds.names == list("ABCDEF")
    assert ds.input_names == ["x"]
    assert ds.output_names == ["y"]
    assert ds.X.tolist() == [[1, 3, 7, 10, 8, 6]]
    assert ds.Y.tolist() == [[1, 4, 7, 8, 5, 2]]
    assert not ds.env_outputs.any()


def test_ingest_strips_variable_names(tmp_path, capsys):
    # a space after the prefix is not part of the name, so --scale finds it
    path = write_csv(tmp_path / "d.csv", [
        "dmu, in: x ,out:  y", "u1,1,2", "u2,2,1"])
    ds = ingest_csv(path)
    assert (ds.input_names, ds.output_names) == (["x"], ["y"])
    assert main(["nominal", "--data", path, "--scale", "x=2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "dmu,score,peers,slack_in:x,slack_out:y"


def test_ingest_env_columns(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        "dmu,in:a,out:b,env:c", "u1,1,2,3", "u2,2,1,3"])
    ds = ingest_csv(path)
    assert ds.env_outputs.tolist() == [False, True]
    assert ds.output_names == ["b", "c"]


@pytest.mark.parametrize("lines,needle", [
    ([], "empty file"),
    (["dmu"], "name column"),
    (["dmu,x", "u1,1"], "must start with"),
    (["dmu,out:y", "u1,1"], "'in:' column is required"),
    (["dmu,in:x", "u1,1"], "'out:' or 'env:' column required"),
    (["dmu,in:x,out:y", "u1,1"], "row 2 has 2 fields"),
    (["dmu,in:x,out:y", "u1,1,2", "u1,2,3"], "duplicate unit name"),
    (["dmu,in:x,out:y", "u1,one,2"], "unparseable value"),
    (["dmu,in:x,out:y", "u1,-1,2"], "negative or non-finite"),
    (["dmu,in:x,out:y", "u1,nan,2"], "negative or non-finite"),
    (["dmu,in:x,out:y"], "no data rows"),
    (["dmu,in:x,out:y", "u1,0,2", "u2,0,1"], "'in:x' is all zero"),
    (["dmu,in:x,out:y", "u1,1,0", "u2,2,0"], "all zero"),
    (["dmu,in:a,out:a", "u1,1,2"], "duplicate variable names"),
    (["dmu,in:x,out:y", "A,1,2", "A;B,2,3"], "row 3: unit name 'A;B'"),
    (["dmu,in:,out:y", "u1,1,2"], "column 2 header 'in:' names no variable"),
    (["dmu,in:x,env: ", "u1,1,2"], "column 3 header 'env:' names no variable"),
    # rows are numbered as in the file, blank ones and empty fields counted
    (["dmu,in:x,out:y", "A,1,2", "", "B,-2,3"],
     "row 4, column 2: negative or non-finite value -2"),
    (["dmu,in:x,out:y", "A,1,2", ",,", "B,0,3"],
     "row 4: unit 'B' has no positive input"),
])
def test_ingest_rejections(tmp_path, lines, needle):
    path = write_csv(tmp_path / "bad.csv", lines) if lines \
        else str(tmp_path / "bad.csv")
    if not lines:
        (tmp_path / "bad.csv").write_text("")
    with pytest.raises(DataError) as exc:
        ingest_csv(path)
    assert needle in str(exc.value)


def test_emit_round_trip(tmp_path, example1_csv):
    ds = ingest_csv(example1_csv)
    out = tmp_path / "echo.csv"
    emit_csv(ds, out)
    back = ingest_csv(out)
    assert back.names == ds.names
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)
    assert back.env_outputs.tolist() == ds.env_outputs.tolist()


def test_apply_scaling_preset(tmp_path):
    path = write_csv(tmp_path / "d.csv", [
        "dmu,in:risk,out:dose,env:pos", "p1,63,70.3,5", "p2,70,60,5"])
    ds = ingest_csv(path)
    scaled = apply_scaling(ds, RunConfig(mode="nominal",
                                         preset="radiotherapy"))
    assert scaled.X[0, 0] == pytest.approx(90.0)
    assert scaled.Y[0, 0] == pytest.approx(100.0, abs=1e-9)
    # environmental outputs are not rescaled by the preset
    assert scaled.Y[1, 0] == pytest.approx(5.0)


def test_apply_scaling_override(example1_csv):
    ds = ingest_csv(example1_csv)
    scaled = apply_scaling(ds, RunConfig(mode="nominal",
                                         scale={"x": 2.0}))
    assert np.array_equal(scaled.X, ds.X * 2.0)
    with pytest.raises(DataError):
        apply_scaling(ds, RunConfig(mode="nominal", scale={"zz": 2.0}))


def test_main_nominal(tmp_path, example1_csv):
    out = tmp_path / "report.csv"
    code = main(["nominal", "--data", str(example1_csv), "--out", str(out)])
    assert code == 0
    rows = read_report(out)
    assert [r["dmu"] for r in rows] == list("ABCDEF")
    assert float(rows[4]["score"]) == pytest.approx(0.542, abs=1e-3)
    assert rows[4]["peers"] == "B;C"


@pytest.mark.parametrize("mode", ["nominal", "iterative"])
def test_reports_are_quoted_csv(tmp_path, mode):
    # unit and variable names holding a comma, a quote and a line break
    # come back intact, one field per header column
    data = DATA_DIR / "quoted_names.csv"
    names = ingest_csv(data).names
    out = tmp_path / "report.csv"
    assert main([mode, "--data", str(data), "--out", str(out)]) == 0
    files = {}
    for path in tmp_path.iterdir():
        with open(path, newline="") as fh:
            files[path.name] = list(csv.reader(fh))
    assert sorted(files) == (["report.csv"] if mode == "nominal"
                             else ["report.csv", "report.csv.plot.csv"])
    for header, *rows in files.values():
        assert [row[0] for row in rows] == names
        assert all(len(row) == len(header) for row in rows)
    if mode == "nominal":
        header, *rows = files["report.csv"]
        assert header[3:] == ["slack_in:dose, rectum",
                              'slack_out:cover "ptv"', "slack_out:class"]
        assert rows[-1][2] == 'A,1;B "best"'


def test_main_robust(tmp_path, example1_csv):
    out = tmp_path / "report.csv"
    code = main(["robust", "--data", str(example1_csv), "--sigma", "0.5",
                 "--out", str(out), "--full-precision"])
    assert code == 0
    rows = read_report(out)
    assert float(rows[4]["score"]) == pytest.approx(37.0 / 45.0, abs=1e-12)


def test_main_sweep(tmp_path, example1_csv):
    out = tmp_path / "report.csv"
    code = main(["sweep", "--data", str(example1_csv), "--nu", "0.1",
                 "--step", "0.05", "--out", str(out)])
    assert code == 0
    rows = read_report(out)
    # three sigma values per unit
    assert len(rows) == 18
    assert [r["sigma"] for r in rows[:3]] == ["0.000000", "0.050000",
                                              "0.100000"]


def test_main_exact_with_plot(tmp_path, example1_csv):
    out = tmp_path / "report.csv"
    code = main(["exact", "--data", str(example1_csv), "--out", str(out),
                 "--full-precision"])
    assert code == 0
    rows = read_report(out)
    by_name = {r["dmu"]: r for r in rows}
    assert float(by_name["E"]["upsilon_star"]) == pytest.approx(
        11.0 / 14.0, abs=1e-12)
    assert float(by_name["F"]["upsilon_star"]) == pytest.approx(
        17.0 / 14.0, abs=1e-12)
    assert by_name["E"]["facet"] == by_name["F"]["facet"] == "B+C"
    # efficient units on their own facet: 0, not the round-off of the gap
    assert by_name["C"]["upsilon_star"] == by_name["D"]["upsilon_star"] \
        == "0.0"
    assert by_name["E"]["capable"] == "true"
    plot = read_report(str(out) + ".plot.csv")
    assert [r["dmu"] for r in plot] == list("ABCDEF")
    assert float(plot[4]["nominal_score"]) == pytest.approx(0.542, abs=1e-3)


def test_main_iterative(tmp_path, example1_csv):
    out = tmp_path / "report.csv"
    code = main(["iterative", "--data", str(example1_csv),
                 "--out", str(out)])
    assert code == 0
    by_name = {r["dmu"]: r for r in read_report(out)}
    assert float(by_name["E"]["upsilon_star"]) == pytest.approx(0.79)
    assert float(by_name["F"]["upsilon_star"]) == pytest.approx(1.21)
    assert (float(by_name["E"]["bracket_lo"]),
            float(by_name["E"]["bracket_hi"])) == pytest.approx((0.78, 0.79))


def test_main_iterative_incapable(tmp_path, example1_csv):
    out = tmp_path / "report.csv"
    code = main(["iterative", "--data", str(example1_csv), "--nu", "0.5",
                 "--out", str(out)])
    assert code == 0
    by_name = {r["dmu"]: r for r in read_report(out)}
    assert by_name["E"]["capable"] == "false"
    assert by_name["E"]["upsilon_star"] == ""


def test_exit_code_data_error(tmp_path, capsys):
    path = write_csv(tmp_path / "bad.csv", ["dmu,in:x,out:y", "u1,-3,2"])
    assert main(["nominal", "--data", path]) == 2
    assert "row 2" in capsys.readouterr().err
    assert main(["nominal", "--data", str(tmp_path / "missing.csv")]) == 2
    # with both in:a and out:a, --scale a=2 could only ever scale one
    path = write_csv(tmp_path / "dup.csv",
                     ["dmu,in:a,out:a", "u1,1,2", "u2,2,1"])
    capsys.readouterr()
    assert main(["nominal", "--data", path, "--scale", "a=2"]) == 2
    assert "duplicate variable names" in capsys.readouterr().err


def test_exit_code_grid_too_fine(tmp_path, example1_csv):
    path = write_csv(tmp_path / "huge.csv",
                     ["dmu,in:x,out:y", "a,1e300,1", "b,2e300,1"])
    assert main(["iterative", "--data", path, "--nu", "inf"]) == 2
    assert main(["iterative", "--data", path, "--nu", "inf",
                 "--step", "1e-10"]) == 2
    assert main(["sweep", "--data", str(example1_csv), "--nu", "1e300"]) == 2


@pytest.mark.parametrize("mode, option, value", [
    ("exact", "--nu", "nan"), ("iterative", "--nu", "nan"),
    ("sweep", "--step", "nan"), ("robust", "--sigma", "nan"),
    ("iterative", "--step", "inf")])
def test_exit_code_nan_option(example1_csv, capsys, mode, option, value):
    # nan passes a plain "x < 0" check; it must be rejected by name, as
    # must an infinite step
    assert main([mode, "--data", str(example1_csv), option, value]) == 2
    assert f"{option[2:]} must be" in capsys.readouterr().err


def test_each_mode_takes_only_the_options_it_reads():
    pairs = 0
    for mode in MODES:
        args = vars(build_parser().parse_args([mode, "--data", "d.csv"]))
        assert set(args) == ({"mode", "data"} | COMMON_OPTIONS
                             | MODE_OPTIONS[mode])
        pairs += len(args) - 1
    assert pairs == 38


@pytest.mark.parametrize("mode, option", [
    (mode, option) for mode in MODES for option in OPTION_VALUES
    if option not in MODE_OPTIONS[mode]])
def test_unread_option_is_a_usage_error(example1_csv, capsys, mode, option):
    flag = "--" + option.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([mode, "--data", str(example1_csv), flag, OPTION_VALUES[option]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("pairs",
                         ["x=nan", "x=inf", "x=0", "x=-1", "x=2 x=1"])
def test_exit_code_bad_scale(example1_csv, capsys, pairs):
    # a factor that is not positive and finite, or a variable scaled twice
    scales = [arg for pair in pairs.split() for arg in ("--scale", pair)]
    assert main(["nominal", "--data", str(example1_csv)] + scales) == 2
    assert "'x'" in capsys.readouterr().err


def test_exit_code_solver_fault(example1_csv, capsys, monkeypatch):
    monkeypatch.setattr(udea.dataset, "simplex_core",
                        lambda *args, **kwargs: UNBOUNDED)
    assert main(["nominal", "--data", str(example1_csv)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: solver fault: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("data, preset", [
    ("example1.csv", None), ("case_study_s11_p0.csv", "radiotherapy"),
    ("case_study_s3_p4.csv", "radiotherapy")])
def test_nominal_report_has_no_negative_zero(capsys, data, preset):
    # slacks at round-off below zero (F's input slack in example1.csv is
    # -4.4e-16) print as 0 at six decimals
    argv = ["nominal", "--data", str(DATA_DIR / data)]
    assert main(argv + (["--preset", preset] if preset else [])) == 0
    assert "-0.000000" not in capsys.readouterr().out


@pytest.mark.parametrize("nu, step, count", [
    (0.3, 0.1, 4), (0.7, 0.1, 8), (3.6, 0.01, 361), (0.0, 0.1, 1)])
def test_sweep_grid_ends_at_nu(nu, step, count):
    sigmas = _sigma_grid(UncertaintyConfig(nu=nu, step=step))
    assert len(sigmas) == count
    assert all(s <= nu for s in sigmas)
    assert sigmas[-1] == nu


def test_sweep_grid_holds_iterative_probes(table1):
    cfg = UncertaintyConfig(nu=1.0, step=0.3)
    grid = set(_sigma_grid(cfg))
    for dmu in range(table1.n_units):
        assert {s for s, _ in iterative_udea(table1, dmu, cfg).trace} <= grid


def test_exit_code_size_error(tmp_path, capsys):
    lines = ["dmu,in:a,in:b,in:c,out:y,out:z"]
    lines += [f"u{k},1,2,3,4,5" for k in range(3)]
    path = write_csv(tmp_path / "big.csv", lines)
    assert main(["exact", "--data", path]) == 3
    assert "iterative solver" in capsys.readouterr().err


def test_text_format_stdout(example1_csv, capsys):
    assert main(["nominal", "--data", str(example1_csv),
                 "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["dmu", "score"]
    assert len(lines) == 7


def test_text_format_escapes_line_breaks(capsys):
    # unit C's name holds a line break, which prints as \n on C's line
    assert main(["nominal", "--data", str(DATA_DIR / "quoted_names.csv"),
                 "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert [line.split("  ")[0].strip() for line in lines[1:]] == [
        "A,1", 'B "best"', "C\\ntwo lines", "D", "E"]
    # escapes read back: a backslash doubles, a carriage return is \r
    escaped = r"a\\b\r\nc"
    assert udea.cli._render(["dmu"], [["a\\b\r\nc"]], "text") == \
        "dmu".ljust(len(escaped)) + "\n" + escaped + "\n"


def test_preset_end_to_end(tmp_path):
    data = write_csv(tmp_path / "cohort.csv", [
        "dmu,in:risk,out:dose",
        "p1,63,70.3", "p2,70,65", "p3,56,68"])
    out = tmp_path / "report.csv"
    code = main(["iterative", "--data", data, "--preset", "radiotherapy",
                 "--nu", "3.6", "--step", "0.01", "--out", str(out)])
    assert code == 0
    rows = read_report(out)
    assert len(rows) == 3
    ds = apply_scaling(ingest_csv(data),
                       RunConfig(mode="nominal", preset="radiotherapy"))
    for row, res in zip(rows, solve_all(ds)):
        assert float(row["nominal_score"]) == pytest.approx(res.theta,
                                                            abs=1e-6)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(mode="bogus")
    with pytest.raises(ValueError):
        RunConfig(mode="nominal", fmt="json")


def test_robust_scores_floored_own_input(tmp_path):
    # sigma = 3 puts the own inputs of a (1.568) and b (2.956) on the floor
    data = tmp_path / "floor.csv"
    emit_csv(clamp_dataset(), data)
    out = tmp_path / "robust.csv"
    assert main(["robust", "--data", str(data), "--sigma", "3",
                 "--out", str(out)]) == 0
    scores = {row["dmu"]: row["score"] for row in read_report(out)}
    assert scores["a"] == scores["b"] == "1.000000"


def test_sweep_never_below_nominal(tmp_path):
    data = tmp_path / "floor.csv"
    emit_csv(clamp_dataset(), data)
    nominal_out = tmp_path / "nominal.csv"
    sweep_out = tmp_path / "sweep.csv"
    main(["nominal", "--data", str(data), "--out", str(nominal_out),
          "--full-precision"])
    main(["sweep", "--data", str(data), "--nu", "3.5", "--step", "0.5",
          "--out", str(sweep_out), "--full-precision"])
    nominal = {row["dmu"]: float(row["score"])
               for row in read_report(nominal_out)}
    rows = read_report(sweep_out)
    assert len(rows) == 8 * 8  # sigma = 0, 0.5, ..., 3.5 for 8 units
    for row in rows:
        assert float(row["score"]) >= nominal[row["dmu"]] - 1e-9


@pytest.mark.parametrize("fixture, lps", [
    pytest.param("case_study_s11_p0.csv", 76, id="case_study_s11_p0.csv"),
    pytest.param("case_study_s3_p4.csv", 75, id="case_study_s3_p4.csv")])
def test_iterative_solves_each_nominal_program_once(fixture, lps,
                                                    monkeypatch):
    # the nominal_score column is the sigma = 0 probe of each unit's
    # search, bit for bit the score solve_nominal gives, so iterative
    # mode makes one solve per unit fewer than solve_all plus the searches
    config = RunConfig(mode="iterative", preset="radiotherapy")
    ds = apply_scaling(ingest_csv(DATA_DIR / fixture), config)
    cfg = UncertaintyConfig(nu=config.nu, step=config.step, eps=config.eps)
    calls = count_lps(monkeypatch)
    nominal = solve_all(ds)
    for i in range(ds.n_units):
        iterative_udea(ds, i, cfg)
    separate = len(calls)
    calls.clear()
    header, rows = _compute(config, ds, cfg)
    assert len(calls) == separate - ds.n_units == lps
    for row, plot_row, res in zip(rows, _plot_rows(header, rows), nominal):
        assert row[1].hex() == plot_row[1].hex() == res.theta.hex()


@pytest.mark.parametrize("fixture, lps", [
    ("case_study_s11_p0.csv", 59), ("case_study_s3_p4.csv", 62),
    ("example1.csv", 10), ("quoted_names.csv", 9), ("table1_dup.csv", 11)])
def test_exact_lps(fixture, lps, monkeypatch):
    # one nominal solve per unit; one extreme-point LP per distinct unit
    # that no other unit dominates; and a gamma solve only where neither
    # the attaining facet's proof nor the floor rule settles it
    config = RunConfig(mode="exact", preset="radiotherapy"
                       if fixture.startswith("case_study") else None)
    ds = apply_scaling(ingest_csv(DATA_DIR / fixture), config)
    cfg = UncertaintyConfig(nu=config.nu, step=config.step, eps=config.eps)
    calls = count_lps(monkeypatch)
    _compute(config, ds, cfg)
    assert len(calls) == lps < 3 * ds.n_units


@pytest.mark.parametrize("data, nu, step, lps", [
    ("case_study_s11_p0.csv", 3.6, 0.01, 4273),
    ("case_study_s3_p4.csv", 3.6, 0.01, 4294),
    ("example1.csv", 3.6, 0.01, 207),
    # own inputs reach sigma and outputs the zero floor
    ("clamp", 1.5 * max(CLAMP_X), 0.05, 108)])
def test_sweep_matches_a_solve_at_every_sigma(data, nu, step, lps,
                                              monkeypatch):
    # each unit's row is solved only below the first sigma its
    # directional-distance duals prove efficient, and 1 from there on,
    # bit for bit what a solve at every sigma gives
    if data == "clamp":
        ds = clamp_dataset()
    else:
        config = RunConfig(mode="sweep", preset="radiotherapy"
                           if data.startswith("case_study") else None)
        ds = apply_scaling(ingest_csv(DATA_DIR / data), config)
    cfg = UncertaintyConfig(nu=nu, step=step)
    calls = count_lps(monkeypatch)
    header, rows = _compute(RunConfig(mode="sweep"), ds, cfg)
    assert len(calls) == lps
    monkeypatch.undo()
    assert header == ["dmu", "sigma", "score"]
    hexed = [[name, sigma.hex(), score.hex()] for name, sigma, score in rows]
    assert hexed == [[name, sigma.hex(), score.hex()]
                     for name, sigma, score in sweep_reference(ds, cfg)]


@pytest.mark.parametrize("fixture",
                         ["case_study_s11_p0.csv", "case_study_s3_p4.csv"])
def test_exact_agrees_with_iterative_on_case_study(tmp_path, fixture):
    # volume_class is an env column: the box moves neither it nor its
    # facet coefficient, and no clamp binds on these plans, so at the
    # defaults (nu = 3.6, t = 0.01) exact lies in the iterative bracket
    # (sigma - t, sigma] and within half a step of the rounded value
    reports = {}
    for mode in ("exact", "iterative"):
        out = tmp_path / f"{mode}.csv"
        assert main([mode, "--data", str(DATA_DIR / fixture),
                     "--preset", "radiotherapy", "--out", str(out),
                     "--full-precision"]) == 0
        reports[mode] = read_report(out)
    step = RunConfig(mode="iterative").step
    capable = 0
    for exact, walk in zip(reports["exact"], reports["iterative"]):
        assert exact["dmu"] == walk["dmu"]
        assert exact["capable"] == walk["capable"]
        if exact["capable"] == "true":
            capable += 1
            upsilon = float(exact["upsilon_star"])
            sigma = float(walk["bracket_hi"])
            assert sigma - step < upsilon <= sigma
            assert abs(upsilon
                       - float(walk["upsilon_star"])) <= step / 2 + 1e-12
    assert (len(reports["exact"]), capable) == (40, 38)


def test_exact_sees_facets_through_a_copied_unit(tmp_path):
    # Table 1 with B twice: the copy must not hide the facets through B
    reports = {}
    for mode in ("exact", "iterative"):
        out = tmp_path / f"{mode}.csv"
        assert main([mode, "--data", str(DATA_DIR / "table1_dup.csv"),
                     "--out", str(out), "--full-precision"]) == 0
        reports[mode] = read_report(out)
    by_name = {r["dmu"]: r for r in reports["exact"]}
    assert float(by_name["E"]["upsilon_star"]) == pytest.approx(
        11.0 / 14.0, abs=1e-12)
    step = RunConfig(mode="iterative").step
    for exact, walk in zip(reports["exact"], reports["iterative"]):
        assert exact["dmu"] == walk["dmu"]
        assert exact["capable"] == walk["capable"] == "true"
        assert abs(float(exact["upsilon_star"])
                   - float(walk["upsilon_star"])) <= step


# the committed reports under tests/data/expected, in the default
# six-decimal format, which last-bit differences between BLAS builds do
# not reach: a change that alters a report on purpose updates its file.
# quoted_names also holds a strict output-axis facet (unit D) and an
# exact upsilon one rounding short of 1 (unit E)
EXPECTED_REPORTS = {"nominal": [], "exact": [], "iterative": [],
                    "robust_0.5": ["--sigma", "0.5"],
                    "robust_3.6": ["--sigma", "3.6"],
                    "sweep": ["--nu", "1.0", "--step", "0.05"]}


@pytest.mark.parametrize("report", sorted(EXPECTED_REPORTS))
@pytest.mark.parametrize("fixture", ["example1", "table1_dup",
                                     "case_study_s11_p0", "case_study_s3_p4",
                                     "quoted_names"])
def test_report_matches_committed(fixture, report, capsys):
    argv = [report.split("_")[0], "--data", str(DATA_DIR / f"{fixture}.csv")]
    if fixture.startswith("case_study"):
        argv += ["--preset", "radiotherapy"]
    assert main(argv + EXPECTED_REPORTS[report]) == 0
    expected = DATA_DIR / "expected" / f"{fixture}.{report}.csv"
    assert capsys.readouterr().out.encode() == expected.read_bytes()
