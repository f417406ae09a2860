import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ivstrat import (
    DatasetSchema,
    EmptyBin,
    EmptyFile,
    MalformedRow,
    MissingColumn,
    ObservedSample,
    ReportRow,
    analyze,
    cli_main,
    default_grid,
    load_csv,
    load_science_csv,
    read_metrics_csv,
    run_grid,
    run_scenario,
    save_csv,
    stratum_report,
    write_metrics_csv,
)
from ivstrat import ConcentrationConfig, ScenarioConfig, io_cli
from ivstrat.data_model import NoCompliersInArm
from ivstrat.io_cli import METRICS_COLUMNS, report_csv, report_json, stratum_csv
from helpers import ERROR_CLASSES, sample_a, sample_two_strata

GOLDEN = Path(__file__).resolve().parent / "golden"

DATA_A = "z,d,y\n1,1,3.0\n1,0,1.0\n0,0,2.0\n0,0,0.0\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- schema


def test_schema_defaults_normalize_binning():
    s = DatasetSchema()
    assert s.strata_cols == ("stratum",)
    assert s.binning == {"stratum": ("as-is", None)}


def test_schema_accepts_both_quantile_spellings():
    a = DatasetSchema(strata_cols=("age",), binning={"age": {"quantile": 4}})
    b = DatasetSchema(strata_cols=("age",), binning={"age": ("quantile", 4)})
    assert a.binning == b.binning == {"age": ("quantile", 4)}


@pytest.mark.parametrize(
    "kw",
    [
        dict(z_col="y"),
        dict(strata_cols=("z",)),
        dict(missing_policy="drop"),
        dict(binning={"other": "as-is"}),
        dict(strata_cols=("age",), binning={"age": {"quantile": 1}}),
        dict(strata_cols=("age",), binning={"age": {"quantile": 2.5}}),
        dict(strata_cols=("age",), binning={"age": "histogram"}),
        dict(strata_cols="region"),  # one name, not a list of its letters
    ],
)
def test_schema_rejects(kw):
    with pytest.raises(ValueError):
        DatasetSchema(**kw)


def test_schema_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        DatasetSchema.from_json({"z_col": "assign", "extra": 1})
    s = DatasetSchema.from_json({"strata_cols": ["site"], "z_col": "assign"})
    assert s.z_col == "assign" and s.strata_cols == ("site",)


def test_readme_schema_example_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    s = DatasetSchema.from_json(json.loads(blocks[0]))
    assert s.binning["age"] == ("quantile", 4)


# ---------------------------------------------------------------- load_csv


def test_load_csv_single_column_keeps_raw_labels(tmp_path):
    path = write(
        tmp_path,
        "d.csv",
        "z,d,y,stratum\n1,1,3.0,east\n1,0,1.0,east\n0,0,2.0,west\n0,1,0.0,west\n",
    )
    sample = load_csv(path, DatasetSchema())
    assert sample.stratum_labels == ("east", "west")
    assert list(sample.z) == [1, 1, 0, 0]
    assert list(sample.y) == [3.0, 1.0, 2.0, 0.0]


def test_load_csv_no_strata_cols_single_group(tmp_path):
    path = write(tmp_path, "d.csv", DATA_A)
    sample = load_csv(path, DatasetSchema(strata_cols=()))
    assert sample.stratum_labels == ("all",)


def test_load_csv_missing_covariate_routes_to_own_stratum(tmp_path):
    path = write(
        tmp_path,
        "d.csv",
        "z,d,y,stratum\n1,1,3.0,a\n1,0,1.0,\n0,0,2.0,a\n0,0,0.0,\n",
    )
    sample = load_csv(path, DatasetSchema())
    assert set(sample.stratum_labels) == {"a", "missing"}


def test_missing_policy_error_rejects_missing_covariate(tmp_path, capsys):
    path = write(
        tmp_path,
        "d.csv",
        "z,d,y,site,sex\n1,1,3.0,1,m\n1,0,1.0,1, \n0,0,2.0,,f\n0,0,0.0,1,f\n",
    )
    schema = DatasetSchema(strata_cols=("site", "sex"), missing_policy="error")
    with pytest.raises(MalformedRow) as exc:
        load_csv(path, schema)
    assert exc.value.line == 3 and "sex" in exc.value.reason
    schema_path = write(
        tmp_path, "s.json", '{"strata_cols": ["site", "sex"], "missing_policy": "error"}'
    )
    assert cli_main(["analyze", "--data", path, "--schema", schema_path]) == 1
    assert "line 3" in capsys.readouterr().err
    complete = write(tmp_path, "ok.csv", "z,d,y,site\n1,1,3.0,a\n1,0,1.0,a\n0,0,2.0,a\n0,0,0.0,a\n")
    assert load_csv(complete, DatasetSchema(strata_cols=("site",), missing_policy="error")).n == 4


def test_load_csv_compound_labels(tmp_path):
    path = write(
        tmp_path,
        "d.csv",
        "z,d,y,site,sex\n1,1,3.0,1,m\n1,0,1.0,1,m\n0,0,2.0,1,f\n0,0,0.0,1,f\n",
    )
    sample = load_csv(path, DatasetSchema(strata_cols=("site", "sex")))
    assert sample.stratum_labels == ("site=1|sex=m", "site=1|sex=f")


def test_load_csv_reports_physical_line_of_bad_outcome(tmp_path):
    path = write(
        tmp_path, "d.csv", "z,d,y\n1,1,3.0\n1,0,1.0\n0,0,NA\n0,0,0.0\n"
    )
    with pytest.raises(MalformedRow) as exc:
        load_csv(path, DatasetSchema(strata_cols=()))
    assert exc.value.line == 4
    assert "y" in exc.value.reason


@pytest.mark.parametrize(
    "row,why",
    [
        ("2,0,1.0", "z"),
        ("1,,1.0", "d"),
        ("1,0,inf", "y"),
        ("1,0,1.0,extra", "fields"),
        ("1,0", "fields"),
    ],
)
def test_load_csv_rejects_malformed_rows(tmp_path, row, why):
    path = write(tmp_path, "d.csv", f"z,d,y\n1,1,3.0\n{row}\n")
    with pytest.raises(MalformedRow) as exc:
        load_csv(path, DatasetSchema(strata_cols=()))
    assert exc.value.line == 3
    assert why in exc.value.reason


def test_load_csv_missing_column(tmp_path):
    path = write(tmp_path, "d.csv", "z,d\n1,1\n")
    with pytest.raises(MissingColumn) as exc:
        load_csv(path, DatasetSchema(strata_cols=()))
    assert exc.value.name == "y"


def test_load_csv_empty_inputs(tmp_path):
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, "e1.csv", ""), DatasetSchema())
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, "e2.csv", "z,d,y\n"), DatasetSchema(strata_cols=()))


def test_quantile_binning_even_split(tmp_path):
    rows = "".join(f"{z},0,1.0,{x}\n" for z, x in zip([1, 0] * 4, range(8)))
    path = write(tmp_path, "d.csv", "z,d,y,x\n" + rows)
    schema = DatasetSchema(strata_cols=("x",), binning={"x": {"quantile": 4}})
    sample = load_csv(path, schema)
    assert sample.stratum_labels == ("q1", "q2", "q3", "q4")
    assert [int(np.sum(sample.strata == g)) for g in range(4)] == [2, 2, 2, 2]


def test_quantile_binning_missing_and_bad_values(tmp_path):
    path = write(
        tmp_path,
        "d.csv",
        "z,d,y,x\n1,0,1.0,5\n0,0,1.0,1\n1,0,1.0,\n0,0,1.0,9\n1,0,1.0,3\n0,0,1.0,7\n",
    )
    schema = DatasetSchema(strata_cols=("x",), binning={"x": {"quantile": 2}})
    sample = load_csv(path, schema)
    assert set(sample.stratum_labels) == {"q1", "q2", "missing"}
    bad = write(tmp_path, "bad.csv", "z,d,y,x\n1,0,1.0,low\n0,0,1.0,2\n")
    with pytest.raises(MalformedRow):
        load_csv(bad, schema)


def test_quantile_binning_empty_bin(tmp_path):
    rows = "".join(f"{z},0,1.0,5\n" for z in [1, 0, 1, 0, 1, 0])
    path = write(tmp_path, "d.csv", "z,d,y,x\n" + rows)
    schema = DatasetSchema(strata_cols=("x",), binning={"x": {"quantile": 2}})
    with pytest.raises(EmptyBin):
        load_csv(path, schema)


def test_save_then_load_round_trip(tmp_path):
    sample = sample_two_strata()
    buf = io.StringIO()
    save_csv(sample, buf)
    path = write(tmp_path, "rt.csv", buf.getvalue())
    back = load_csv(path, DatasetSchema())
    assert np.array_equal(back.z, sample.z)
    assert np.array_equal(back.d, sample.d)
    assert np.array_equal(back.y, sample.y)
    assert np.array_equal(back.strata, sample.strata)
    assert back.stratum_labels == sample.stratum_labels


def test_load_science_csv(tmp_path):
    text = "y0,y1,d0,d1,stratum\n" + "1.0,1.5,0,1,a\n" * 3 + "0.0,0.0,0,0,b\n" * 3
    t = load_science_csv(write(tmp_path, "s.csv", text))
    assert t.n == 6 and t.one_sided
    assert t.pi_c == 0.5
    assert t.stratum_labels == ("a", "b")
    with pytest.raises(MissingColumn):
        load_science_csv(write(tmp_path, "s2.csv", "y0,y1,d0\n1,1,0\n"))


# ---------------------------------------------------------------- analyze


def test_analyze_unstrat_baseline_is_exactly_100():
    table = analyze(sample_a(), ("UNSTRAT",))
    row = table.rows[0]
    assert row.pct_se == 100.0
    assert row.estimate == 2.0
    assert row.n == 4
    assert 0.0 <= row.p_value <= 1.0


def test_analyze_failed_estimator_leaves_empty_cells():
    # both strata fail the first-stage F screen on this sample
    table = analyze(sample_two_strata(), ("IV_W", "DSF"))
    by = {r.method: r for r in table.rows}
    assert by["IV_W"].estimate == 2.0
    assert by["DSF"] == ReportRow("DSF", None, None, None, None, None, None, None)


def test_analyze_delta_baseline():
    table = analyze(sample_a(), ("UNSTRAT", "IV_A"), se="delta")
    by = {r.method: r for r in table.rows}
    assert by["UNSTRAT"].pct_se == 100.0
    assert by["IV_A"].pct_se == pytest.approx(
        100.0 * by["IV_A"].se_delta / by["UNSTRAT"].se_delta
    )


def test_analyze_rejects_bad_arguments():
    with pytest.raises(ValueError):
        analyze(sample_a(), ("UNSTRAT",), se="bogus")
    with pytest.raises(ValueError):
        analyze(sample_a(), ("UNSTRAT", "ORACLE"))


def test_analyze_single_stratum_all_methods_agree():
    # perfect uptake keeps the one stratum through every screen (F = inf)
    sample = ObservedSample.from_arrays(
        z=[1, 1, 0, 0], d=[1, 1, 0, 0], y=[3.0, 1.0, 2.0, 0.0]
    )
    table = analyze(
        sample, ("UNSTRAT", "IV_W", "IV_A", "DSS", "DSF", "PWIV", "TSLS_DUMMY")
    )
    by = {r.method: r for r in table.rows}
    for tag in ("UNSTRAT", "IV_W", "IV_A", "DSS", "DSF", "PWIV"):
        assert by[tag].estimate == 1.0
    assert by["TSLS_DUMMY"].estimate == pytest.approx(1.0, rel=1e-9)


def test_stratum_report_zero_compliance_stratum():
    rows = stratum_report(sample_two_strata())
    by = {r.stratum: r for r in rows}
    assert by["x"].pi_c_hat == 0.5
    assert by["x"].cace == 2.0
    assert by["w"].pi_c_hat == 0.0
    assert by["w"].cace is None and by["w"].se_bloom is None
    text = stratum_csv(rows)
    assert "w,4,0,undefined," in text


def test_stratum_report_one_unit_arm_has_estimate_but_no_se():
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 0],
        d=[1, 0, 0, 0, 1, 0],
        y=[3.0, 1.0, 2.0, 0.0, 5.0, 1.0],
        strata=["a", "a", "a", "a", "b", "b"],
    )
    a, b = stratum_report(s)
    assert (a.cace, a.se_bloom) == (2.0, math.sqrt(2.0) / 0.5)
    assert (b.n, b.pi_c_hat, b.cace, b.se_bloom) == (2, 1.0, 4.0, None)


# ---------------------------------------------------------------- rendering


def test_report_csv_exact_bytes():
    table = analyze(sample_a(), ("UNSTRAT",))
    expected = (
        "method,pi_c_hat,estimate,se_bloom,pct_se,n,p_value\n"
        "UNSTRAT,0.5,2,2.828,100,4,0.4795\n"
    )
    assert report_csv(table) == expected


def test_report_csv_both_se_columns():
    table = analyze(sample_a(), ("UNSTRAT",), se="both")
    header = report_csv(table).splitlines()[0]
    assert header == "method,pi_c_hat,estimate,se_bloom,se_delta,pct_se,n,p_value"


def test_report_json_round_trips_and_nulls():
    table = analyze(sample_two_strata(), ("UNSTRAT", "DSF"))
    obj = json.loads(report_json(table, stratum_report(sample_two_strata())))
    methods = {m["method"]: m for m in obj["methods"]}
    assert methods["DSF"]["estimate"] is None
    assert methods["UNSTRAT"]["pct_se"] == 100.0
    strata = {s["stratum"]: s for s in obj["strata"]}
    assert strata["w"]["cace"] is None


# a field over csv.field_size_limit(), which csv.reader refuses, and its reason
HUGE = "w" * (csv.field_size_limit() + 1)
REFUSED = f"field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("analyze", f"z,d,y,stratum\n1,0,1,a\n1,0,1,{HUGE}\n0,1,2,b\n", 3),
        ("theory", f"y0,y1,d0,d1,stratum\n1,2,0,1,{HUGE}\n0.5,1,0,0,b\n", 2),
        ("theory", f"y0,y1,d0,d1,{HUGE}\n1,2,0,1,a\n", 1),  # the stratum column's peek
    ],
    ids=["load_csv", "load_science_csv", "load_science_csv header"],
)
def test_a_row_csv_refuses_is_a_malformed_row_on_its_line(tmp_path, capsys, command, text, line):
    """A row that csv.reader refuses raises MalformedRow with its line and
    csv's reason, and the CLI prints it as an error line and exits 1."""
    path = write(tmp_path, "in.csv", text)
    with pytest.raises(MalformedRow) as exc:
        if command == "analyze":
            load_csv(path, DatasetSchema())
        else:
            load_science_csv(path)
    assert (exc.value.line, exc.value.reason) == (line, REFUSED)
    flag = "--data" if command == "analyze" else "--science-table"
    assert cli_main([command, flag, path]) == 1
    assert capsys.readouterr().err == f"error: line {line}: {REFUSED}\n"


# ---------------------------------------------------------------- metrics csv


def test_metrics_csv_round_trip_is_exact():
    m = run_scenario(ScenarioConfig(n=40, target_pi_c=0.3, replications=8, seed=2))
    buf = io.StringIO()
    write_metrics_csv([m], buf)
    buf.seek(0)
    rows = read_metrics_csv(buf)
    assert len(rows) == len(m.rows)
    for parsed, row in zip(rows, m.rows):
        assert parsed["scenario_id"] == m.scenario_id
        assert parsed["seed"] == m.seed
        for field in ("bias", "true_se", "cal_bloom", "drop_rate", "fail_rate"):
            v = getattr(row, field)
            if math.isnan(v):
                assert math.isnan(parsed[field])
            else:
                assert parsed[field] == v


def test_read_metrics_csv_rejects_other_headers():
    with pytest.raises(MalformedRow) as exc:
        read_metrics_csv(io.StringIO("a,b\n1,2\n"))
    assert exc.value.line == 1
    assert str(exc.value) == f"line 1: expected header {list(METRICS_COLUMNS)}, got ['a', 'b']"
    with pytest.raises(MalformedRow, match=r"got \['scenario_id',"):  # one column short
        read_metrics_csv(io.StringIO(",".join(METRICS_COLUMNS[:-1]) + "\n"))
    with pytest.raises(EmptyFile):
        read_metrics_csv(io.StringIO(""))


_BIAS = METRICS_COLUMNS.index("bias")
_FLAG = METRICS_COLUMNS.index("predicts_c")


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda cells: cells[:-1], "wrong number of fields"),
        (lambda cells: cells + ["1.0"], "wrong number of fields"),
        (lambda cells: cells[:_BIAS] + ["abc"] + cells[_BIAS + 1:], "bias='abc' is not a float"),
        (lambda cells: cells[:_BIAS] + [HUGE] + cells[_BIAS + 1:], REFUSED),
        (lambda cells: cells[:_FLAG] + ["2"] + cells[_FLAG + 1:], "predicts_c='2' is not a flag"),
    ],
    ids=["short row", "extra cell", "cell not a number", "cell csv refuses", "flag not 0 or 1"],
)
def test_read_metrics_csv_refuses_a_malformed_row_on_its_line(edit, reason):
    """A row a cell short or long, with a cell its column does not parse
    (a flag other than 0 or 1 among them), or that csv refuses, raises
    MalformedRow with its line, as the dataset readers do."""
    buf = io.StringIO()
    config = ScenarioConfig(n=40, target_pi_c=0.3, replications=4, estimators=("UNSTRAT", "IV_A"))
    write_metrics_csv([run_scenario(config)], buf)
    header, first, second = buf.getvalue().splitlines()
    bad = ",".join(edit(second.split(",")))
    with pytest.raises(MalformedRow) as exc:
        read_metrics_csv(io.StringIO("\n".join([header, first, bad]) + "\n"))
    assert (exc.value.line, exc.value.reason) == (3, reason)


# ---------------------------------------------------------------- cli


def test_cli_analyze_csv_output(tmp_path, capsys):
    path = write(tmp_path, "d.csv", DATA_A)
    schema = write(tmp_path, "s.json", '{"strata_cols": []}')
    assert cli_main(["analyze", "--data", path, "--schema", schema]) == 0
    out = capsys.readouterr().out
    assert out.startswith("method,pi_c_hat,estimate,se_bloom,pct_se,n,p_value\n")
    assert "UNSTRAT,0.5,2,2.828,100,4,0.4795" in out


def test_cli_analyze_by_stratum_json(tmp_path, capsys):
    path = write(
        tmp_path,
        "d.csv",
        "z,d,y,stratum\n1,1,3.0,a\n1,0,1.0,a\n0,0,2.0,a\n0,0,0.0,a\n",
    )
    code = cli_main(
        ["analyze", "--data", path, "--out", "json", "--by-stratum"]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert {m["method"] for m in obj["methods"]} >= {"UNSTRAT", "IV_W"}
    assert obj["strata"][0]["stratum"] == "a"


def test_cli_analyze_by_stratum_csv_quotes_labels(tmp_path, capsys):
    labels = ["north, upper", 'say "hi"']
    lines = ["z,d,y,stratum"]
    for label in labels:
        quoted = '"' + label.replace('"', '""') + '"'
        lines += [f"{z},{d},{y},{quoted}" for z, d, y in ((1, 1, 3.0), (1, 0, 1.0), (0, 0, 2.0),
                                                          (0, 0, 0.0))]
    path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
    assert cli_main(["analyze", "--data", path, "--by-stratum"]) == 0
    strata_section = capsys.readouterr().out.split("\n\n")[1]
    header, *rows = csv.reader(io.StringIO(strata_section))
    assert header == ["stratum", "n", "pi_c_hat", "cace", "se_bloom"]
    assert [len(r) for r in rows] == [5, 5]
    assert [r[0] for r in rows] == labels


def test_cli_analyze_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    assert cli_main(["analyze", "--data", missing]) == 1
    bad = write(tmp_path, "bad.csv", "z,d,y\n1,1,NA\n")
    assert cli_main(["analyze", "--data", bad, "--schema", write(
        tmp_path, "s.json", '{"strata_cols": []}'
    )]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    path = write(tmp_path, "ok.csv", DATA_A)
    assert cli_main(["analyze", "--data", path, "--estimators", "NOPE"]) == 1


def test_cli_analyze_invalid_sample_is_estimation_error(tmp_path):
    # stratum b has no control units, so validation fails after parsing
    path = write(
        tmp_path,
        "d.csv",
        "z,d,y,stratum\n1,1,3.0,a\n1,0,1.0,a\n0,0,2.0,a\n0,0,0.0,a\n1,0,1.0,b\n",
    )
    assert cli_main(["analyze", "--data", path]) == 2


def test_cli_simulate_to_file(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.json",
        '{"n": 40, "target_pi_c": 0.3, "replications": 5, "seed": 3}',
    )
    out = str(tmp_path / "metrics.csv")
    assert cli_main(["simulate", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        rows = read_metrics_csv(fh)
    assert rows and rows[0]["scenario_id"].startswith("n40_")


def test_cli_simulate_array_config_and_concentration(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.json",
        '[{"n": 40, "target_pi_c": 0.3, "replications": 3, "seed": 1},'
        ' {"r": 0.5, "n": 40, "replications": 3, "seed": 2}]',
    )
    out = str(tmp_path / "metrics.csv")
    assert cli_main(["simulate", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        ids = {row["scenario_id"] for row in read_metrics_csv(fh)}
    assert ids == {"n40_pi0.3_pc0_py0_nt0_ht0", "r0.5_P0.15_n40"}


def test_cli_simulate_threads_reproduce_bytes(tmp_path):
    cfg = write(
        tmp_path,
        "cfg.json",
        '{"n": 60, "target_pi_c": 0.3, "replications": 12, "seed": 4}',
    )
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli_main(["simulate", "--config", cfg, "--out", a]) == 0
    assert cli_main(["simulate", "--config", cfg, "--out", b, "--threads", "3"]) == 0
    assert Path(a).read_text() == Path(b).read_text()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "CONFIG"],
        ["sweep-r", "--r", "0.5", "--n", "40", "--replications", "2"],
        ["random-strata", "--k", "2", "--n", "24", "--replications", "2"],
        ["grid", "--replications", "1"],
    ],
)
def test_cli_rejects_threads_below_one(tmp_path, argv, threads):
    cfg = write(tmp_path, "cfg.json", '{"n": 40, "target_pi_c": 0.3, "replications": 2}')
    out = tmp_path / "metrics.csv"
    argv = [cfg if a == "CONFIG" else a for a in argv]
    assert cli_main([*argv, "--threads", threads, "--out", str(out)]) == 1
    assert not out.exists()


def test_cli_simulate_error_codes(tmp_path, capsys):
    unknown = write(tmp_path, "u.json", '{"n": 40, "bogus": 1}')
    assert cli_main(["simulate", "--config", unknown]) == 1
    infeasible = write(
        tmp_path, "i.json", '{"r": 0.0, "target_p": 0.5, "n": 40, "replications": 2}'
    )
    assert cli_main(["simulate", "--config", infeasible]) == 2
    assert "error: Infeasible: target_p=0.5 with r=0.0 needs" in capsys.readouterr().err


def test_cli_simulate_refuses_infeasible_scenario_compliance(tmp_path, capsys):
    cfg = write(
        tmp_path, "cfg.json",
        '{"n": 40, "replications": 2, "target_pi_c": 0.5, "predicts_compliance": true}',
    )
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "error: Infeasible: target_pi_c=0.5 needs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_cli_exit_code_follows_the_error_class(monkeypatch, capsys, cls):
    args = {MalformedRow: (3, "bad"), MissingColumn: ("y",), NoCompliersInArm: (1,)}
    exc = cls(*args.get(cls, ()))

    def fail(*_):
        raise exc

    monkeypatch.setattr(io_cli, "load_csv", fail)
    code = cli_main(["analyze", "--data", "any.csv"])
    err = capsys.readouterr().err
    if issubclass(cls, ValueError):
        assert (code, err) == (1, f"error: {exc}\n")
    else:
        assert (code, err) == (2, f"error: {cls.__name__}: {exc}\n")


def test_cli_refuses_a_fractional_treated_count_alike(tmp_path, capsys):
    argv = ["theory", "--science-table", str(GOLDEN / "theory_one_sided.csv"), "--p", "0.3"]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: p*N = 4.8 is not a whole number of treated units\n"
    cfg = write(tmp_path, "cfg.json", '{"n": 41, "target_pi_c": 0.3, "replications": 2}')
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: p*N = 20.5 is not a whole number of treated units\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ('{"r": 0.5, "weights": 5}', "weights must be a list of finite numbers, got 5"),
        ('{"r": 0.5, "weights": [0.5, "0.5"]}', "weights must be a list of finite numbers"),
        ('{"r": 0.5, "weights": [NaN, 1.0]}', "weights must be a list of finite numbers"),
        ('{"r": "0.5"}', "r must be a finite number, got '0.5'"),
        ('{"r": 0.5, "het_tau": 1}', "unknown ConcentrationConfig keys: ['het_tau']"),
        ('{"target_pi_c": "0.3"}', "target_pi_c must be a finite number, got '0.3'"),
        ('{"target_pi_c": 0.3, "tau": "x"}', "tau must be a finite number, got 'x'"),
        ('{"target_pi_c": 0.3, "tau": NaN}', "tau must be a finite number, got nan"),
        ('{"target_pi_c": 0.3, "never_taker_shift": -Infinity}',
         "never_taker_shift must be a finite number, got -inf"),
        ('{"target_pi_c": 0.3, "predicts_compliance": 1}',
         "predicts_compliance must be true or false, got 1"),
        ('{"target_pi_c": 0.3, "estimators": "IV_W"}',
         "estimators must be a list of strings, got 'IV_W'"),
        ('{"target_pi_c": 0.3, "estimators": []}',
         "estimators must be a non-empty list of tags, got ()"),
        ('{"target_pi_c": 0.3, "estimators": ["IV_W", "DSS", "IV_W"]}',
         "estimators repeat a tag: ['IV_W', 'DSS', 'IV_W']"),
        ('{"target_pi_c": 0.3, "estimators": ["IV_W", "BOGUS"]}',
         "unknown estimator tags: ['BOGUS']"),
        ("[5]", "config JSON must be an object or a non-empty array of objects"),
    ],
    ids=["weights", "weight", "weight-nan", "r", "unknown", "pi_c", "tau", "tau-nan", "shift-inf",
         "bool", "tags-str", "tags-empty", "tags-repeated", "tags-unknown", "array"],
)
def test_cli_simulate_refuses_a_value_of_the_wrong_type(tmp_path, capsys, config, message):
    obj = json.loads(config)
    if isinstance(obj, dict):
        obj = {"n": 40, "replications": 2, **obj}
    cfg = write(tmp_path, "cfg.json", json.dumps(obj))
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "schema, message",
    [
        ('{"strata_cols": 5}', "strata_cols must be a list of strings, got 5"),
        ('{"strata_cols": "site"}', "strata_cols must be a list of strings, got 'site'"),
        ('{"z_col": 1}', "z_col must be a string, got 1"),
        ('{"binning": ["quantile", 4]}', "binning must be an object, got ['quantile', 4]"),
        ('["site"]', "schema JSON must be an object, got ['site']"),
    ],
    ids=["strata_cols", "strata_cols-str", "z_col", "binning", "array"],
)
def test_cli_analyze_refuses_a_schema_value_of_the_wrong_type(tmp_path, capsys, schema, message):
    path = write(tmp_path, "schema.json", schema)
    argv = ["analyze", "--data", str(GOLDEN / "gotv_like.csv"), "--schema", path]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "tags, message",
    [
        ("", "estimators must be a non-empty list of tags, got ()"),
        (" , ", "estimators must be a non-empty list of tags, got ()"),
        ("IV_W,UNSTRAT,IV_W", "estimators repeat a tag: ['IV_W', 'UNSTRAT', 'IV_W']"),
    ],
    ids=["empty", "blank", "repeated"],
)
def test_cli_analyze_refuses_an_empty_or_repeated_estimator_list(capsys, tags, message):
    data, schema = GOLDEN / "gotv_like.csv", GOLDEN / "gotv_like_schema.json"
    argv = ["analyze", "--data", str(data), "--schema", str(schema), "--estimators", tags]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_estimator_lists_are_refused_alike_by_analyze_and_configs():
    for tags, message in [
        ((), r"^estimators must be a non-empty list of tags, got \(\)$"),
        ("IV_W", r"^estimators must be a non-empty list of tags, got 'IV_W'$"),
        (("IV_W", "IV_W"), r"^estimators repeat a tag: \['IV_W', 'IV_W'\]$"),
    ]:
        with pytest.raises(ValueError, match=message):
            analyze(sample_a(), tags)
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(n=40, replications=2, estimators=tags)
        with pytest.raises(ValueError, match=message):
            ConcentrationConfig(n=40, replications=2, estimators=tags)


@pytest.mark.parametrize("seed", ["-1", "1.5", "true"])
@pytest.mark.parametrize(
    "config",
    ['"n": 40, "target_pi_c": 0.3', '"r": 0.5, "n": 40'],
    ids=["scenario", "concentration"],
)
def test_cli_simulate_refuses_a_bad_seed(tmp_path, capsys, config, seed):
    cfg = write(tmp_path, "cfg.json", f'{{{config}, "replications": 2, "seed": {seed}}}')
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ('"n": 40.0, "target_pi_c": 0.3, "replications": 2', "n"),
        ('"n": 40, "target_pi_c": 0.3, "replications": 2.5', "replications"),
        ('"n": 40, "target_pi_c": 0.3, "replications": 2, "num_strata": 2.5', "num_strata"),
        ('"n": 40, "target_pi_c": 0.3, "replications": 2, "random_strata_k": 2.5',
         "random_strata_k"),
        ('"r": 0.5, "n": 40.0, "replications": 2', "n"),
        ('"r": 0.5, "n": 40, "replications": true', "replications"),
    ],
)
def test_cli_simulate_refuses_a_count_not_an_integer(tmp_path, capsys, config, field):
    cfg = write(tmp_path, "cfg.json", f"{{{config}}}")
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_refuses_random_strata_past_int64_labels(tmp_path, capsys):
    """A config past 2**63 random strata is refused before any config runs,
    and random-strata's --k 1e19 alike."""
    base = '"n": 40, "target_pi_c": 0.3, "replications": 2'
    cfg = write(tmp_path, "cfg.json", f'[{{{base}}}, {{{base}, "random_strata_k": {10**19}}}]')
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "random_strata_k must be at most 2**63" in capsys.readouterr().err
    assert not out.exists()
    argv = ["random-strata", "--k", "1e19", "--n", "40", "--replications", "2", "--out", str(out)]
    assert cli_main(argv) == 1
    assert "random_strata_k must be at most 2**63" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_refuses_an_outcome_scale_that_can_overflow(tmp_path, capsys):
    """The config that ran with overflow warnings exits 1, naming tau, and
    writes no output file."""
    cfg = write(tmp_path, "cfg.json",
                '{"n": 40, "replications": 20, "tau": 1.7e308, "target_pi_c": 0.5}')
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "tau=1.7e+308" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_refuses_an_outcome_pattern_over_one_stratum(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", '{"num_strata": 1, "predicts_outcome": true}')
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "predicts_outcome" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_r(tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = cli_main(
        ["sweep-r", "--r", "0.5,1", "--n", "40", "--replications", "3", "--out", out]
    )
    assert code == 0
    with open(out) as fh:
        ids = {row["scenario_id"] for row in read_metrics_csv(fh)}
    assert ids == {"r0.5_P0.15_n40", "r1_P0.15_n40"}
    assert cli_main(["sweep-r", "--r", "0.5;1", "--out", out]) == 1


def test_cli_random_strata(tmp_path):
    out = str(tmp_path / "rk.csv")
    code = cli_main(
        [
            "random-strata", "--k", "1,2", "--n", "24", "--pi-c", "0.2",
            "--replications", "3", "--out", out,
        ]
    )
    assert code == 0
    with open(out) as fh:
        ids = {row["scenario_id"] for row in read_metrics_csv(fh)}
    assert ids == {"n24_pi0.2_pc0_py0_nt0_ht0_rk1", "n24_pi0.2_pc0_py0_nt0_ht0_rk2"}


@pytest.mark.parametrize("k", ["2.5", "1,inf", "nan"])
def test_cli_random_strata_rejects_k_not_whole(tmp_path, capsys, k):
    out = tmp_path / "rk.csv"
    argv = ["random-strata", "--k", k, "--n", "24", "--replications", "2", "--out", str(out)]
    assert cli_main(argv) == 1
    assert "--k must be a comma-separated list of whole numbers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-r", "--r", ","],
        ["sweep-r", "--r", ""],
        ["sweep-r", "--weights", " , "],
        ["random-strata", "--k", ""],
        ["random-strata", "--k", ",,"],
    ],
)
def test_cli_refuses_an_empty_number_list(tmp_path, capsys, argv):
    out = tmp_path / "m.csv"
    assert cli_main([*argv, "--replications", "2", "--out", str(out)]) == 1
    assert f"error: {argv[1]} must be a comma-separated list of numbers" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_csv_formats_columns_by_declared_type(tmp_path):
    # an integer never_taker_shift read from JSON still prints as a float
    cfg = write(
        tmp_path,
        "cfg.json",
        '{"n": 40, "target_pi_c": 0.3, "replications": 3, "never_taker_shift": 0}',
    )
    out = tmp_path / "metrics.csv"
    assert cli_main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert (row["n"], row["nt_shift"], row["predicts_c"], row["seed"]) == ("40", "0.0", "0", "0")


def test_python_m_ivstrat_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ivstrat", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "random-strata" in proc.stdout


def test_cli_grid_writes_the_default_grid(capsys):
    assert cli_main(["grid", "--replications", "2"]) == 0
    expected = io.StringIO()
    write_metrics_csv(run_grid(default_grid(replications=2)), expected)
    assert capsys.readouterr().out == expected.getvalue()


def test_cli_theory_matches_enumeration(tmp_path, capsys):
    text = "y0,y1,d0,d1\n" + "1.0,1.5,0,1\n" * 4 + "0.0,0.0,0,0\n" * 4
    path = write(tmp_path, "s.csv", text)
    assert cli_main(["theory", "--science-table", path, "--p", "0.5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] == 8 and obj["pi_c"] == 0.5 and obj["cace"] == 0.5
    enum = obj["enum_unstrat"]
    assert enum["n_assignments"] == 70
    assert enum["undefined_mass"] == pytest.approx(1 / 70, rel=1e-12)
    assert obj["bias_exact_conditional"] == pytest.approx(enum["bias"], rel=1e-9)
    assert "bias_taylor_two_sided" not in obj


def test_cli_theory_two_sided_and_no_enum(tmp_path, capsys):
    text = (
        "y0,y1,d0,d1\n"
        + "1.0,1.5,0,1\n" * 3
        + "0.0,0.0,0,0\n" * 3
        + "2.0,2.0,1,1\n" * 2
    )
    path = write(tmp_path, "s.csv", text)
    code = cli_main(["theory", "--science-table", path, "--no-enumeration"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert "bias_taylor_two_sided" in obj
    assert "bias_exact_conditional" not in obj
    assert "enum_unstrat" not in obj


def test_cli_usage_errors(capsys):
    assert cli_main([]) == 1
    assert cli_main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
    # the usage line, then the reason argparse gave
    for argv, reason in [
        (
            ["simulate", "--config", "c.json", "--threads", "0"],
            "ivstrat simulate: error: argument --threads: must be at least 1",
        ),
        (["simulate"], "ivstrat simulate: error: the following arguments are required: --config"),
        (
            ["analyze", "--data", "x.csv", "--se", "nope"],
            "ivstrat analyze: error: argument --se: invalid choice: 'nope'",
        ),
    ]:
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ivstrat {argv[0]} ")
        assert err.splitlines()[-1].startswith(reason)


def test_cli_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out
