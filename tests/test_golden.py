"""Frozen end-to-end outputs for two bundled datasets.

The byte comparisons pin the whole pipeline (parse, estimate, format).
To keep the frozen bytes honest, the unstratified row is recomputed here
from the raw CSV with plain csv/math, no package code involved.
"""

import csv
import importlib.util
import json
import math
import pathlib

import pytest

from ivstrat import DatasetSchema, analyze, cli_main, load_csv, stratum_report
from ivstrat.io_cli import report_csv, stratum_csv

GOLDEN = pathlib.Path(__file__).parent / "golden"


def rows_of(path, z_col, d_col, y_col):
    with open(path, newline="") as fh:
        return [
            (int(r[z_col]), int(r[d_col]), float(r[y_col]))
            for r in csv.DictReader(fh)
        ]


def unstrat_row_by_hand(path, z_col, d_col, y_col):
    rows = rows_of(path, z_col, d_col, y_col)
    y1 = [y for z, _, y in rows if z == 1]
    y0 = [y for z, _, y in rows if z == 0]
    d1 = [d for z, d, _ in rows if z == 1]
    d0 = [d for z, d, _ in rows if z == 0]
    mean = lambda xs: sum(xs) / len(xs)
    var = lambda xs: sum((x - mean(xs)) ** 2 for x in xs) / (len(xs) - 1)
    itt = mean(y1) - mean(y0)
    f = mean(d1) - mean(d0)
    est = itt / f
    se = math.sqrt(var(y1) / len(y1) + var(y0) / len(y0)) / abs(f)
    p = math.erfc(abs(est / se) / math.sqrt(2.0))
    return {
        "pi_c_hat": f"{f:.4g}",
        "estimate": f"{est:.4g}",
        "se_bloom": f"{se:.4g}",
        "n": str(len(rows)),
        "p_value": f"{p:.4g}",
    }


def golden_row(report_path, method):
    with open(report_path, newline="") as fh:
        for r in csv.DictReader(fh):
            if r["method"] == method:
                return r
    raise AssertionError(f"{method} not in {report_path}")


def test_gotv_report_bytes():
    schema = DatasetSchema.from_json_file(str(GOLDEN / "gotv_like_schema.json"))
    sample = load_csv(str(GOLDEN / "gotv_like.csv"), schema)
    assert report_csv(analyze(sample)) == (GOLDEN / "gotv_like_report.csv").read_text()


def test_gotv_cli_matches_golden(capsys):
    code = cli_main(
        [
            "analyze",
            "--data", str(GOLDEN / "gotv_like.csv"),
            "--schema", str(GOLDEN / "gotv_like_schema.json"),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "gotv_like_report.csv").read_text()


def test_gotv_unstrat_row_recomputed_from_raw():
    hand = unstrat_row_by_hand(
        GOLDEN / "gotv_like.csv", "assigned", "contacted", "voted"
    )
    frozen = golden_row(GOLDEN / "gotv_like_report.csv", "UNSTRAT")
    for key, value in hand.items():
        assert frozen[key] == value
    assert frozen["pct_se"] == "100"


def test_gotv_nothing_dropped_collapses_methods():
    frozen = (GOLDEN / "gotv_like_report.csv").read_text().splitlines()
    same = {line.split(",", 1)[1] for line in frozen[2:6]}  # IV_W..DSF payloads
    assert len(same) == 1  # no stratum fails any screen, so all four agree


def test_spotlight_report_bytes():
    sample = load_csv(str(GOLDEN / "spotlight_like.csv"), DatasetSchema())
    table = analyze(sample)
    assert report_csv(table) == (GOLDEN / "spotlight_like_report.csv").read_text()
    assert stratum_csv(stratum_report(sample)) == (
        GOLDEN / "spotlight_like_strata.csv"
    ).read_text()


def test_spotlight_unstrat_row_recomputed_from_raw():
    hand = unstrat_row_by_hand(GOLDEN / "spotlight_like.csv", "z", "d", "y")
    frozen = golden_row(GOLDEN / "spotlight_like_report.csv", "UNSTRAT")
    for key, value in hand.items():
        assert frozen[key] == value


def test_spotlight_screens_drop_expected_strata():
    # west's uptake is below the 2% screen but above zero, so the
    # weighted estimator keeps it and the screened ones drop it
    with open(GOLDEN / "spotlight_like_report.csv", newline="") as fh:
        frozen = {r["method"]: r for r in csv.DictReader(fh)}
    assert frozen["IV_W"]["n"] == "1000"
    assert frozen["DSS"]["n"] == "750"
    assert int(frozen["DSF"]["n"]) <= 750
    with open(GOLDEN / "spotlight_like_strata.csv", newline="") as fh:
        west = {r["stratum"]: r for r in csv.DictReader(fh)}["west"]
    assert 0.0 < float(west["pi_c_hat"]) < 0.02


def _load_golden_script(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_make_golden_is_reproducible(tmp_path, monkeypatch):
    mod = _load_golden_script("make_golden")
    monkeypatch.setattr(mod, "HERE", tmp_path)
    mod.main()
    for name in (
        "gotv_like.csv",
        "gotv_like_schema.json",
        "gotv_like_report.csv",
        "spotlight_like.csv",
        "spotlight_like_report.csv",
        "spotlight_like_strata.csv",
    ):
        assert (tmp_path / name).read_text() == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(_load_golden_script("make_golden").CLI_CASES))
def test_cli_output_matches_frozen(name):
    mod = _load_golden_script("make_golden")
    assert mod.cli_text(name, GOLDEN) == (GOLDEN / name).read_text()


# the first-order variances may move in the last bits when their formula is
# rearranged (measured: about 1e-15 relative); every other theory output is
# frozen exactly
THEORY_TOLERANT = ("asyvar_iv", "asyvar_iv_ps")


@pytest.mark.parametrize("name", ["theory_one_sided", "theory_two_sided"])
def test_theory_json_matches_frozen(name):
    mod = _load_golden_script("make_theory_golden")
    _, p = mod.CASES[name]
    fresh = json.loads(mod.theory_json(GOLDEN / f"{name}.csv", p))
    frozen = json.loads((GOLDEN / f"{name}.json").read_text())
    assert list(fresh) == list(frozen)
    for key, old in frozen.items():
        if key in THEORY_TOLERANT:
            assert math.isclose(fresh[key], old, rel_tol=1e-12, abs_tol=0.0), key
        else:
            assert fresh[key] == old, key


def test_make_theory_golden_tables_are_reproducible():
    mod = _load_golden_script("make_theory_golden")
    for name, (make_csv, _) in mod.CASES.items():
        assert make_csv() == (GOLDEN / f"{name}.csv").read_text()
