"""The columnar CSV loaders against the row-by-row oracles in helpers.py,
the midpoint-rank helper against scipy, and the scipy-free import."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from ivstrat import io_cli
from ivstrat.io_cli import DatasetSchema, _midranks, load_csv, load_science_csv
from helpers import load_csv_rowwise, load_science_csv_rowwise

SRC = Path(__file__).resolve().parents[1] / "src"

BINARY = ["0", "1"] * 6 + ["-0", "1e0", "1.0", " 1", "+0", "0.0"]
OUTCOME = ["0.5", "-3", "2", "1e0", "1_0", "-0", " 4.25 ", "1e300", "0.1", "7"]
LABELS = ["a", "b", "x", "x|b=y", "y|b=c", "missing", "p,q", "l1\nl2", 'q"t', "1", "2.0"]
NUMBERS = ["1", "2", "2.0", "3", "10", "-1", "1e0", "1_0", "0.5", "4", "4"]
# cells that fail some check: not numeric, not 0/1, not finite, blank
ODD = ["", " ", "nan", "inf", "-inf", "2", "x", "0x1", "1,5", "--1"]
BLANKS = ["", " ", "  "]


def _cells(valid: list[str], odd_share: int):
    return st.sampled_from(valid * 4 + ODD * odd_share)


@st.composite
def _table(draw, roles: dict[str, list[str]], extra: list[str]):
    """CSV text with columns named by roles (each with its pool of cell
    values) plus extra columns; the header may repeat a name or lose one,
    rows may be short or long, and blank or whitespace-only lines and
    CRLF endings appear."""
    names = draw(st.permutations(list(roles) + extra))
    if draw(st.sampled_from([False, False, True])):  # a repeated name: its last column counts
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
    if draw(st.sampled_from([False] * 9 + [True])):
        names.remove(draw(st.sampled_from(names)))
    odd = draw(st.sampled_from([0, 0, 0, 1, 3]))
    lines = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lines, quoting=quoting)
    writer.writerow(names)
    kinds = ["row"] * 12 + ["blank"] + draw(st.sampled_from([[], [], ["short", "long"]]))
    for _ in range(draw(st.sampled_from([8, 16, 3, 0]))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            buf.write(draw(st.sampled_from(["", " ", "\t"])) + lines)
            continue
        row = [draw(_cells(roles.get(name, LABELS + NUMBERS), odd)) for name in names]
        if kind == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif kind == "long":
            row.append(draw(st.sampled_from(LABELS)))
        writer.writerow(row)
    return buf.getvalue()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the result compared
        return exc


def _assert_same(new, old, arrays: tuple[str, ...]) -> None:
    if isinstance(old, Exception):
        assert type(new) is type(old), (new, old)
        assert str(new) == str(old)
        assert getattr(new, "line", None) == getattr(old, "line", None)
        assert getattr(new, "reason", None) == getattr(old, "reason", None)
        return
    assert not isinstance(new, Exception), new
    for name in arrays:
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert new.stratum_labels == old.stratum_labels


@st.composite
def _dataset_case(draw):
    strata = draw(st.permutations(["a", "b", "c"]))[: draw(st.sampled_from([2, 1, 3, 0]))]
    binning = {}
    for col in strata:
        if draw(st.booleans()):
            binning[col] = {"quantile": draw(st.sampled_from([2, 3, 4]))}
    schema = DatasetSchema(
        strata_cols=tuple(strata),
        binning=binning,
        missing_policy=draw(st.sampled_from(["own-stratum", "error"])),
    )
    roles = {"z": BINARY, "d": BINARY, "y": OUTCOME}
    for col in strata:
        pool = NUMBERS if col in binning else LABELS
        roles[col] = pool + draw(st.sampled_from([[], BLANKS[:1], BLANKS]))
    extra = [c for c in ("a", "b", "c", "x") if c not in roles][: draw(st.integers(0, 2))]
    return draw(_table(roles, extra)), schema


@settings(max_examples=400)
@given(case=_dataset_case(), chunk=st.sampled_from([1, 3, 4096]))
def test_load_csv_matches_rowwise_oracle(tmp_path_factory, case, chunk):
    text, schema = case
    path = tmp_path_factory.getbasetemp() / "dataset.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(io_cli, "_CHUNK_ROWS", chunk):
        new = _outcome(load_csv, str(path), schema)
    _assert_same(new, _outcome(load_csv_rowwise, str(path), schema), ("z", "d", "y", "strata"))


@settings(max_examples=200)
@given(
    text=_table(
        {
            "y0": ["1.5"] * 3 + ["-2"],
            "y1": ["1.5"] * 3 + ["1e0"],
            "d0": ["0"] * 5 + ["1"],
            "d1": BINARY,
        },
        ["stratum", "x"],
    ),
    chunk=st.sampled_from([1, 3, 4096]),
)
def test_load_science_csv_matches_rowwise_oracle(tmp_path_factory, text, chunk):
    path = tmp_path_factory.getbasetemp() / "science.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(io_cli, "_CHUNK_ROWS", chunk):
        new = _outcome(load_science_csv, str(path))
    old = _outcome(load_science_csv_rowwise, str(path))
    _assert_same(new, old, ("y0", "y1", "d0", "d1", "strata"))


def test_crossed_labels_that_read_the_same_share_a_stratum(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('z,d,y,a,b\n1,1,1,x|b=y,c\n0,0,2,x,y|b=c\n1,0,3,x,c\n0,1,4,x,c\n')
    schema = DatasetSchema(strata_cols=("a", "b"))
    sample = load_csv(str(path), schema)
    assert sample.stratum_labels == ("a=x|b=y|b=c", "a=x|b=c")
    assert sample.strata.tolist() == [0, 0, 1, 1]
    _assert_same(sample, load_csv_rowwise(str(path), schema), ("z", "d", "y", "strata"))


def test_error_in_a_later_chunk_reports_its_physical_line(tmp_path):
    rows = ["1,0,1.0,a", "0,0,2.0,b", "", '1,1,"3.5",a'] * 5000
    rows[15_001] = '0,0,"x\ny",b'
    path = tmp_path / "d.csv"
    path.write_text("z,d,y,s\n" + "\n".join(rows) + "\n")
    schema = DatasetSchema(strata_cols=("s",))
    with pytest.raises(io_cli.MalformedRow) as new:
        load_csv(str(path), schema)
    with pytest.raises(io_cli.MalformedRow) as old:
        load_csv_rowwise(str(path), schema)
    assert (new.value.line, new.value.reason) == (old.value.line, old.value.reason)
    assert new.value.line == 15_004 and new.value.reason == "y='x\\ny' is not numeric"


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, np.inf, -np.inf]),
            st.floats(allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_midranks_equal_scipy_average_ranks(values):
    a = np.array(values, dtype=np.float64)
    assert _midranks(a).tobytes() == rankdata(a, method="average").tobytes()


@pytest.mark.parametrize("values", [[3.0], [2.0] * 7, [1.0, 1.0, 0.0, 1.0]])
def test_midranks_one_value_and_all_ties(values):
    a = np.array(values)
    assert _midranks(a).tobytes() == rankdata(a, method="average").tobytes()


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, ivstrat, ivstrat.io_cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.stdout.strip() == "[]"
