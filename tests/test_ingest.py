"""The CSV loaders against the row-by-row oracles in helpers.py, through
both of their paths (numpy's C reader, and the per-row reader it falls
back to) and on the inputs where the two readers part ways; the quantile
bins and the midpoint-rank helper; and which modules a fresh import and a
CLI run load."""

import contextlib
import csv
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from ivstrat import ObservedSample, io_cli
from ivstrat.io_cli import DatasetSchema, _midranks, load_csv, load_science_csv
from helpers import fresh_python, load_csv_rowwise, load_science_csv_rowwise, strata_by_sorting

GOLDEN = Path(__file__).resolve().parent / "golden"

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
def _table(draw, roles: dict[str, list[str]], extra: list[str], clean: bool = False):
    """CSV text with columns named by roles (each with its pool of cell
    values) plus extra columns; the header may repeat a name or lose one,
    rows may be short or long, and blank or whitespace-only lines and
    CRLF endings appear. A clean table keeps its header, has at least one
    row, and every line is a full row, rarely with an odd cell."""
    names = draw(st.permutations(list(roles) + extra))
    if not clean:
        if draw(st.sampled_from([False, False, True])):  # a repeated name: its last column counts
            names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(names)))
        if draw(st.sampled_from([False] * 9 + [True])):
            names.remove(draw(st.sampled_from(names)))
    odd = draw(st.sampled_from([0] * 9 + [1] if clean else [0, 0, 0, 1, 3]))
    lines = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lines, quoting=quoting)
    writer.writerow(names)
    kinds = ["row"]
    if not clean:
        kinds += ["row"] * 11 + ["blank"] + draw(st.sampled_from([[], [], ["short", "long"]]))
    for _ in range(draw(st.sampled_from([8, 16, 3] if clean else [8, 16, 3, 0]))):
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


def _clean(pool: list[str]) -> list[str]:
    """The pool without the values numpy's reader refuses: an underscore in
    a number, a newline in a label."""
    return [v for v in pool if v not in ("1_0", "l1\nl2")]


@st.composite
def _dataset_case(draw, clean: bool = False):
    """A dataset CSV and its schema; a clean one (see _table) also draws
    its cells from _clean pools and has no blank stratum cells."""
    pool = _clean if clean else list
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
    roles = {"z": BINARY, "d": BINARY, "y": pool(OUTCOME)}
    for col in strata:
        roles[col] = pool(NUMBERS if col in binning else LABELS)
        if not clean:
            roles[col] += draw(st.sampled_from([[], BLANKS[:1], BLANKS]))
    extra = [c for c in ("a", "b", "c", "x") if c not in roles][: draw(st.integers(0, 2))]
    return draw(_table(roles, extra, clean)), schema


def _both_paths():
    """Contexts for a load as the loader picks its path, then for one with
    the per-row reader forced."""
    return (
        contextlib.nullcontext(),
        mock.patch.object(io_cli, "_read_columns", return_value=None),
    )


@settings(max_examples=400)
@given(case=_dataset_case())
def test_load_csv_matches_rowwise_oracle(tmp_path_factory, case):
    text, schema = case
    path = tmp_path_factory.getbasetemp() / "dataset.csv"
    path.write_bytes(text.encode())
    old = _outcome(load_csv_rowwise, str(path), schema)
    for loader_path in _both_paths():
        with loader_path:
            new = _outcome(load_csv, str(path), schema)
        _assert_same(new, old, ("z", "d", "y", "strata"))


def test_clean_datasets_mostly_take_the_fast_path(tmp_path_factory):
    """The oracle test above sends most of its files to the per-row reader.
    Here files biased toward clean ones must match the oracle through both
    paths, and at least half of them must load without the per-row reader."""
    fast = []

    @settings(max_examples=200)
    @given(case=_dataset_case(clean=True))
    def check(case):
        text, schema = case
        path = tmp_path_factory.getbasetemp() / "clean.csv"
        path.write_bytes(text.encode())
        old = _outcome(load_csv_rowwise, str(path), schema)
        with mock.patch.object(io_cli, "_read_rows", wraps=io_cli._read_rows) as per_row:
            new = _outcome(load_csv, str(path), schema)
        fast.append(not per_row.called)
        _assert_same(new, old, ("z", "d", "y", "strata"))
        with _both_paths()[1]:
            new = _outcome(load_csv, str(path), schema)
        _assert_same(new, old, ("z", "d", "y", "strata"))

    check()
    assert 2 * sum(fast) >= len(fast), f"{sum(fast)} of {len(fast)} files took the fast path"


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
    )
)
def test_load_science_csv_matches_rowwise_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "science.csv"
    path.write_bytes(text.encode())
    old = _outcome(load_science_csv_rowwise, str(path))
    for loader_path in _both_paths():
        with loader_path:
            new = _outcome(load_science_csv, str(path))
        _assert_same(new, old, ("y0", "y1", "d0", "d1", "strata"))


def test_crossed_labels_that_read_the_same_share_a_stratum(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text('z,d,y,a,b\n1,1,1,x|b=y,c\n0,0,2,x,y|b=c\n1,0,3,x,c\n0,1,4,x,c\n')
    schema = DatasetSchema(strata_cols=("a", "b"))
    sample = load_csv(str(path), schema)
    assert sample.stratum_labels == ("a=x|b=y|b=c", "a=x|b=c")
    assert sample.strata.tolist() == [0, 0, 1, 1]
    _assert_same(sample, load_csv_rowwise(str(path), schema), ("z", "d", "y", "strata"))


def test_error_deep_in_a_file_reports_its_physical_line(tmp_path):
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


# Inputs on which numpy's C reader and csv.reader with float() disagree, or
# which the fast path must refuse: each is compared with the oracle.
TRAPS = {
    "bare_cr": "z,d,y,s\r1,0,1.5,a\r0,1,2,b\r\r1,1,3,a\r0,0,4,b",
    # the header's second physical line reads as a data row
    "quoted_newline_in_header": 'z,d,y,s,"x\n1,0,1,a,b"\n0,1,2,c,d\n1,1,3,c,d\n',
    "header_only": "z,d,y,s\n",
    "header_and_blank_lines": "z,d,y,s\n\n\r\n",
    "one_row": "z,d,y,s\n1,0,1.5,a\n",
    "long_labels": "z,d,y,s\n1,0,1,abcdefghijklmnopqrstuvwxyz\n0,1,2,a label of 17 chars\n",
    "spaced_labels": "z,d,y,s\n1,0,1,  a \n0,1,2,a\n1,1,3, a\n0,0,4,a \n",
    "crlf_in_quoted_label": 'z,d,y,s\r\n1,0,1,"a\r\nb"\r\n0,1,2,"a\nb"\r\n1,1,3,a\r\n',
    "cr_in_quoted_label": 'z,d,y,s\n1,0,1,"a\rb"\n0,1,2,"a\nb"\n',
    # a bare \r and a quoted line break: as many records as "\n" line ends
    "bare_cr_and_quoted_crlf": 'z,d,y,s\n1,0,1,a\r0,1,2,"b\r\nc"\n',
    "bom": "\ufeffz,d,y,s\n1,0,1,a\n",
    "bom_before_other_column": "\ufeffs,z,d,y\n\ufeffa,1,0,1\nb,0,1,2\n",
    "hash_in_fields": "z,d,y,s\n1,0,1,#a\n0,1,2,b#c\n1,1,3,#\n",
    "hash_in_y": "z,d,y,s\n1,0,1,a\n0,1,#2,b\n",
    "separator_after_y": "z,d,y,s\n1,0,1,a\n0,1,2\x1c,b\n",
    "infinite_stratum_value": "z,d,y,s\n1,0,1,1\n0,1,2,inf\n1,1,3,2\n0,0,4,3\n",
    # loadtxt reads the header's second line and the first row as one record
    "quoted_newline_in_header_hides_a_row": 'z,d,y,s,"x\n"\n0",0,1,a,b\n',
    "nul_in_label": "z,d,y,s\n1,0,1,a\x00b\n0,1,2,b\n",
    "blank_crlf_lines": "z,d,y,s\r\n1,0,1,a\r\n\r\n0,1,2,b\r\n\r\n",
    # fields over csv.field_size_limit(): csv.reader refuses them, loadtxt does not
    "huge_unread_field": "z,d,y,s,x\n1,0,1,a," + "w" * 140_000 + "\n0,1,2,b,c\n",
    "huge_padded_number": "z,d,y,s\n1,0," + " " * 140_000 + "1,a\n0,1,2,b\n",
    "huge_label": "z,d,y,s\n1,0,1," + "w" * 140_000 + "\n0,1,2,b\n",
}
ODD_NUMBERS = ["NaN", "Infinity", "+inf", "-inf", "1e999", "1_0", "0_0", "\u0661", "\u0660", "1\x1f"]


@pytest.mark.parametrize("text", TRAPS.values(), ids=TRAPS.keys())
@pytest.mark.parametrize("quantile", [False, True])
def test_trap_inputs_load_as_the_oracle_does(tmp_path, text, quantile):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    schema = DatasetSchema(strata_cols=("s",), binning={"s": {"quantile": 2}} if quantile else {})
    new = _outcome(load_csv, str(path), schema)
    _assert_same(new, _outcome(load_csv_rowwise, str(path), schema), ("z", "d", "y", "strata"))


@pytest.mark.parametrize("cell", ODD_NUMBERS)
@pytest.mark.parametrize("col", range(4))
def test_odd_numbers_in_z_d_y_load_as_the_oracle_does(tmp_path, cell, col):
    """The odd value in z, d, y, or (col 3) a quantile-binned stratum column."""
    rows = [["1", "0", "1.5", "1"], ["0", "1", "2", "2"], ["1", "1", "3", "3"]]
    rows[1][col] = cell
    path = tmp_path / "d.csv"
    path.write_bytes(("z,d,y,s\n" + "".join(",".join(r) + "\n" for r in rows)).encode())
    schema = DatasetSchema(strata_cols=("s",), binning={"s": {"quantile": 2}} if col == 3 else {})
    new = _outcome(load_csv, str(path), schema)
    _assert_same(new, _outcome(load_csv_rowwise, str(path), schema), ("z", "d", "y", "strata"))


@pytest.mark.parametrize("cell", ODD_NUMBERS)
def test_odd_numbers_in_a_science_table_load_as_the_oracle_does(tmp_path, cell):
    for col in range(4):
        rows = [["1", "2", "0", "1", "a"], ["0.5", "0.5", "0", "0", "b"]]
        rows[1][col] = cell
        path = tmp_path / f"s{col}.csv"
        path.write_bytes(("y0,y1,d0,d1,stratum\n" + "\n".join(map(",".join, rows))).encode())
        new = _outcome(load_science_csv, str(path))
        old = _outcome(load_science_csv_rowwise, str(path))
        _assert_same(new, old, ("y0", "y1", "d0", "d1", "strata"))


SCIENCE_TRAPS = {
    "bare_cr": "y0,y1,d0,d1,stratum\r1,2,0,1,a\r0.5,1,0,0,b\r",
    "crlf_in_quoted_label": 'y0,y1,d0,d1,stratum\r\n1,2,0,1,"a\r\nb"\r\n0.5,1,0,0,"a\nb"\r\n',
    "quoted_newline_in_header": 'y0,y1,d0,d1,stratum,"x\n1,1,0,1,a,b"\n1,2,0,1,c,d\n',
    "header_only": "y0,y1,d0,d1,stratum\n",
}


@pytest.mark.parametrize("text", SCIENCE_TRAPS.values(), ids=SCIENCE_TRAPS.keys())
def test_science_trap_inputs_load_as_the_oracle_does(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    old = _outcome(load_science_csv_rowwise, str(path))
    _assert_same(_outcome(load_science_csv, str(path)), old, ("y0", "y1", "d0", "d1", "strata"))


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_clean_files_load_without_the_per_row_reader(tmp_path, ending):
    """An analyze-style CSV, with blank values, quoted labels and CRLF or LF
    endings, is read by numpy's C reader alone; so is a science table."""
    rng = np.random.default_rng(7)
    rows = ["z,d,y,region,age"]
    for i in range(300):
        region = ["north", '"south, upper"', "", "a label of 17 chars"][i % 4]
        age = "" if i % 37 == 0 else f"{rng.gamma(4.0, 10.0):.2f}"
        rows.append(f"{i % 2},{int(rng.random() < 0.3) * (i % 2)},{rng.normal()!r},{region},{age}")
    path = tmp_path / "d.csv"
    path.write_bytes((ending.join(rows) + ending).encode())
    schema = DatasetSchema(strata_cols=("region", "age"), binning={"age": {"quantile": 4}})
    science = tmp_path / "s.csv"
    science.write_bytes(ending.join(["y0,y1,d0,d1,stratum", "1,2,0,1,a", "0.5,5e-1,0,0,b"]).encode())
    refuse = AssertionError("the per-row reader ran")
    with mock.patch.object(io_cli, "_read_rows", side_effect=refuse):
        sample = load_csv(str(path), schema)
        table = load_science_csv(str(science))
    _assert_same(sample, load_csv_rowwise(str(path), schema), ("z", "d", "y", "strata"))
    old = load_science_csv_rowwise(str(science))
    _assert_same(table, old, ("y0", "y1", "d0", "d1", "strata"))


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("bad, why", [("4O.5", "not numeric"), ("inf", "not finite")])
def test_a_bad_quantile_value_is_reported_from_the_first_read(tmp_path, ending, bad, why):
    """In an otherwise clean file, a quantile value that is not numeric or
    not finite is refused, on the oracle's line and with its reason, without
    the per-row reader."""
    rng = np.random.default_rng(11)
    rows = ["z,d,y,region,age"]
    for i in range(300):
        age = "" if i % 37 == 0 else f"{rng.gamma(4.0, 10.0):.2f}"
        rows.append(f"{i % 2},{int(i % 3 == 0)},{rng.normal()!r},{'north' if i % 4 else 'south'},{age}")
    rows[251] = "1,1,0.5,north," + bad
    rows[271] = "0,0,0.5,south,nan"  # a later bad value is not the one reported
    path = tmp_path / "d.csv"
    path.write_bytes((ending.join(rows) + ending).encode())
    schema = DatasetSchema(strata_cols=("region", "age"), binning={"age": {"quantile": 4}})
    with pytest.raises(io_cli.MalformedRow) as old:
        load_csv_rowwise(str(path), schema)
    with mock.patch.object(io_cli, "_read_rows", side_effect=AssertionError("the per-row reader ran")):
        with pytest.raises(io_cli.MalformedRow) as new:
            load_csv(str(path), schema)
    assert (new.value.line, new.value.reason) == (old.value.line, old.value.reason)
    assert (new.value.line, new.value.reason) == (252, f"age={bad!r} is {why}")


@given(
    cells=st.lists(
        st.one_of(
            st.sampled_from(["1", "1.0", "0", "-0", "0.0", "2", "-3", "1e1", "", " ", "  "]),
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
        ),
        min_size=1,
        max_size=30,
    ),
    k=st.sampled_from([2, 3, 4]),
)
def test_quantile_levels_from_distinct_values_equal_per_row_ranks(cells, k):
    def per_row():
        present = np.array([c.strip() != "" for c in cells])
        level = np.full(len(cells), k)
        if present.any():
            ranks = _midranks(np.array([float(c) for c in cells if c.strip()]))
            bins = np.ceil(ranks * k / len(ranks)).astype(int) - 1
            if len(np.unique(bins)) < k:
                raise io_cli.EmptyBin("empty")
            level[present] = bins
        return level

    values, codes = io_cli._levels(cells)
    lines = range(2, len(cells) + 2)
    new, old = _outcome(io_cli._quantile_levels, "a", values, codes, k, lines), _outcome(per_row)
    if isinstance(old, Exception):
        assert isinstance(new, io_cli.EmptyBin)
    else:
        assert new[0].dtype == old.dtype and new[0].tobytes() == old.tobytes()
        assert new[1] == [f"q{b + 1}" for b in range(k)] + ["missing"]


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
    assert fresh_python(code).strip() == "[]"


# what a fresh interpreter has loaded of ivstrat, scipy and concurrent.futures
LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] in {'ivstrat', 'scipy', 'concurrent'}))"


def test_cli_analyze_loads_only_the_kernel_and_its_driver():
    argv = [
        "analyze",
        "--data", str(GOLDEN / "gotv_like.csv"),
        "--schema", str(GOLDEN / "gotv_like_schema.json"),
    ]  # fmt: skip
    code = (
        "import contextlib, io, sys, ivstrat, ivstrat.io_cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert ivstrat.io_cli.cli_main({argv!r}) == 0\n"
        f"assert out.getvalue() == {(GOLDEN / 'gotv_like_report.csv').read_text()!r}\n" + LOADED
    )
    assert fresh_python(code).strip() == str(
        ["ivstrat", "ivstrat.data_model", "ivstrat.estimators", "ivstrat.io_cli", "ivstrat.variance"]
    )


def test_cli_simulate_leaves_theory_unloaded(tmp_path):
    argv = ["sweep-r", "--r", "1", "--n", "40", "--replications", "2", "--out", str(tmp_path / "m.csv")]
    code = (
        f"import sys, ivstrat, ivstrat.io_cli\nassert ivstrat.cli_main({argv!r}) == 0\n"
        "print('ivstrat.simulation' in sys.modules, 'ivstrat.theory' in sys.modules)"
    )
    assert fresh_python(code).split() == ["True", "False"]


LABEL_POOL = ["x", "y", "c", "x|b=y", "y|b=c", "b=c", "missing"]


@st.composite
def _crossed_columns(draw):
    """Per-column (row codes, code labels) as load_csv hands them to
    _strata; a column's labels may repeat (a blank and a literal "missing"
    both read "missing"), and crossed names may read the same."""
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=6))
        codes = draw(st.lists(st.integers(0, len(labels) - 1), min_size=n, max_size=n))
        columns.append((np.array(codes, dtype=np.intp), labels))
    return ("a", "b", "c")[: len(columns)], columns


@settings(max_examples=300)
@given(case=_crossed_columns())
def test_strata_match_the_sorting_oracle(case):
    """_strata numbers strata by first appearance and the oracle by sorted
    key; the loaded sample, which re-codes by first appearance, is the same."""
    cols, columns = case
    n = len(columns[0][0])
    z = np.arange(n) % 2
    samples = []
    for strata, names in (io_cli._strata(cols, columns), strata_by_sorting(cols, columns)):
        sample = ObservedSample.from_arrays(z=z, d=z, y=np.zeros(n), strata=strata)
        samples.append(io_cli._relabel(sample, names))
    _assert_same(*samples, ("z", "d", "y", "strata"))
