"""Dataset ingestion, report tables, and the command-line interface.

Input datasets are RFC 4180 CSV files with a header row. A DatasetSchema
names the assignment/uptake/outcome columns and the covariate columns that
define strata; covariates are used as-is or quantile-binned, and their
cross-product forms the analysis strata. Missing covariate values route to
their own "missing" stratum.

Two output dialects: human-facing report tables use 4 significant digits
and are byte-stable; machine-facing metrics CSVs use shortest round-trip
decimals so emit-then-parse is exact.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace
from itertools import compress
from typing import IO, Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from .data_model import (
    EmptyBin,
    EmptyFile,
    EstimateReport,
    EstimationError,
    MalformedRow,
    MissingColumn,
    ObservedBlock,
    ObservedSample,
    ScienceTable,
    _levels,
    first_appearance,
    stratum_moments,
    validate,
)
from .estimators import DEFAULT_ESTIMATORS, EstimatorConfig, _report, check_tags, estimate_rows
from .variance import _two_per_arm, _var_itt

# simulation and theory are imported by the functions that run them, so that
# loading this module for `ivstrat analyze` loads neither

__all__ = [
    "DatasetSchema",
    "ReportRow",
    "ReportTable",
    "StratumRow",
    "load_csv",
    "save_csv",
    "load_science_csv",
    "analyze",
    "stratum_report",
    "report_csv",
    "stratum_csv",
    "write_metrics_csv",
    "read_metrics_csv",
    "cli_main",
    "main",
]

DEFAULT_REPORT_ESTIMATORS = tuple(t for t in DEFAULT_ESTIMATORS if t != "ORACLE")

METRICS_COLUMNS = (
    "scenario_id",
    "n",
    "pi_c_target",
    "predicts_c",
    "predicts_y",
    "nt_shift",
    "het_tau",
    "estimator",
    "bias",
    "true_se",
    "rmse",
    "cal_bloom",
    "cal_delta",
    "rel_instab_bloom",
    "rel_instab_delta",
    "drop_rate",
    "fail_rate",
    "mean_n_used",
    "seed",
    "rng_family",
)


def _normalize_rule(rule) -> tuple[str, int | None]:
    if rule == "as-is":
        return ("as-is", None)
    if isinstance(rule, Mapping) and set(rule) == {"quantile"}:
        k = rule["quantile"]
    elif isinstance(rule, (tuple, list)) and len(rule) == 2 and rule[0] == "quantile":
        k = rule[1]
    else:
        raise ValueError(f"unknown binning rule {rule!r}")
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"quantile bin count must be an integer >= 2, got {k!r}")
    return ("quantile", k)


# A JSON value's check, by the exact types json.load makes (so a bool is no
# number, and NaN is refused), and what it must be, for each declared field
# type whose constructor does not check the type itself (counts and seeds do).
_JSON_TYPES = {
    float: (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number"),
    bool: (lambda v: type(v) is bool, "true or false"),
    str: (lambda v: type(v) is str, "a string"),
    tuple[float, ...]: (lambda v: type(v) is list and all(map(_JSON_TYPES[float][0], v)),
                        "a list of finite numbers"),
    tuple[str, ...]: (lambda v: type(v) is list and {*map(type, v)} <= {str}, "a list of strings"),
    Mapping[str, object] | None: (lambda v: v is None or type(v) is dict, "an object"),
}


@functools.cache
def _field_types(cls) -> dict:
    """The dataclass cls's field types, its string annotations resolved
    once per class."""
    return get_type_hints(cls)


def _json_kwargs(cls, obj, what: str) -> dict:
    """A JSON object as keyword arguments of the dataclass cls, lists made
    tuples. A ValueError names what is refused: a key that is not a field
    of cls, or a value whose type does not fit its field's declared type."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"{what} JSON must be an object, got {obj!r}")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    types = _field_types(cls)
    for key, value in obj.items():
        check, kind = _JSON_TYPES.get(types[key], (lambda v: True, ""))
        if not check(value):
            raise ValueError(f"{key} must be {kind}, got {value!r}")
    return {key: tuple(v) if isinstance(v, list) else v for key, v in obj.items()}


@dataclass
class DatasetSchema:
    """Column layout of an input CSV: z/d/y names plus stratum covariates.

    binning maps a covariate column to "as-is" (categorical) or
    {"quantile": k}; unlisted columns default to as-is. missing_policy
    "own-stratum" puts rows missing a stratification value in a "missing"
    stratum; "error" rejects them as malformed rows.
    """

    z_col: str = "z"
    d_col: str = "d"
    y_col: str = "y"
    strata_cols: tuple[str, ...] = ("stratum",)
    binning: Mapping[str, object] | None = None
    missing_policy: str = "own-stratum"

    def __post_init__(self) -> None:
        if isinstance(self.strata_cols, str):
            raise ValueError(f"strata_cols must list column names, got {self.strata_cols!r}")
        self.strata_cols = tuple(self.strata_cols)
        names = (self.z_col, self.d_col, self.y_col) + self.strata_cols
        if len(set(names)) != len(names):
            raise ValueError("schema column names must be distinct")
        if self.missing_policy not in ("own-stratum", "error"):
            raise ValueError(f"unknown missing_policy {self.missing_policy!r}")
        rules = dict(self.binning or {})
        for col in rules:
            if col not in self.strata_cols:
                raise ValueError(f"binning rule for non-stratum column {col!r}")
        self.binning = {
            col: _normalize_rule(rules.get(col, "as-is")) for col in self.strata_cols
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "DatasetSchema":
        return cls(**_json_kwargs(cls, obj, "schema"))

    @classmethod
    def from_json_file(cls, path: str) -> "DatasetSchema":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


# Each numeric column kind's check, written with operators so that it takes a
# Python float (at Python speed) or a float array alike, and the reason a
# value that fails it is refused.
_KINDS = {
    "binary": (lambda v: (v == 0.0) | (v == 1.0), "must be 0 or 1"),
    "outcome": (lambda v: abs(v) < math.inf, "is not finite"),  # False for nan too
}


def _parse(raw: str | None, col: str, kind: str, line: int) -> float:
    """One cell of a numeric column of the given kind, or a MalformedRow
    on line that names col and why raw is refused."""
    if raw is None or raw.strip() == "":
        raise MalformedRow(line, f"missing {col}")
    try:
        v = float(raw)
    except ValueError:
        raise MalformedRow(line, f"{col}={raw!r} is not numeric") from None
    check, reason = _KINDS[kind]
    if not check(v):
        raise MalformedRow(line, f"{col}={raw!r} {reason}")
    return v


_Columns = tuple[list[np.ndarray], list[tuple[list[str], np.ndarray]], Sequence[int]]

# np.loadtxt's reading of an RFC 4180 file after its header row
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, skiprows=1, encoding="utf-8", ndmin=1)


def _midranks(values: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """1-based ranks of a nonempty float array, tied values sharing their
    midpoint rank (scipy.stats.rankdata's "average" method). With counts,
    each values[i] stands for counts[i] tied copies of itself."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.r_[True, ordered[1:] != ordered[:-1]]
    slots = np.r_[0, np.cumsum(counts[order])] if counts is not None else np.arange(len(values) + 1)
    bounds = slots[np.r_[np.flatnonzero(new), len(values)]]  # each tie group's first slot, then n
    group = np.cumsum(new) - 1
    ranks = np.empty(len(values))
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    return ranks


def _records(reader):
    """reader's rows, a row that csv refuses (a field over
    csv.field_size_limit(), or a NUL before Python 3.11) raised as a
    MalformedRow on reader.line_num."""
    try:
        yield from reader
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None


def _read_rows(path: str, numeric, text: Sequence[str], refuse_blank: bool) -> _Columns:
    """Read a CSV one csv.reader row at a time: the ingest specification.
    numeric holds (column, kind) pairs, kind a key of _KINDS; text columns,
    with refuse_blank, may not be blank. Returns the numeric columns as
    float arrays, each text column's _levels and each row's last physical
    line (csv.DictReader's line_num); a repeated header name means its last
    column. Rows are checked, the first failure raising, by field count,
    then numeric columns, then text columns; a row csv refuses fails too."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        records = _records(reader)
        header = next(records, None)
        if header is None:
            raise EmptyFile(path)
        for col in [c for c, _ in numeric] + list(text):
            if col not in header:
                raise MissingColumn(col)
        pos = {name: i for i, name in enumerate(header)}
        numbers: list[list[float]] = [[] for _ in numeric]
        strings: list[list[str]] = [[] for _ in text]
        lines = []
        for row in filter(None, records):  # csv.DictReader skips blank lines too
            line = reader.line_num
            if len(row) != len(header):
                raise MalformedRow(line, "wrong number of fields")
            for (col, kind), out in zip(numeric, numbers):
                out.append(_parse(row[pos[col]], col, kind, line))
            for col, out in zip(text, strings):
                if refuse_blank and row[pos[col]].strip() == "":
                    raise MalformedRow(line, f"missing {col}")
                out.append(row[pos[col]])
            lines.append(line)
    if not lines:
        raise EmptyFile(path)
    return [np.array(a, dtype=np.float64) for a in numbers], list(map(_levels, strings)), lines


def _read_columns(path: str, numeric, text, refuse_blank: bool) -> _Columns | None:
    """_read_rows's result from one pass of numpy's C reader, or None where
    it might differ; it may also raise where _read_rows would not."""
    with open(path, "rb") as fh:
        raw = fh.read()
    # The checks run on the bytes, which hold each ASCII character as itself; the
    # header line is the file up to its first \n, and where it holds a \r other
    # than a CRLF's the physical lines of csv.reader and loadtxt may differ.
    start = raw.find(b"\n") + 1
    line = raw[:start].removesuffix(b"\n").removesuffix(b"\r")
    if not start or b"\r" in line:
        return None
    reader = csv.reader([line.decode("utf-8"), ""])  # a record that runs on reads the "" too
    header = next(reader)  # with no header, or a column missing, _read_rows reports it
    # loadtxt skips one physical line, also splits at a bare \r and reads \x1c-\x1f
    # around a number as whitespace. csv.reader refuses \x00 before Python 3.11, and any
    # field over its limit, counted in characters: a line that long holds an aligned
    # block of half the limit in bytes with no \n (so may a shorter multibyte line).
    half = csv.field_size_limit() // 2
    if (
        reader.line_num != 1
        or any(raw.find(c, start) >= 0 for c in (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f"))
        or (raw.find(b"\r", start) >= 0 and raw.count(b"\r", start) != raw.count(b"\r\n", start))
        or not all(raw.find(b"\n", i, i + half) >= 0 for i in range(start, len(raw) - half + 1, half))
    ):
        return None
    line_count = np.count_nonzero(np.frombuffer(raw, np.uint8, offset=start) == 10)
    line_count += not raw.endswith(b"\n", start)  # an unended last line, or none
    del raw
    pos = {name: i for i, name in enumerate(header)}
    # Text is read as object, as a "U" field in a structured dtype comes back
    # empty; other columns as U0, which counts the field and stores nothing.
    dtypes = {pos[col]: "f8" for col, _ in numeric} | {pos[col]: object for col in text}
    dtype = [(f"f{i}", dtypes.get(i, "U0")) for i in range(len(header))]
    table = np.loadtxt(path, dtype, **_LOADTXT)
    numbers = [np.ascontiguousarray(table[f"f{pos[col]}"]) for col, _ in numeric]
    levels = [_levels(table[f"f{pos[col]}"].tolist()) for col in text]
    if (
        len(table) != line_count  # a blank line, or a record over several lines
        or not all(_KINDS[kind][0](a).all() for (_, kind), a in zip(numeric, numbers))
        or (refuse_blank and any(v.strip() == "" for vs, _ in levels for v in vs))
    ):
        return None
    return numbers, levels, range(2, len(table) + 2)  # one physical line per record


def _load(path: str, numeric, text: Sequence[str], refuse_blank: bool) -> _Columns:
    """_read_rows's result, from _read_columns unless that returns None,
    raises or warns."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            columns = _read_columns(path, numeric, text, refuse_blank)
        if columns is not None and not caught:
            return columns
    except Exception:  # noqa: BLE001 - _read_rows raises what is real
        pass
    return _read_rows(path, numeric, text, refuse_blank)


def _quantile_levels(
    col: str, values: list[str], codes: np.ndarray, k: int, lines: Sequence[int]
) -> tuple[np.ndarray, list[str]]:
    """Rank-based k-quantile bins with midpoint tie ranks: each row's bin
    (k for a blank value, which stays out of the ranking) and the labels
    q1..qk, "missing". Distinct values are ranked, weighted by their row
    counts. A value that is not a finite number raises on the line of its
    first row."""
    present = np.array([v.strip() != "" for v in values], dtype=bool)
    numbers = np.full(len(values), math.nan)
    try:  # every present value in one pass; _parse names the first that fails
        numbers[present] = list(map(float, compress(values, present)))
    except ValueError:
        pass
    for j in np.flatnonzero(present & ~_KINDS["outcome"][0](numbers)):  # by first appearance
        try:
            numbers[j] = _parse(values[j], col, "outcome", 0)
        except MalformedRow as exc:
            raise MalformedRow(lines[int(np.argmax(codes == j))], exc.reason) from None
    counts = np.bincount(codes, minlength=len(values))[present]
    level = np.full(len(values), k)
    if present.any():
        ranks = _midranks(numbers[present], counts)
        bins = np.ceil(ranks * k / counts.sum()).astype(int) - 1
        if len(np.unique(bins)) < k:
            raise EmptyBin(f"quantile({k}) on column {col!r} leaves an empty bin")
        level[present] = bins
    return level[codes], [f"q{b + 1}" for b in range(k)] + ["missing"]


def _strata(
    cols: Sequence[str], columns: list[tuple[np.ndarray, list[str]]]
) -> tuple[np.ndarray, list[str]]:
    """Cross per-column (row codes, code labels) into each row's stratum
    and the stratum labels: the label itself for one column, "col=label|..."
    for several. Rows whose labels read the same share a stratum."""
    key = np.zeros(len(columns[0][0]), dtype=np.intp)
    for codes, labels in columns:  # re-densified after each column
        (key,), _, (first,) = first_appearance((key * len(labels) + codes)[None, :])
    if len(columns) == 1:
        ((codes, labels),) = columns
        names = [labels[c] for c in codes[first]]
    else:
        names = [
            "|".join(f"{col}={labels[codes[i]]}" for col, (codes, labels) in zip(cols, columns))
            for i in first
        ]
    labels, merged = _levels(names)
    return merged[key], labels


def _relabel(obj, names: list[str]):
    """obj, built with integer strata, with each label g replaced by names[g]."""
    return replace(obj, stratum_labels=tuple(names[g] for g in obj.stratum_labels))


def load_csv(path: str, schema: DatasetSchema) -> ObservedSample:
    """Parse a dataset CSV into an ObservedSample.

    Malformed rows are rejected with their physical line number; missing
    covariate values become the "missing" stratum, or a MalformedRow under
    missing_policy "error"; no strata_cols puts every unit in a single
    "all" stratum.
    """
    cols = schema.strata_cols
    numeric = [(schema.z_col, "binary"), (schema.d_col, "binary"), (schema.y_col, "outcome")]
    (z, d, y), levels, lines = _load(path, numeric, cols, schema.missing_policy == "error")
    if not cols:
        return _relabel(ObservedSample.from_arrays(z=z, d=d, y=y), ["all"])
    columns = []
    for col, (values, codes) in zip(cols, levels):
        kind, k = schema.binning[col]
        if kind == "quantile":
            columns.append(_quantile_levels(col, values, codes, k, lines))
        else:
            columns.append((codes, ["missing" if v.strip() == "" else v for v in values]))
    strata, names = _strata(cols, columns)
    return _relabel(ObservedSample.from_arrays(z=z, d=d, y=y, strata=strata), names)


def save_csv(sample: ObservedSample, fh: IO[str]) -> None:
    """Emit a sample as z,d,y,stratum CSV readable by the default schema.

    Stratum labels are stringified, so emit-then-load reproduces the exact
    sample whenever labels are strings (the partition is preserved always).
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["z", "d", "y", "stratum"])
    labels = sample.stratum_labels
    for i in range(sample.n):
        writer.writerow(
            [
                int(sample.z[i]),
                int(sample.d[i]),
                repr(float(sample.y[i])),
                str(labels[sample.strata[i]]),
            ]
        )


def load_science_csv(path: str) -> ScienceTable:
    """Parse a potential-outcome table CSV: y0,y1,d0,d1 plus optional stratum."""
    with open(path, encoding="utf-8", newline="") as fh:
        text = ("stratum",) if "stratum" in (next(_records(csv.reader(fh)), None) or ()) else ()
    numeric = [("y0", "outcome"), ("y1", "outcome"), ("d0", "binary"), ("d1", "binary")]
    (y0, y1, d0, d1), levels, _ = _load(path, numeric, text, False)
    if not levels:
        return ScienceTable.from_arrays(y0=y0, y1=y1, d0=d0, d1=d1)
    ((values, codes),) = levels
    strata, names = _strata(text, [(codes, ["missing" if v == "" else v for v in values])])
    return _relabel(ScienceTable.from_arrays(y0=y0, y1=y1, d0=d0, d1=d1, strata=strata), names)


@dataclass(frozen=True)
class ReportRow:
    """One estimator line of the headline report; None marks an
    unavailable cell."""

    method: str
    pi_c_hat: float | None
    estimate: float | None
    se_bloom: float | None
    se_delta: float | None
    pct_se: float | None
    n: int | None
    p_value: float | None


@dataclass(frozen=True)
class ReportTable:
    rows: tuple[ReportRow, ...]
    se_kind: str  # bloom | delta | both


@dataclass(frozen=True)
class StratumRow:
    stratum: str
    n: int
    pi_c_hat: float
    cace: float | None  # None when f_hat_g = 0: the stratum IV is undefined
    se_bloom: float | None


def _two_sided_p(estimate: float, se: float | None) -> float | None:
    if se is None or se == 0.0 or not math.isfinite(se):
        return None
    return math.erfc(abs(estimate / se) / math.sqrt(2.0))


def analyze(
    sample: ObservedSample,
    estimators: Sequence[str] = DEFAULT_REPORT_ESTIMATORS,
    config: EstimatorConfig | None = None,
    se: str = "bloom",
) -> ReportTable:
    """Run the requested estimators and assemble the headline table.

    %SE compares each estimator's SE to the unstratified one (computed
    even when UNSTRAT is not in the requested set); p-values use the Bloom
    SE with a normal approximation. Estimator failures leave unavailable
    cells rather than aborting. Every estimator runs on one ObservedBlock,
    the sample's moments (ObservedBlock.of, one block_moments call), so
    they are computed once per call.
    """
    if se not in ("bloom", "delta", "both"):
        raise ValueError(f"se must be bloom, delta, or both, got {se!r}")
    check_tags(estimators)
    config = config or EstimatorConfig()
    block = ObservedBlock.of(sample)

    def attempt(tag: str) -> EstimateReport | None:
        try:
            return _report(estimate_rows(block, tag, config), tag, sample.stratum_labels)
        except EstimationError:
            return None

    base = attempt("UNSTRAT")

    def pct(se_b: float | None, se_d: float | None) -> float | None:
        if base is None:
            return None
        ref, own = (base.se_delta, se_d) if se == "delta" else (base.se_bloom, se_b)
        if ref is None or own is None or ref == 0.0:
            return None
        return 100.0 * own / ref

    rows = []
    for tag in estimators:
        rep = base if tag == "UNSTRAT" else attempt(tag)
        if rep is None:
            rows.append(ReportRow(tag, None, None, None, None, None, None, None))
            continue
        rows.append(
            ReportRow(
                method=tag,
                pi_c_hat=rep.f_hat,
                estimate=rep.estimate,
                se_bloom=rep.se_bloom,
                se_delta=rep.se_delta,
                pct_se=pct(rep.se_bloom, rep.se_delta),
                n=rep.n_used,
                p_value=_two_sided_p(rep.estimate, rep.se_bloom),
            )
        )
    return ReportTable(rows=tuple(rows), se_kind=se)


def stratum_report(sample: ObservedSample) -> tuple[StratumRow, ...]:
    """Per-stratum compliance, IV estimate, and Bloom SE; strata with
    f_hat_g = 0 get an undefined estimate, and strata with fewer than two
    units in an arm no SE."""
    m = stratum_moments(sample)
    f = m.f_hat
    with np.errstate(divide="ignore", invalid="ignore"):
        cace = m.itt_hat / f
        se = np.sqrt(_var_itt(m)) / np.abs(f)
    two_per_arm = _two_per_arm(m)
    return tuple(
        StratumRow(
            stratum=str(label),
            n=int(m.n_g[g]),
            pi_c_hat=float(f[g]),
            cace=float(cace[g]) if f[g] != 0.0 else None,
            se_bloom=float(se[g]) if f[g] != 0.0 and two_per_arm[g] else None,
        )
        for g, label in enumerate(sample.stratum_labels)
    )


def _fmt(x: float | int | str | None) -> str:
    if x is None:
        return ""
    if isinstance(x, (str, int)):
        return str(x)
    if not math.isfinite(x):
        return "nan"
    return f"{x:.4g}"


def report_csv(table: ReportTable) -> str:
    """Fixed-format CSV rendering: 4 significant digits, byte-stable. The
    columns are ReportRow's fields but the SE that se_kind leaves out."""
    unused = {"bloom": "se_delta", "delta": "se_bloom"}.get(table.se_kind)
    cols = [f.name for f in fields(ReportRow) if f.name != unused]
    out = [",".join(cols)]
    out += [",".join(_fmt(getattr(row, col)) for col in cols) for row in table.rows]
    return "\n".join(out) + "\n"


def stratum_csv(rows: Iterable[StratumRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["stratum", "n", "pi_c_hat", "cace", "se_bloom"])
    for r in rows:
        cace = "undefined" if r.cace is None else _fmt(r.cace)
        writer.writerow([r.stratum, r.n, _fmt(r.pi_c_hat), cace, _fmt(r.se_bloom)])
    return out.getvalue()


def _clean(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _json_record(row: ReportRow | StratumRow) -> dict:
    return {k: _clean(v) if isinstance(v, float) else v for k, v in asdict(row).items()}


def report_json(table: ReportTable, strata: Iterable[StratumRow] | None = None) -> str:
    """JSON rendering: each row's fields in order, non-finite floats null."""
    obj: dict = {"methods": [_json_record(r) for r in table.rows]}
    if strata is not None:
        obj["strata"] = [_json_record(r) for r in strata]
    return json.dumps(obj, indent=2) + "\n"


def _flag(raw: str) -> int:
    """A flag cell: exactly 0 or 1, as write_metrics_csv writes one."""
    if raw not in ("0", "1"):
        raise ValueError(f"flag {raw!r} is not 0 or 1")
    return int(raw)


# Each metrics column is the EstimatorMetrics or ScenarioMetrics field of its
# name, and that field's declared type gives the column's (format, parse)
# pair: floats as shortest round-trip decimals, so parsing the file back
# reproduces exact values, and flags as 0/1.
_CODECS = {
    float: (lambda v: repr(float(v)), float),
    bool: (lambda v: str(int(v)), _flag),
    int: (str, int),
    str: (str, str),
}


@functools.cache
def _metrics_codecs() -> dict[str, tuple]:
    """Each metrics column's (format, parse, whether an EstimatorMetrics
    row holds it rather than its ScenarioMetrics)."""
    from .simulation import EstimatorMetrics, ScenarioMetrics

    row_types = get_type_hints(EstimatorMetrics)
    types = get_type_hints(ScenarioMetrics) | row_types
    return {col: (*_CODECS[types[col]], col in row_types) for col in METRICS_COLUMNS}


def write_metrics_csv(metrics: Iterable[ScenarioMetrics], fh: IO[str]) -> None:
    """Machine-facing metrics table: one line per estimator row of each
    scenario, in METRICS_COLUMNS."""
    codecs = _metrics_codecs()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    writer.writerows(
        [fmt(getattr(row if on_row else m, col)) for col, (fmt, _, on_row) in codecs.items()]
        for m in metrics
        for row in m.rows
    )


def read_metrics_csv(fh: IO[str]) -> list[dict]:
    """A metrics table's rows as dicts of parsed cells; a row of the wrong
    length, with a cell its column does not parse, or that csv refuses,
    raises MalformedRow."""
    reader = csv.reader(fh)
    records = _records(reader)
    header = next(records, None)
    if header is None:
        raise EmptyFile("metrics stream")
    if tuple(header) != METRICS_COLUMNS:
        raise MalformedRow(1, f"expected header {list(METRICS_COLUMNS)}, got {header}")
    parsers = [(col, parse) for col, (_, parse, _) in _metrics_codecs().items()]
    rows = []
    for row in filter(None, records):  # csv.DictReader skips blank lines too
        if len(row) != len(parsers):
            raise MalformedRow(reader.line_num, "wrong number of fields")
        parsed = {}
        for (col, parse), raw in zip(parsers, row):
            try:
                parsed[col] = parse(raw)
            except ValueError:
                reason = f"{col}={raw!r} is not a {parse.__name__.lstrip('_')}"
                raise MalformedRow(reader.line_num, reason) from None
        rows.append(parsed)
    return rows


def _config_from_dict(obj: Mapping) -> ScenarioConfig | ConcentrationConfig:
    from .simulation import ConcentrationConfig, ScenarioConfig

    cls = ConcentrationConfig if ("r" in obj or "target_p" in obj) else ScenarioConfig
    return cls(**_json_kwargs(cls, obj, cls.__name__))


def _load_configs(path: str) -> list[ScenarioConfig | ConcentrationConfig]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj = [obj] if isinstance(obj, dict) else obj
    if not isinstance(obj, list) or not obj or not all(isinstance(o, dict) for o in obj):
        raise ValueError("config JSON must be an object or a non-empty array of objects")
    return [_config_from_dict(o) for o in obj]


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _metrics_text(metrics: Iterable[ScenarioMetrics]) -> str:
    buf = io.StringIO()
    write_metrics_csv(metrics, buf)
    return buf.getvalue()


def _csv_floats(raw: str, flag: str) -> list[float]:
    try:
        values = [float(s) for s in raw.split(",") if s.strip() != ""]
    except ValueError:
        values = []
    if not values:  # an entry that is not a number, or no entries at all
        raise ValueError(f"{flag} must be a comma-separated list of numbers")
    return values


def _threads(raw: str) -> int:
    count = int(raw)
    if count < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return count


def _cmd_analyze(args: argparse.Namespace) -> int:
    schema = (
        DatasetSchema.from_json_file(args.schema) if args.schema else DatasetSchema()
    )
    sample = validate(load_csv(args.data, schema))
    tags = tuple(t.strip() for t in args.estimators.split(",") if t.strip())
    config = EstimatorConfig(
        dss_threshold=args.dss_threshold, dsf_f_min=args.dsf_fmin
    )
    table = analyze(sample, tags, config, se=args.se)
    strata = stratum_report(sample) if args.by_stratum else None
    if args.out == "json":
        sys.stdout.write(report_json(table, strata))
    else:
        sys.stdout.write(report_csv(table))
        if strata is not None:
            sys.stdout.write("\n" + stratum_csv(strata))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Every simulate command: run the configs its builder makes from args."""
    from .simulation import run_grid

    _write_text(args.out, _metrics_text(run_grid(args.configs(args), threads=args.threads)))
    return 0


def _sweep_r_configs(args: argparse.Namespace) -> list[ConcentrationConfig]:
    from .simulation import ConcentrationConfig

    weights = tuple(_csv_floats(args.weights, "--weights"))
    return [
        ConcentrationConfig(
            r=r,
            target_p=args.target_p,
            weights=weights,
            n=args.n,
            replications=args.replications,
            seed=args.seed + i,
            heterogeneous_tau=args.het_tau,
            predicts_outcome=args.predicts_outcome,
            never_taker_shift=args.nt_shift,
        )
        for i, r in enumerate(_csv_floats(args.r, "--r"))
    ]


def _random_strata_configs(args: argparse.Namespace) -> list[ScenarioConfig]:
    from .simulation import ScenarioConfig

    ks = _csv_floats(args.k, "--k")
    if not all(k.is_integer() for k in ks):
        raise ValueError("--k must be a comma-separated list of whole numbers")
    return [
        ScenarioConfig(
            n=args.n,
            target_pi_c=args.pi_c,
            replications=args.replications,
            seed=args.seed + i,
            random_strata_k=int(k),
        )
        for i, k in enumerate(ks)
    ]


def _grid_configs(args: argparse.Namespace) -> list[ScenarioConfig]:
    from .simulation import default_grid

    if args.quick:
        return default_grid(replications=100, seed=args.seed, n_values=(500,))
    return default_grid(replications=args.replications, seed=args.seed)


def _cmd_theory(args: argparse.Namespace) -> int:
    from .theory import (
        asyvar_iv,
        asyvar_iv_ps,
        bias_one_sided_exact,
        bias_one_sided_taylor,
        bias_two_sided_taylor,
        enumerate_expectation,
        moments,
    )

    table = load_science_csv(args.science_table)
    p = args.p
    m = moments(table, p)

    def attempt(fn):
        try:
            return _clean(fn())
        except EstimationError:
            return None

    out: dict = {
        "n": table.n,
        "p": p,
        "num_strata": table.num_strata,
        "pi_c": _clean(table.pi_c),
        "pi_a": _clean(table.pi_a),
        "pi_n": _clean(table.pi_n),
        "itt": _clean(table.itt),
        "cace": attempt(lambda: table.cace),
        "asyvar_iv": attempt(lambda: asyvar_iv(m)),
        "asyvar_iv_ps": attempt(lambda: asyvar_iv_ps(m)),
    }
    if table.one_sided:
        out["bias_exact_conditional"] = attempt(
            lambda: bias_one_sided_exact(table, p, convention="condition")
        )
        out["bias_taylor_hypergeometric"] = attempt(
            lambda: bias_one_sided_taylor(m, variant="hypergeometric")
        )
        out["bias_taylor_binomial"] = attempt(
            lambda: bias_one_sided_taylor(m, variant="binomial")
        )
    else:
        out["bias_taylor_two_sided"] = attempt(lambda: bias_two_sided_taylor(m))
    if not args.no_enumeration:
        try:
            enum = enumerate_expectation(table, p, "UNSTRAT", convention="condition")
            cace = out["cace"]
            out["enum_unstrat"] = {
                "mean": _clean(enum.mean),
                "variance": _clean(enum.variance),
                "bias": _clean(enum.mean - cace) if cace is not None else None,
                "undefined_mass": _clean(enum.undefined_mass),
                "n_assignments": enum.n_assignments,
            }
        except EstimationError:
            out["enum_unstrat"] = None
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: print usage and reason to stderr, exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ivstrat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="estimate treatment effects from a dataset CSV")
    pa.add_argument("--data", required=True, help="dataset CSV path")
    pa.add_argument("--schema", help="dataset schema JSON path (default: z,d,y,stratum)")
    pa.add_argument(
        "--estimators",
        default=",".join(DEFAULT_REPORT_ESTIMATORS),
        help="comma-separated estimator names",
    )
    pa.add_argument("--dss-threshold", type=float, default=0.02)
    pa.add_argument("--dsf-fmin", type=float, default=10.0)
    pa.add_argument("--se", choices=("bloom", "delta", "both"), default="bloom")
    pa.add_argument(
        "--out",
        choices=("csv", "json"),
        default="csv",
        help="report format; the report goes to stdout",
    )
    pa.add_argument("--by-stratum", action="store_true", help="append per-stratum table")
    pa.set_defaults(func=_cmd_analyze)

    # the simulate commands: each builds configs from its flags, and
    # _cmd_simulate runs them and writes their metrics
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--out", default="-", help="metrics CSV path, - for stdout")
    run.add_argument("--threads", type=_threads, default=1,
                     help="at least 1; kept for old scripts: one thread runs every chunk")
    run.set_defaults(func=_cmd_simulate)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--replications", type=int, default=1000)
    seeded.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("simulate", parents=[run], help="run scenarios from a JSON config")
    ps.add_argument("--config", required=True, help="scenario config JSON path")
    ps.set_defaults(configs=lambda args: _load_configs(args.config))

    pr = sub.add_parser("sweep-r", parents=[run, seeded], help="compliance-concentration sweep")
    pr.add_argument("--r", default="0,0.05,0.1,0.15,0.2,0.25,0.5,0.75,1")
    pr.add_argument("--target-p", type=float, default=0.15)
    pr.add_argument("--weights", default="0.35,0.30,0.20,0.15")
    pr.add_argument("--n", type=int, default=2000)
    pr.add_argument("--het-tau", action="store_true")
    pr.add_argument("--predicts-outcome", action="store_true")
    pr.add_argument("--nt-shift", type=float, default=0.0)
    pr.set_defaults(configs=_sweep_r_configs)

    pk = sub.add_parser("random-strata", parents=[run, seeded], help="uninformative-strata study")
    pk.add_argument("--k", default="1,2,3,6,12")
    pk.add_argument("--n", type=int, default=500)
    pk.add_argument("--pi-c", type=float, default=0.05)
    pk.set_defaults(configs=_random_strata_configs)

    pg = sub.add_parser(
        "grid", parents=[run, seeded], help="the full factorial simulation grid (216 scenarios)"
    )
    pg.add_argument(
        "--quick",
        action="store_true",
        help="n=500 only, 100 replications, for a fast end-to-end check",
    )
    pg.set_defaults(configs=_grid_configs)

    pt = sub.add_parser(
        "theory", help="analytic bias/variance oracles for a potential-outcome table"
    )
    pt.add_argument("--science-table", required=True, help="y0,y1,d0,d1[,stratum] CSV")
    pt.add_argument("--p", type=float, default=0.5, help="treatment probability")
    pt.add_argument("--no-enumeration", action="store_true")
    pt.set_defaults(func=_cmd_theory)

    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Entry point returning an exit code: 0 on success, 1 for a ValueError
    or OSError (the caller's mistake), 2 for an EstimationError."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
