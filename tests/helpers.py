"""Shared sample and table builders for the test suite."""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.stats import rankdata

from ivstrat import ObservedSample, ScienceTable
from ivstrat.data_model import (
    EmptyBin,
    EmptyFile,
    MalformedRow,
    MissingColumn,
    RankDeficient,
    StratumMoments,
    stratum_moments,
)
from ivstrat.io_cli import DatasetSchema, _parse_binary, _parse_outcome


def pooled_moments(s: ObservedSample) -> StratumMoments:
    """Moments with every unit of s in one stratum: itt_hat[0] and f_hat[0]
    are the unstratified ITT and compliance estimates."""
    return stratum_moments(ObservedSample.from_arrays(s.z, s.d, s.y))


def sample_a() -> ObservedSample:
    """Single stratum, 4 units, hand-checkable moments.

    itt = 1, f_hat = 0.5, IV = 2; s2_y1 = 2, s2_y0 = 2, s2_d1 = 0.5;
    var(ITT) plug-in = 2, Bloom SE = 2*sqrt(2), delta SE = 2.
    """
    return ObservedSample.from_arrays(
        z=[1, 1, 0, 0], d=[1, 0, 0, 0], y=[3.0, 1.0, 2.0, 0.0]
    )


def sample_two_strata() -> ObservedSample:
    """Stratum "x" is sample_a's data (itt 1, f_hat 0.5); stratum "w" has
    itt 2 and f_hat 0. IV-w keeps only "x" (estimate 2); IV-a keeps both
    (ITT_ps 1.5 over f_ps 0.25 = 6)."""
    return ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 1, 0, 0],
        d=[1, 0, 0, 0, 0, 0, 0, 0],
        y=[3.0, 1.0, 2.0, 0.0, 4.0, 2.0, 1.0, 1.0],
        strata=["x", "x", "x", "x", "w", "w", "w", "w"],
    )


def sample_pwiv() -> ObservedSample:
    """Two strata with d == z. Stratum 0: itt 1, var(ITT) plug-in 2;
    stratum 1: itt 2, var 4. Precision weights 1/2 and 1/4, so the
    weighted estimate is 4/3 and its SE sqrt(1/0.75)."""
    return ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 1, 0, 0],
        d=[1, 1, 0, 0, 1, 1, 0, 0],
        y=[3.0, 1.0, 2.0, 0.0, 5.0, 1.0, 1.0, 1.0],
        strata=[0, 0, 0, 0, 1, 1, 1, 1],
    )


def random_sample(
    rng: np.random.Generator,
    n_range: tuple[int, int] = (20, 200),
    g_range: tuple[int, int] = (1, 6),
    one_sided: bool | None = None,
    require_nonzero_f: bool = True,
) -> ObservedSample:
    """A valid random sample: every stratum has >= 2 units per arm, and
    (by default) every stratum f_hat is nonzero. Rejection-samples until
    the guarantees hold."""
    if one_sided is None:
        one_sided = bool(rng.integers(0, 2))
    while True:
        g = int(rng.integers(g_range[0], g_range[1] + 1))
        n = int(rng.integers(max(n_range[0], 8 * g), n_range[1] + 1))
        strata = np.repeat(np.arange(g), 8)  # floor of 4 per arm per stratum
        strata = np.concatenate([strata, rng.integers(0, g, n - len(strata))])
        z = np.zeros(n, dtype=int)
        for s in range(g):  # balanced coin flips within stratum
            idx = np.flatnonzero(strata == s)
            z[idx[rng.permutation(len(idx))[: len(idx) // 2]]] = 1
        pc = rng.uniform(0.3, 0.9, g)
        pa = np.zeros(g) if one_sided else rng.uniform(0.0, 0.4, g) * (1 - pc)
        u = rng.random(n)
        always = u < pa[strata]
        complier = (u >= pa[strata]) & (u < (pa + pc)[strata])
        d = np.where(always, 1, np.where(complier, z, 0))
        y = rng.normal(0, 1, n) + 0.8 * d + 0.3 * strata
        ok = True
        if require_nonzero_f:
            for s in range(g):
                m1 = d[(strata == s) & (z == 1)].mean()
                m0 = d[(strata == s) & (z == 0)].mean()
                if m1 == m0:
                    ok = False
                    break
        if ok:
            return ObservedSample.from_arrays(z=z, d=d, y=y, strata=strata)


def one_sided_table(
    n: int,
    n_c: int,
    delta: float,
    tau: float = 0.5,
    rng: np.random.Generator | None = None,
    noise: float = 0.0,
) -> ScienceTable:
    """One-sided table with exactly n_c compliers and control-mean gap
    Ybar_c(0) - Ybar_n(0) = delta (exact when noise = 0)."""
    ctype = np.zeros(n, dtype=int)
    ctype[:n_c] = 1
    y0 = np.where(ctype == 1, delta, 0.0)
    if noise > 0.0:
        if rng is None:
            rng = np.random.default_rng(0)
        eps = rng.normal(0, noise, n)
        for grp in (0, 1):  # recenter so group means stay exact
            mask = ctype == grp
            if mask.any():
                eps[mask] -= eps[mask].mean()
        y0 = y0 + eps
    y1 = y0 + tau * ctype
    return ScienceTable.from_arrays(
        y0=y0, y1=y1, d0=np.zeros(n, dtype=int), d1=ctype
    )


def stratified_table(
    rng: np.random.Generator,
    n: int = 2000,
    num_strata: int = 4,
    compliers_per_stratum: tuple[int, ...] = (125, 50, 20, 5),
    tau: float = 0.5,
) -> ScienceTable:
    """Fixed-composition stratified one-sided table: equal stratum sizes,
    a declining complier count per stratum, stratum-shifted control means."""
    size = n // num_strata
    assert size * num_strata == n
    strata = np.repeat(np.arange(num_strata), size)
    ctype = np.zeros(n, dtype=int)
    for s, k in enumerate(compliers_per_stratum):
        ctype[s * size : s * size + k] = 1
    mu = 0.71 * (strata - (num_strata - 1) / 2.0)
    y0 = mu + rng.normal(0, 0.6, n)
    y1 = y0 + tau * ctype
    return ScienceTable.from_arrays(
        y0=y0, y1=y1, d0=np.zeros(n, dtype=int), d1=ctype, strata=strata
    )


def tsls_dummies_lstsq(sample: ObservedSample) -> tuple[float, float, float | None]:
    """Independent oracle for TSLS_DUMMY: 2SLS by least squares on the
    n x (G+1) designs [1, stratum indicators 1..G-1, regressor].

    Returns (estimate, first-stage slope, homoskedastic SE or None when
    N - G - 1 < 1); raises RankDeficient when a stage's design is.
    """
    n, g = sample.n, sample.num_strata

    def design(last: np.ndarray) -> np.ndarray:
        x = np.empty((n, g + 1))
        x[:, 0] = 1.0
        if g > 1:
            x[:, 1:g] = sample.strata[:, None] == np.arange(1, g)
        x[:, g] = last
        return x

    x1 = design(sample.z.astype(np.float64))
    beta1, _, rank1, _ = np.linalg.lstsq(x1, sample.d.astype(np.float64), rcond=None)
    if rank1 < g + 1:
        raise RankDeficient("first-stage design matrix is rank deficient")
    x2 = design(x1 @ beta1)
    beta2, _, rank2, _ = np.linalg.lstsq(x2, sample.y, rcond=None)
    if rank2 < g + 1:
        raise RankDeficient("second-stage design matrix is rank deficient")
    se = None
    dof = n - (g + 1)
    if dof >= 1:
        resid = sample.y - design(sample.d.astype(np.float64)) @ beta2
        cov = float(resid @ resid) / dof * np.linalg.inv(x2.T @ x2)
        se = math.sqrt(max(float(cov[g, g]), 0.0))
    return float(beta2[g]), float(beta1[g]), se


def _quantile_labels_rowwise(
    raw: list[str | None], k: int, col: str, lines: list[int]
) -> list[str]:
    """Rank-based k-quantile bins with midpoint tie ranks; missing values
    keep their own label and stay out of the ranking."""
    present_idx = []
    values = []
    labels: list[str | None] = [None] * len(raw)
    for i, s in enumerate(raw):
        if s is None or s.strip() == "":
            labels[i] = "missing"
            continue
        try:
            v = float(s)
        except ValueError:
            raise MalformedRow(lines[i], f"{col}={s!r} is not numeric") from None
        if not math.isfinite(v):
            raise MalformedRow(lines[i], f"{col}={s!r} is not finite")
        present_idx.append(i)
        values.append(v)
    if present_idx:
        ranks = rankdata(values, method="average")
        n = len(values)
        bins = np.ceil(ranks * k / n).astype(int) - 1
        if len(np.unique(bins)) < k:
            raise EmptyBin(f"quantile({k}) on column {col!r} leaves an empty bin")
        for i, b in zip(present_idx, bins):
            labels[i] = f"q{b + 1}"
    return labels


def load_csv_rowwise(path: str, schema: DatasetSchema) -> ObservedSample:
    """Independent oracle for io_cli.load_csv: one csv.DictReader row at a
    time, each row's line number taken from the reader."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(path)
        for col in (schema.z_col, schema.d_col, schema.y_col, *schema.strata_cols):
            if col not in reader.fieldnames:
                raise MissingColumn(col)
        z: list[int] = []
        d: list[int] = []
        y: list[float] = []
        raw_strata: dict[str, list[str | None]] = {c: [] for c in schema.strata_cols}
        lines: list[int] = []
        for row in reader:
            line = reader.line_num
            if row.get(None) is not None or None in row.values():
                raise MalformedRow(line, "wrong number of fields")
            z.append(_parse_binary(row[schema.z_col], schema.z_col, line))
            d.append(_parse_binary(row[schema.d_col], schema.d_col, line))
            y.append(_parse_outcome(row[schema.y_col], schema.y_col, line))
            for col in schema.strata_cols:
                raw = row[col]
                if schema.missing_policy == "error" and (raw is None or raw.strip() == ""):
                    raise MalformedRow(line, f"missing {col}")
                raw_strata[col].append(raw)
            lines.append(line)
    if not z:
        raise EmptyFile(path)

    col_labels: dict[str, list[str]] = {}
    for col in schema.strata_cols:
        kind, k = schema.binning[col]
        if kind == "quantile":
            col_labels[col] = _quantile_labels_rowwise(raw_strata[col], k, col, lines)
        else:
            col_labels[col] = [
                "missing" if (s is None or s.strip() == "") else s
                for s in raw_strata[col]
            ]
    if len(schema.strata_cols) == 0:
        strata = ["all"] * len(z)
    elif len(schema.strata_cols) == 1:
        strata = col_labels[schema.strata_cols[0]]
    else:
        strata = [
            "|".join(f"{col}={col_labels[col][i]}" for col in schema.strata_cols)
            for i in range(len(z))
        ]
    return ObservedSample.from_arrays(z=z, d=d, y=y, strata=strata)


def load_science_csv_rowwise(path: str) -> ScienceTable:
    """Independent oracle for io_cli.load_science_csv, row by row."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFile(path)
        for col in ("y0", "y1", "d0", "d1"):
            if col not in reader.fieldnames:
                raise MissingColumn(col)
        has_stratum = "stratum" in reader.fieldnames
        y0, y1, d0, d1, strata = [], [], [], [], []
        for row in reader:
            line = reader.line_num
            if row.get(None) is not None or None in row.values():
                raise MalformedRow(line, "wrong number of fields")
            y0.append(_parse_outcome(row["y0"], "y0", line))
            y1.append(_parse_outcome(row["y1"], "y1", line))
            d0.append(_parse_binary(row["d0"], "d0", line))
            d1.append(_parse_binary(row["d1"], "d1", line))
            if has_stratum:
                raw = row["stratum"]
                strata.append("missing" if raw is None or raw == "" else raw)
    if not y0:
        raise EmptyFile(path)
    return ScienceTable.from_arrays(
        y0=y0, y1=y1, d0=d0, d1=d1, strata=strata if strata else None
    )
