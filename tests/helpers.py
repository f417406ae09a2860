"""Shared sample and table builders for the test suite."""

from __future__ import annotations

import csv
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.stats import rankdata

from ivstrat import ObservedSample, ScienceTable, data_model
from ivstrat.data_model import (
    ALWAYS_TAKER,
    COMPLIER,
    NEVER_TAKER,
    EmptyBin,
    EmptyFile,
    EstimationError,
    MalformedRow,
    MissingColumn,
    StratumMoments,
    _treated_count,
    science_to_observed,
    stratum_moments,
)
from ivstrat.io_cli import DatasetSchema
from ivstrat.theory import EnumerationResult, _summarize

SRC = Path(__file__).resolve().parents[1] / "src"

# every exception class that data_model defines
ERROR_CLASSES = [
    c for c in vars(data_model).values()
    if isinstance(c, type) and issubclass(c, Exception) and c.__module__ == data_model.__name__
]


def fresh_python(code: str) -> str:
    """The stdout of code run by a new interpreter that imports ivstrat
    from this checkout's src/."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    return proc.stdout


def rep_rng(seed: int, rep: int) -> np.random.Generator:
    """Replication rep's stream as numpy builds it: a Philox generator
    seeded by SeedSequence(entropy=seed, spawn_key=(rep,))."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep,))
    return np.random.Generator(np.random.Philox(ss))


def pooled_moments(s: ObservedSample) -> StratumMoments:
    """Moments with every unit of s in one stratum: itt_hat[0] and f_hat[0]
    are the unstratified ITT and compliance estimates."""
    return stratum_moments(ObservedSample.from_arrays(s.z, s.d, s.y))


def pooled_pass(z: np.ndarray, d: np.ndarray, y: np.ndarray) -> StratumMoments:
    """Pooled (R, 1) moments of (R, n) blocks by a pass of their own: each
    row's two arm cells (2 rep + z) counted, summed (d over its nonzero
    units) and centred by separate bincounts, as block_moments computed
    them before its stratified sums gave the pooled counts and d sums."""
    r = len(z)
    cell = (2 * np.arange(r)[:, None] + z).ravel()
    y, d = y.ravel(), d.ravel()
    ncells = 2 * r
    counts = np.bincount(cell, minlength=ncells).astype(np.float64)
    sum_y = np.bincount(cell, weights=y, minlength=ncells)
    taken = np.flatnonzero(d)
    sum_d = np.bincount(cell[taken], weights=d[taken], minlength=ncells)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_y = sum_y / counts
        mean_d = sum_d / counts
    ry = y - mean_y[cell]
    rd = d - mean_d[cell]
    ss_yd = np.bincount(cell, weights=ry * rd, minlength=ncells)
    ss_y = np.bincount(cell, weights=ry * ry, minlength=ncells)
    ss_d = np.bincount(cell, weights=rd * rd, minlength=ncells)
    dof = counts - 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        s2_y, s2_d, s_yd = (np.where(dof >= 1, ss / dof, np.nan) for ss in (ss_y, ss_d, ss_yd))

    def arms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = a.reshape(r, 1, 2)
        return a[..., 1], a[..., 0]

    (n1, n0), (ybar1, ybar0), (dbar1, dbar0) = arms(counts), arms(mean_y), arms(mean_d)
    (s2_y1, s2_y0), (s2_d1, s2_d0), (s_yd1, s_yd0) = arms(s2_y), arms(s2_d), arms(s_yd)
    return StratumMoments(
        (n0 + n1).astype(np.intp), n1.astype(np.intp), n0.astype(np.intp), ybar1, ybar0,
        dbar1, dbar0, s2_y1, s2_y0, s2_d1, s2_d0, s_yd1, s_yd0,
    )


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


def random_science_table(rng: np.random.Generator, one_sided: bool) -> ScienceTable:
    """A science table of 8 to 120 units (a multiple of 4) in 1 to 4 strata
    of at least 2 units each, with at least one complier; always-takers
    appear only when one_sided is False. Outcomes are continuous, so no
    variance vanishes."""
    g = int(rng.integers(1, 5))
    n = 4 * int(rng.integers(2, 31))
    strata = np.concatenate([np.repeat(np.arange(g), 2), rng.integers(0, g, n - 2 * g)])
    pa = 0.0 if one_sided else rng.uniform(0.0, 0.4)
    pc = pa + rng.uniform(0.1, 0.6)
    u = rng.random(n)
    ctype = np.where(u < pa, ALWAYS_TAKER, np.where(u < pc, COMPLIER, NEVER_TAKER))
    ctype[0] = COMPLIER
    y0 = rng.normal(0.3 * strata, 1.0)
    y1 = y0 + (ctype == COMPLIER) * rng.normal(0.8, 0.5, n)
    return ScienceTable.from_arrays(
        y0=y0, y1=y1, d0=ctype == ALWAYS_TAKER, d1=ctype != NEVER_TAKER, strata=strata
    )


class StageRankDeficient(Exception):
    """A least-squares stage (1 or 2) whose design matrix is rank deficient."""

    def __init__(self, stage: int):
        self.stage = stage
        super().__init__(f"stage {stage} design matrix is rank deficient")


def tsls_dummies_lstsq(sample: ObservedSample) -> tuple[float, float, float | None]:
    """Independent oracle for TSLS_DUMMY: 2SLS by least squares on the
    n x (G+1) designs [1, stratum indicators 1..G-1, regressor].

    Returns (estimate, first-stage slope, homoskedastic SE or None when
    N - G - 1 < 1); raises StageRankDeficient when a stage's design is.
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
        raise StageRankDeficient(1)
    x2 = design(x1 @ beta1)
    beta2, _, rank2, _ = np.linalg.lstsq(x2, sample.y, rcond=None)
    if rank2 < g + 1:
        raise StageRankDeficient(2)
    se = None
    dof = n - (g + 1)
    if dof >= 1:
        resid = sample.y - design(sample.d.astype(np.float64)) @ beta2
        cov = float(resid @ resid) / dof * np.linalg.inv(x2.T @ x2)
        se = math.sqrt(max(float(cov[g, g]), 0.0))
    return float(beta2[g]), float(beta1[g]), se


def tsls_weighted_units(sample: ObservedSample) -> tuple[float, float] | None:
    """Independent oracle for TSLS_WEIGHTED: two weighted one-regressor
    least-squares stages on the units, with unit weights
    (N_g / N_{g,z})(n_z / N).

    Returns (estimate, first-stage slope), or None when a stage is
    undefined: an arm is empty, the first-stage slope is 0, or the slope is
    too small to move the fitted uptake.
    """
    z, codes = sample.z, sample.strata
    treated = z == 1
    n_g = np.bincount(codes, minlength=sample.num_strata)
    n_g1 = np.bincount(codes[treated], minlength=sample.num_strata)
    n_gz = np.where(treated, n_g1[codes], (n_g - n_g1)[codes]).astype(np.float64)
    n_z = np.where(treated, int(treated.sum()), int((~treated).sum())).astype(np.float64)
    w = (n_g[codes] / n_gz) * (n_z / sample.n)
    zf = z.astype(np.float64)
    first = _wls_slope(w, zf, sample.d.astype(np.float64))
    if first is None or first[1] == 0.0:
        return None
    second = _wls_slope(w, first[0] + first[1] * zf, sample.y)
    if second is None:
        return None
    return second[1], first[1]


def _wls_slope(w: np.ndarray, x: np.ndarray, v: np.ndarray) -> tuple[float, float] | None:
    """Weighted least squares of v on x with an intercept: (intercept,
    slope), or None when x has no weighted spread."""
    sw = float(np.sum(w))
    xbar = float(np.sum(w * x)) / sw
    vbar = float(np.sum(w * v)) / sw
    sxx = float(np.sum(w * (x - xbar) ** 2))
    if sxx == 0.0:
        return None
    sxv = float(np.sum(w * (x - xbar) * (v - vbar)))
    slope = sxv / sxx
    return vbar - slope * xbar, slope


def _s2(values: np.ndarray) -> float:
    return float(np.var(values, ddof=1)) if len(values) > 1 else float("nan")


def _s2_by_stratum(strata: np.ndarray, n_g: np.ndarray, values: np.ndarray) -> np.ndarray:
    g = len(n_g)
    mean = np.bincount(strata, weights=values, minlength=g) / n_g
    resid = values - mean[strata]
    ss = np.bincount(strata, weights=resid * resid, minlength=g)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(n_g > 1, ss / (n_g - 1.0), np.nan)


def _group_mean(mask: np.ndarray, values: np.ndarray) -> float:
    return float(np.mean(values[mask])) if mask.any() else float("nan")


def _group_mean_by_stratum(
    strata: np.ndarray, g: int, mask: np.ndarray, values: np.ndarray
) -> np.ndarray:
    counts = np.bincount(strata[mask], minlength=g)
    sums = np.bincount(strata[mask], weights=values[mask], minlength=g)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / counts, np.nan)


def reference_moments(table: ScienceTable, p: float) -> SimpleNamespace:
    """Independent oracle for theory.moments, in the three-part form of the
    first-order variance: compliance-type shares and group means, pooled
    and per stratum (g_* and *_g fields), and the variances of y1, y0,
    y1 - y0, d1, d0 and d1 - d0. The fields the bias formulas read are
    computed as theory.moments computes them, so those formulas accept
    either."""
    n, g, strata = table.n, table.num_strata, table.strata
    n_g = np.bincount(strata, minlength=g).astype(np.float64)
    ctype = table.compliance_type
    is_c, is_a, is_n = ctype == COMPLIER, ctype == ALWAYS_TAKER, ctype == NEVER_TAKER
    y1, y0 = table.y1, table.y0
    d1, d0 = table.d1.astype(np.float64), table.d0.astype(np.float64)
    outcomes = {"y1": y1, "y0": y0, "y01": y1 - y0, "d1": d1, "d0": d0, "d01": d1 - d0}
    groups = {"c": is_c, "a": is_a, "n": is_n}
    m = SimpleNamespace(
        n=n,
        p=p,
        n1=round(p * n),
        n0=n - round(p * n),
        n_g=n_g,
        pi_c=float(np.mean(is_c)),
        pi_a=float(np.mean(is_a)),
        pi_n=float(np.mean(is_n)),
        pi_gc=np.bincount(strata[is_c], minlength=g) / n_g,
        pi_ga=np.bincount(strata[is_a], minlength=g) / n_g,
        pi_gn=np.bincount(strata[is_n], minlength=g) / n_g,
        cace=table.cace if is_c.any() else float("nan"),
        cace_g=_group_mean_by_stratum(strata, g, is_c, y1 - y0),
    )
    for k, mask in groups.items():
        for arm, y in (("1", y1), ("0", y0)):
            setattr(m, f"ybar_{k}{arm}", _group_mean(mask, y))
            setattr(m, f"g_ybar_{k}{arm}", _group_mean_by_stratum(strata, g, mask, y))
    for name, v in outcomes.items():
        setattr(m, f"s2_{name}", _s2(v))
        setattr(m, f"g_s2_{name}", _s2_by_stratum(strata, n_g, v))
    return m


def enumerate_loop(table: ScienceTable, p: float, fn, convention=None) -> EnumerationResult:
    """Independent oracle for theory.enumerate_expectation: fn on the
    sample each assignment reveals, one assignment at a time in
    itertools.combinations order (nan where fn raises an EstimationError),
    summarized by the oracle's own rule."""
    n = table.n
    values = []
    for treated in itertools.combinations(range(n), _treated_count(n, p)):
        z = np.zeros(n, dtype=np.int8)
        z[list(treated)] = 1
        try:
            values.append(fn(science_to_observed(table, z)))
        except EstimationError:
            values.append(math.nan)
    return _summarize(np.array(values, dtype=np.float64), convention)


def _zterm(coef, diff):
    return np.where(coef == 0.0, 0.0, coef * diff)


def reference_cov_itt_f(p, n, pi_c, pi_a, pi_n, ybar_c1, ybar_c0, ybar_a1, ybar_n0, cace):
    """Exact finite-population covariance of (itt_hat, f_hat) in closed
    form, elementwise: on the per-stratum fields it gives each stratum's."""
    n1 = n - 1.0
    cov = _zterm(pi_n * pi_c / (p * n1), ybar_c1 - ybar_n0)
    cov += _zterm(pi_n * pi_a / (p * (1.0 - p) * n1), ybar_a1 - ybar_n0)
    cov += _zterm(pi_a * pi_c / ((1.0 - p) * n1), ybar_a1 - ybar_c0)
    cov -= _zterm(pi_c * (1.0 - pi_c) / n1, cace)
    return cov


def reference_first_order_var(w, n1, n0, n, s2, cov, tau, pi_c) -> float:
    """(1/pi_c^2) sum w [var(itt_hat) + tau^2 var(f_hat) - 2 tau cov], each
    variance the exact one of a difference in means with n1 of n units
    treated; s2 holds the variances of y1, y0, y1 - y0, d1, d0, d1 - d0."""
    var_itt = s2[0] / n1 + s2[1] / n0 - s2[2] / n
    var_f = s2[3] / n1 + s2[4] / n0 - s2[5] / n
    var = np.sum(w * var_itt) + tau * tau * np.sum(w * var_f) - 2.0 * tau * np.sum(w * cov)
    return float(var) / (pi_c * pi_c)


def reference_asyvar_iv(m: SimpleNamespace) -> float:
    """theory.asyvar_iv from reference_moments, by the three-term form."""
    cov = reference_cov_itt_f(
        m.p, m.n, m.pi_c, m.pi_a, m.pi_n, m.ybar_c1, m.ybar_c0, m.ybar_a1, m.ybar_n0, m.cace
    )
    s2 = (m.s2_y1, m.s2_y0, m.s2_y01, m.s2_d1, m.s2_d0, m.s2_d01)
    return reference_first_order_var(1, m.n1, m.n0, m.n, s2, cov, m.cace, m.pi_c)


def reference_asyvar_iv_ps(m: SimpleNamespace, exact_factors: bool = False) -> float:
    """theory.asyvar_iv_ps from reference_moments, by the three-term form
    in each stratum."""
    share = m.n_g / m.n
    w = share * (m.n_g - 1.0) / (m.n - 1.0) if exact_factors else share * share
    cov_g = reference_cov_itt_f(
        m.p, m.n_g, m.pi_gc, m.pi_ga, m.pi_gn, m.g_ybar_c1, m.g_ybar_c0, m.g_ybar_a1,
        m.g_ybar_n0, m.cace_g,
    )
    s2 = (m.g_s2_y1, m.g_s2_y0, m.g_s2_y01, m.g_s2_d1, m.g_s2_d0, m.g_s2_d01)
    n1, n0 = m.p * m.n_g, (1.0 - m.p) * m.n_g
    return reference_first_order_var(w, n1, n0, m.n_g, s2, cov_g, m.cace, m.pi_c)


def _parse_binary(raw: str | None, col: str, line: int) -> int:
    """The oracle's z, d, d0 or d1 cell: a number that is exactly 0 or 1."""
    if raw is None or raw.strip() == "":
        raise MalformedRow(line, f"missing {col}")
    try:
        v = float(raw)
    except ValueError:
        raise MalformedRow(line, f"{col}={raw!r} is not numeric") from None
    if v not in (0.0, 1.0):
        raise MalformedRow(line, f"{col}={raw!r} must be 0 or 1")
    return int(v)


def _parse_outcome(raw: str | None, col: str, line: int) -> float:
    """The oracle's y, y0 or y1 cell: a finite number."""
    if raw is None or raw.strip() == "":
        raise MalformedRow(line, f"missing {col}")
    try:
        v = float(raw)
    except ValueError:
        raise MalformedRow(line, f"{col}={raw!r} is not numeric") from None
    if not math.isfinite(v):
        raise MalformedRow(line, f"{col}={raw!r} is not finite")
    return v


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
        try:
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
        except csv.Error as exc:  # a field over csv.field_size_limit(), a NUL before 3.11
            raise MalformedRow(reader.reader.line_num, str(exc)) from None
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


def strata_by_sorting(cols, columns) -> tuple[np.ndarray, list[str]]:
    """Oracle for io_cli._strata: the same crossing, re-densified after
    each column by sorting with np.unique, so codes come in key order
    rather than in order of first appearance."""
    key = np.zeros(len(columns[0][0]), dtype=np.intp)
    for codes, labels in columns:
        key = key * len(labels) + codes
        _, first, key = np.unique(key, return_index=True, return_inverse=True)
    if len(columns) == 1:
        ((codes, labels),) = columns
        names = [labels[c] for c in codes[first]]
    else:
        names = [
            "|".join(f"{col}={labels[codes[i]]}" for col, (codes, labels) in zip(cols, columns))
            for i in first
        ]
    index: dict[str, int] = {}
    merged = np.array([index.setdefault(s, len(index)) for s in names], dtype=np.intp)
    return merged[key], list(index)


def load_science_csv_rowwise(path: str) -> ScienceTable:
    """Independent oracle for io_cli.load_science_csv, row by row."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
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
        except csv.Error as exc:  # a field over csv.field_size_limit(), a NUL before 3.11
            raise MalformedRow(reader.reader.line_num, str(exc)) from None
    if not y0:
        raise EmptyFile(path)
    return ScienceTable.from_arrays(
        y0=y0, y1=y1, d0=d0, d1=d1, strata=strata if strata else None
    )
