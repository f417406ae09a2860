"""Point estimators of the complier average causal effect.

Every estimator is selected by tag through one entry, estimate(sample,
tag[, config]), which returns an EstimateReport; METHODS lists the tags.
The stratified family shares one computational core, the weighted-ITT
ratio sum(N_g itt_g) / sum(N_g f_g) over a kept set of strata
(variance.ratio_rows); the estimators differ only in which strata they keep:

* UNSTRAT       pools every unit into one stratum,
* IV_W          keeps strata with f_g != 0 (zero-compliance strata carry no
                information about the effect and are dropped),
* IV_A          keeps everything (ratio of post-stratified averages),
* DSS           keeps strata with estimated compliance >= a threshold,
* DSF           keeps strata whose first-stage F statistic passes a cutoff,
* PWIV          precision-weights per-stratum IV estimates instead.

ORACLE benchmarks against the infeasible difference in means among true
compliers, and TSLS_WEIGHTED / TSLS_DUMMY are the two-stage least squares
comparators.

Every estimator, ORACLE included, is a row-wise kernel over an
ObservedBlock of R samples (estimate_rows); estimate() and
oracle_complier_dim are its R = 1 calls, and simulate and
enumerate_expectation call it once per block. ORACLE reads the block's
true-complier mask, which only a science table has, so METHODS and
estimate() leave it out. Kept sets are (R, G) code masks; labels appear
only in EstimateReport.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import (
    AllStrataDropped,
    EstimateReport,
    EstimationError,
    NoCompliersInArm,
    ObservedBlock,
    ObservedSample,
    RankDeficient,
    ScienceTable,
    StratumMoments,
    ZeroCompliance,
    MaskedRows,
    science_to_observed,
)
from .variance import Rows, pwiv_rows, ratio_rows

__all__ = [
    "EstimatorConfig",
    "METHODS",
    "DEFAULT_ESTIMATORS",
    "first_stage_f",
    "oracle_complier_dim",
    "estimate",
    "estimate_rows",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs for the stratum-dropping estimators."""

    dss_threshold: float = 0.02
    dsf_f_min: float = 10.0

    def __post_init__(self) -> None:
        if not (0.0 < self.dss_threshold < 1.0) or not math.isfinite(self.dss_threshold):
            raise ValueError("dss_threshold must lie in (0, 1)")
        if not (self.dsf_f_min > 0.0) or not math.isfinite(self.dsf_f_min):
            raise ValueError("dsf_f_min must be positive and finite")


_DEFAULT_CONFIG = EstimatorConfig()


# ---------------------------------------------------------------------------
# Row-wise kernels: each takes an ObservedBlock of R samples and returns the
# estimator's Rows. estimate() below is their R = 1 call.


def _unstratified_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    # UNSTRAT, the standard IV ratio itt_hat / f_hat ignoring strata: the
    # one-stratum case of the weighted-ITT ratio, on pooled moments
    rows = ratio_rows(block.pooled, np.ones((len(block.present), 1), dtype=bool))
    rows.kept = block.present
    return rows


def _within_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """IV_W, the compliance-weighted average of per-stratum IV estimates.

    Strata with f_g = 0 are dropped; negative-f_g strata are retained with
    their negative weight so the ratio form stays algebraically equivalent.
    """
    m = block.moments
    kept = (m.f_hat != 0.0) & block.present
    return _screened(m, kept, ZeroCompliance("every stratum has zero estimated compliance"))


def _across_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    # IV_A, the ratio of post-stratified averages: never drops a stratum
    return ratio_rows(block.moments, block.present)


def _dss_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """DSS, drop small strata: keep strata with f_g >= dss_threshold. The
    threshold comparison also removes negative-f_g strata."""
    m = block.moments
    kept = (m.f_hat >= config.dss_threshold) & block.present
    return _screened(
        m,
        kept,
        AllStrataDropped(f"no stratum has estimated compliance >= {config.dss_threshold}"),
    )


def _dsf_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """DSF, drop small F: keep strata whose first-stage F >= dsf_f_min.
    Strata too small for the F statistic (N_g < 3, F nan) are dropped along
    with the failing ones."""
    m = block.moments
    with np.errstate(invalid="ignore"):
        kept = (first_stage_f(m) >= config.dsf_f_min) & block.present
    return _screened(
        m, kept, AllStrataDropped(f"no stratum has first-stage F >= {config.dsf_f_min}")
    )


def _screened(m: StratumMoments, kept: np.ndarray, none_kept: EstimationError) -> Rows:
    """The weighted-ITT ratio over a screened kept set; rows that keep no
    stratum fail with none_kept first."""
    rows = ratio_rows(m, kept)
    rows.errors.insert(0, (~kept.any(axis=1), none_kept))
    return rows


def _pwiv_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    # PWIV needs two units per arm in every stratum, kept or not (pwiv_rows)
    return pwiv_rows(block.moments, block.present)


def _tsls_dummies_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """Conventional 2SLS with an intercept and G-1 stratum indicators, in
    closed form on the stratum moments.

    By Frisch-Waugh-Lovell the dummies absorb the stratum means, so with
    h_g = N_g1 N_g0 / N_g (the within-stratum sum of squares of z) the
    first-stage slope is pi = sum h_g f_g / sum h_g and the 2SLS slope is
    sum h_g itt_g / sum h_g f_g. The homoskedastic SE is
    sqrt(sigma2 / (pi^2 sum h_g)) with sigma2 = RSS / (N - G - 1) from the
    structural residuals (actual, not predicted, uptake); each stratum's
    RSS is its within-arm sum of squares of y - beta d plus
    h_g (itt_g - beta f_g)^2. The SE rides in the se_bloom slot. A zero
    sum h_g (no stratum varies z) or zero first-stage slope leaves a stage
    rank deficient.
    """
    m, present = block.moments, block.present
    ksum = MaskedRows.of(present).sum

    def ss(s: np.ndarray, n: np.ndarray) -> np.ndarray:
        return np.where(n >= 2, (n - 1.0) * s, 0.0)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        h = np.where(present, m.n_g1 * m.n_g0 / m.n_g, 0.0)
        varies = h > 0.0
        h_sum = ksum(h)
        sf = ksum(np.where(varies, h * m.f_hat, 0.0))
        beta = ksum(np.where(varies, h * m.itt_hat, 0.0)) / sf
        pi = sf / h_sum
        b = beta[:, None]
        within = (
            ss(m.s2_y1, m.n_g1) + ss(m.s2_y0, m.n_g0)
            - 2.0 * b * (ss(m.s_yd1, m.n_g1) + ss(m.s_yd0, m.n_g0))
            + b * b * (ss(m.s2_d1, m.n_g1) + ss(m.s2_d0, m.n_g0))
        )
        between = np.where(varies, h * (m.itt_hat - b * m.f_hat) ** 2, 0.0)
        dof = block.n - (block.num_strata + 1)
        var = ksum(np.where(present, within + between, 0.0)) / dof / (pi * pi * h_sum)
        se = np.where(dof >= 1, np.sqrt(np.where(0.0 > var, 0.0, var)), np.nan)
    errors = [
        (h_sum == 0.0, RankDeficient("first-stage design matrix is rank deficient")),
        (sf == 0.0, RankDeficient("second-stage design matrix is rank deficient")),
    ]
    rows = Rows(beta, pi, np.full(len(beta), block.n), present, se, np.full(len(beta), np.nan),
                errors)
    failed = rows.failed
    rows.est = np.where(failed, np.nan, beta)
    rows.se_bloom = np.where(failed, np.nan, se)
    return rows


def _tsls_weighted_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """TSLS_WEIGHTED: two weighted one-regressor least-squares stages on the
    units, row by row. Unit weights (N_g / N_{g,z})(n_z / N) make the
    first-stage slope the post-stratified compliance estimate and the
    second-stage slope IV_A's estimate; kept as an independent cross-check
    of that identity. It defines no SE."""
    m, present = block.moments, block.present
    r = len(present)
    est = np.full(r, np.nan)
    zero = np.zeros(r, dtype=bool)
    for i in range(r):
        codes, z = block.strata[i], block.z[i]
        treated = z == 1
        n_gz = np.where(treated, m.n_g1[i][codes], m.n_g0[i][codes]).astype(np.float64)
        n_z = np.where(treated, int(treated.sum()), int((z == 0).sum())).astype(np.float64)
        w = (m.n_g[i][codes] / n_gz) * (n_z / block.n)
        zf = z.astype(np.float64)
        first = _wls_slope(w, zf, block.d[i].astype(np.float64))
        if first is None or first[1] == 0.0:
            zero[i] = True
            continue
        second = _wls_slope(w, first[0] + first[1] * zf, block.y[i])
        if second is None:  # the slope is too small to move the fitted uptake
            zero[i] = True
            continue
        est[i] = second[1]
    f_ps = MaskedRows.of(present).sum((m.n_g / float(block.n)) * m.f_hat)
    errors = [(zero, ZeroCompliance("fitted uptake does not vary; the second stage is undefined"))]
    nan = np.full(r, np.nan)
    return Rows(est, f_ps, np.full(r, block.n), present, nan, nan, errors)


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


def _complier_dim_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """Infeasible benchmark: the difference in observed means among the
    true compliers, with the Neyman SE; a row keeps the strata that contain
    a complier."""
    if block.compliers is None:
        raise ValueError("ORACLE needs the true compliers, known only from a science table")
    at = block.complier_positions
    row, col = np.divmod(at, block.n)
    in_treated = block.z[row, col] == 1  # z is 0 or 1
    treated = MaskedRows(at[in_treated], block.z.shape)
    control = MaskedRows(at[~in_treated], block.z.shape)
    n1, n0 = treated.counts, control.counts
    mean1, var1 = treated.mean_var(treated.take(block.y))
    mean0, var0 = control.mean_var(control.take(block.y))
    est = mean1 - mean0
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.sqrt(var1 / n1 + var0 / n0)
    r, g = block.present.shape
    kept = np.bincount(block.strata[row, col] + g * row, minlength=r * g).reshape(r, g) > 0
    errors = [(n1 == 0, NoCompliersInArm(1)), (n0 == 0, NoCompliersInArm(0))]
    return Rows(est, np.ones(r), n1 + n0, kept, se, np.full(r, np.nan), errors)


_KERNELS = {
    "UNSTRAT": _unstratified_rows,
    "IV_W": _within_rows,
    "IV_A": _across_rows,
    "DSS": _dss_rows,
    "DSF": _dsf_rows,
    "PWIV": _pwiv_rows,
    "TSLS_DUMMY": _tsls_dummies_rows,
    "TSLS_WEIGHTED": _tsls_weighted_rows,
    "ORACLE": _complier_dim_rows,
}

METHODS = tuple(tag for tag in _KERNELS if tag != "ORACLE")  # observed data suffices

# the estimators a simulation config runs unless it names its own
DEFAULT_ESTIMATORS = (
    "UNSTRAT",
    "IV_W",
    "IV_A",
    "DSS",
    "DSF",
    "PWIV",
    "TSLS_DUMMY",
    "ORACLE",
)


def estimate_rows(
    block: ObservedBlock, method: str, config: EstimatorConfig = _DEFAULT_CONFIG
) -> Rows:
    """Run one estimator by tag on every row of a block."""
    try:
        kernel = _KERNELS[method]
    except KeyError:
        raise ValueError(f"unknown estimator tag {method!r}") from None
    return kernel(block, config)


def _report(rows: Rows, method: str, labels: tuple) -> EstimateReport:
    """The R = 1 result as an EstimateReport, or the row's first error."""
    rows.raise_first()

    def opt(x: float) -> float | None:
        return None if math.isnan(x) else float(x)

    return EstimateReport(
        method=method,
        estimate=float(rows.est[0]),
        f_hat=float(rows.f_hat[0]),
        n_used=int(rows.n_used[0]),
        strata_kept=frozenset(labels[g] for g in np.flatnonzero(rows.kept[0])),
        se_bloom=opt(rows.se_bloom[0]),
        se_delta=opt(rows.se_delta[0]),
    )


def estimate(
    sample: ObservedSample, method: str, config: EstimatorConfig = _DEFAULT_CONFIG
) -> EstimateReport:
    """Run one estimator by tag: one of METHODS. ORACLE needs the science
    table and raises ValueError here."""
    rows = estimate_rows(ObservedBlock.of(sample), method, config)
    return _report(rows, method, sample.stratum_labels)


def first_stage_f(m: StratumMoments) -> np.ndarray:
    """Homoskedastic one-regressor OLS F for d ~ z within each stratum.

    F = (N_g - 2) ESS / RSS with ESS = (N_g1 N_g0 / N_g) f_g^2 and RSS the
    within-arm residual sum of squares (a one-unit arm contributes 0).
    Elementwise over moments of any shape: 0.0 where f_g = 0, +inf where
    the fit is perfect (RSS = 0), and nan where a stratum has N_g < 3.
    """
    f = m.f_hat
    with np.errstate(invalid="ignore", divide="ignore"):
        ess = m.n_g1 * m.n_g0 / m.n_g * f * f
        rss = np.where(m.n_g1 >= 2, (m.n_g1 - 1.0) * m.s2_d1, 0.0)
        rss = rss + np.where(m.n_g0 >= 2, (m.n_g0 - 1.0) * m.s2_d0, 0.0)
        stat = np.where(
            f == 0.0, 0.0, np.where(rss == 0.0, np.inf, (m.n_g - 2.0) * ess / rss)
        )
    return np.where(m.n_g < 3, np.nan, stat)


def oracle_complier_dim(table: ScienceTable, assignment) -> EstimateReport:
    """Infeasible benchmark: difference in observed means among compliers.

    Requires the science table, so it is available in simulations only.
    """
    block = ObservedBlock.of(science_to_observed(table, assignment), table.is_complier)
    return _report(estimate_rows(block, "ORACLE"), "ORACLE", table.stratum_labels)
