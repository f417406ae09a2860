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
comparators. TSLS_WEIGHTED is a ratio of post-stratified arm means, each
arm averaged over the strata that have units in it; it equals IV_A when
every present stratum has both arms.

Every estimator, ORACLE included, is a row-wise kernel over an
ObservedBlock (estimate_rows): the record of R samples' (R, G) stratum
moments, pooled moments and n, and perhaps their true compliers' entries.
estimate() and oracle_complier_dim are its R = 1 calls, through
ObservedBlock.of; enumerate_expectation calls it once per block of
assignments, through ObservedBlock.of_units, and simulate once per flush,
on a record of stacked moments. Every kernel but ORACLE reads only the
moments. ORACLE reads the complier entries, which only a science table
gives, so METHODS and estimate() leave it out. Kept sets are (R, G) code
masks; labels appear only in EstimateReport.
Failures are data: Rows.code[r] indexes row r's exception in Rows.causes
(-1: none), and exactly the failed rows have a nan estimate. Past a DSS or
DSF screen (AllStrataDropped), every ratio kernel and both TSLS fail by
variance.first_stage_checks on their f_hat.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import (
    AllStrataDropped,
    EstimateReport,
    NoCompliersInArm,
    ObservedBlock,
    ObservedSample,
    ScienceTable,
    StratumMoments,
    MaskedRows,
    science_to_observed,
)
from .variance import Rows, first_stage_checks, pwiv_rows, ratio_rows

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
    With nothing kept, f_ps is the empty sum 0: ZeroCompliance.
    """
    m = block.moments
    return ratio_rows(m, (m.f_hat != 0.0) & block.present)


def _across_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    # IV_A, the ratio of post-stratified averages: never drops a stratum
    return ratio_rows(block.moments, block.present)


def _dss_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """DSS, drop small strata: keep strata with f_g >= dss_threshold. The
    threshold comparison also removes negative-f_g strata."""
    m = block.moments
    kept = (m.f_hat >= config.dss_threshold) & block.present
    return ratio_rows(
        m, kept, AllStrataDropped(f"no stratum has estimated compliance >= {config.dss_threshold}")
    )


def _dsf_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """DSF, drop small F: keep strata whose first-stage F >= dsf_f_min.
    Strata too small for the F statistic (N_g < 3, F nan) are dropped along
    with the failing ones."""
    m = block.moments
    with np.errstate(invalid="ignore"):
        kept = (first_stage_f(m) >= config.dsf_f_min) & block.present
    return ratio_rows(
        m, kept, AllStrataDropped(f"no stratum has first-stage F >= {config.dsf_f_min}")
    )


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
    h_g (itt_g - beta f_g)^2. The SE rides in the se_bloom slot. If no
    stratum varies z, the first stage is rank deficient and pi = 0/0 (nan);
    if sum h_g f_g = 0, the second stage is, and pi = 0.
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
        dof = block.n - (present.sum(axis=1) + 1)
        var = ksum(np.where(present, within + between, 0.0)) / dof / (pi * pi * h_sum)
        se = np.where(dof >= 1, np.sqrt(np.where(0.0 > var, 0.0, var)), np.nan)
    nan = np.full(len(beta), np.nan)
    return Rows(beta, pi, np.full(len(beta), block.n), present, se, nan, first_stage_checks(pi))


def _tsls_weighted_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """TSLS_WEIGHTED: two-stage least squares with unit weights
    (N_g / N_{g,z})(n_z / N), in closed form on the stratum moments.

    z is binary, so each stage's slope is a difference of weighted arm
    means, and arm z's weighted mean of v is sum N_g vbar_gz / sum N_g over
    the present strata with units in arm z. The first stage D1 - D0 is the
    reported f_hat and the estimate is (Y1 - Y0) / (D1 - D0): a difference
    of sums where IV_A takes a sum of differences, so the two agree when
    every present stratum has both arms (an empty arm makes D1 - D0 nan); no SE.
    """
    m, present = block.moments, block.present

    def arm_means(n_gz: np.ndarray, ybar: np.ndarray, dbar: np.ndarray):
        ksum = MaskedRows.of(present & (n_gz > 0)).sum
        n_arm = ksum(m.n_g)  # 0 when the arm is empty, which makes both means nan
        return ksum(m.n_g * ybar) / n_arm, ksum(m.n_g * dbar) / n_arm

    with np.errstate(invalid="ignore", divide="ignore"):
        y1, d1 = arm_means(m.n_g1, m.ybar1, m.dbar1)
        y0, d0 = arm_means(m.n_g0, m.ybar0, m.dbar0)
        first = d1 - d0
        est = (y1 - y0) / first
    nan = np.full(len(est), np.nan)
    checks = first_stage_checks(first)
    return Rows(est, first, np.full(len(est), block.n), present, nan, nan, checks)


def _complier_dim_rows(block: ObservedBlock, config: EstimatorConfig) -> Rows:
    """Infeasible benchmark: the difference in observed means among the
    true compliers, with the Neyman SE; a row keeps the strata that contain
    a complier."""
    if block.complier_entries is None:
        raise ValueError("ORACLE needs the true compliers, known only from a science table")
    at, z, y, strata = block.complier_entries
    r, g = block.present.shape
    treated = z == 1  # z is 0 or 1
    arms = []
    for arm in (treated, ~treated):
        rows = MaskedRows(at[arm], (r, block.n))
        arms.append((rows.counts, *rows.mean_var(y[arm][rows.entry_order])))
    (n1, mean1, var1), (n0, mean0, var0) = arms
    est = mean1 - mean0
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.sqrt(var1 / n1 + var0 / n0)
    kept = np.bincount(strata + g * (at // block.n), minlength=r * g).reshape(r, g) > 0
    checks = [(n1 == 0, NoCompliersInArm(1)), (n0 == 0, NoCompliersInArm(0))]
    return Rows(est, np.ones(r), n1 + n0, kept, se, np.full(r, np.nan), checks)


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


def check_tags(tags, valid=METHODS) -> None:
    """Refuse a list of estimator tags that is a bare string, is empty,
    names a tag outside valid or repeats one."""
    if isinstance(tags, str) or not tags:
        raise ValueError(f"estimators must be a non-empty list of tags, got {tags!r}")
    unknown = [t for t in tags if t not in valid]
    if unknown:
        raise ValueError(f"unknown estimator tags: {unknown}")
    if len(set(tags)) < len(tags):
        raise ValueError(f"estimators repeat a tag: {list(tags)}")


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
    """The R = 1 result as an EstimateReport, or the row's failure."""
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

    d is binary, so F depends only on the arm sizes N_g1, N_g0 and uptake
    counts D_gz = N_gz dbar_gz: F = (N_g - 2)(D_g1 N_g0 - D_g0 N_g1)^2 /
    (N_g N_g1 N_g0 RSS) with RSS = sum_z D_gz (N_gz - D_gz) / N_gz (0 for an
    empty arm), one division of integers that no unit order moves across a
    cutoff. Elementwise: 0.0 where f_g = 0, +inf where RSS = 0, and nan
    where N_g < 3, or an arm is empty and RSS > 0.
    """
    n, n1, n0 = m.n_g, m.n_g1, m.n_g0
    with np.errstate(invalid="ignore", divide="ignore"):
        d1, d0 = np.rint(m.dbar1 * n1), np.rint(m.dbar0 * n0)  # nan for an empty arm
        ss1 = np.where(n1 > 0, d1 * (n1 - d1), 0.0)  # N_g1 times arm 1's RSS term
        ss0 = np.where(n0 > 0, d0 * (n0 - d0), 0.0)
        diff = d1 * n0 - d0 * n1  # N_g1 N_g0 f_g
        f = (n - 2) * diff * diff / (n * (ss1 * n0 + ss0 * n1))
        stat = np.where(diff == 0.0, 0.0, np.where(ss1 + ss0 == 0.0, np.inf, f))
    return np.where(n < 3, np.nan, stat)


def oracle_complier_dim(table: ScienceTable, assignment) -> EstimateReport:
    """Infeasible benchmark: difference in observed means among compliers.

    Requires the science table, so it is available in simulations only.
    """
    block = ObservedBlock.of(science_to_observed(table, assignment), table.is_complier)
    return _report(estimate_rows(block, "ORACLE"), "ORACLE", table.stratum_labels)
