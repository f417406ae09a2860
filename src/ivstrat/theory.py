"""Finite-population theory oracles evaluated on science tables.

Everything here takes the full potential-outcome table as known and asks
what a complete randomization of pN units would do: exact variances of the
IV estimators (unstratified and post-stratified), Taylor approximations of
the small-sample bias of the IV ratio, and a brute-force enumeration oracle
that averages an estimator over every possible assignment.

All variances are variances of the estimators themselves (the 1/n factors
live inside the expressions), so they compare directly with Monte Carlo
variances over assignments.

A note on the f_hat moments used by the bias functions: under complete
randomization of a one-sided population, n1 * f_hat is the hypergeometric
count of treated compliers. The "hypergeometric" Taylor variant uses that
distribution's exact second and third central moments (the fourth-moment
term carries an unpinned kurtosis constant and is omitted; the remainder
is O(1/N^2)). The "binomial" variant instead plugs in moments of
Binomial(pN, pi_c)/pN, a rougher approximation that overstates var(f_hat)
by roughly 1/(1-p).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data_model import (
    ALWAYS_TAKER,
    BLOCK_UNITS,
    COMPLIER,
    EstimationError,
    Infeasible,
    NEVER_TAKER,
    NoCompliers,
    NonIntegralArm,
    ObservedBlock,
    ScienceTable,
    TooFewUnits,
    TwoSidedInput,
    reveal,
    science_to_observed,
)
from .estimators import EstimatorConfig, estimate_rows

__all__ = [
    "PopulationMoments",
    "moments",
    "asyvar_iv",
    "asyvar_iv_ps",
    "bias_one_sided_exact",
    "bias_one_sided_taylor",
    "bias_two_sided_taylor",
    "EnumerationResult",
    "enumerate_expectation",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class PopulationMoments:
    """Every population quantity the variance and bias formulas consume.

    Scalars are whole-population values; *_g arrays are indexed by dense
    stratum code. Group means (ybar_c1 = mean of Y(1) over compliers, etc.)
    are nan when the group is empty, as are per-stratum (co)variances of
    single-unit strata; formulas guard those terms by their zero
    coefficients.
    """

    n: int
    p: float
    n_g: np.ndarray
    pi_c: float
    pi_a: float
    pi_n: float
    pi_gc: np.ndarray
    pi_ga: np.ndarray
    pi_gn: np.ndarray
    ybar_c1: float
    ybar_c0: float
    ybar_a1: float
    ybar_a0: float
    ybar_n1: float
    ybar_n0: float
    g_ybar_c1: np.ndarray
    g_ybar_c0: np.ndarray
    g_ybar_a1: np.ndarray
    g_ybar_a0: np.ndarray
    g_ybar_n1: np.ndarray
    g_ybar_n0: np.ndarray
    s2_y1: float
    s2_y0: float
    s2_y01: float
    s2_d1: float
    s2_d0: float
    s2_d01: float
    g_s2_y1: np.ndarray
    g_s2_y0: np.ndarray
    g_s2_y01: np.ndarray
    g_s2_d1: np.ndarray
    g_s2_d0: np.ndarray
    g_s2_d01: np.ndarray
    itt: float
    cace: float
    cace_g: np.ndarray

    @property
    def n1(self) -> int:
        return round(self.p * self.n)

    @property
    def n0(self) -> int:
        return self.n - self.n1


def _treated_count(n: int, p: float) -> int:
    if not 0.0 < p < 1.0:
        raise NonIntegralArm(f"treatment proportion {p} must lie in (0, 1)")
    n1 = p * n
    if abs(n1 - round(n1)) > 1e-9:
        raise NonIntegralArm(f"p*N = {n1} is not a whole number of treated units")
    n1 = round(n1)
    if not 0 < n1 < n:
        raise NonIntegralArm("both arms must be nonempty")
    return n1


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


def moments(table: ScienceTable, p: float) -> PopulationMoments:
    """All population moments of a science table under complete
    randomization of pN units.

    (Co)variance fields are direct definitional sums; the closed forms for
    the uptake variances in terms of the compliance shares are algebraic
    identities checked in tests rather than used here.
    """
    n = table.n
    _treated_count(n, p)
    g = table.num_strata
    strata = table.strata
    n_g = np.bincount(strata, minlength=g).astype(np.float64)
    ctype = table.compliance_type
    is_c, is_a, is_n = ctype == COMPLIER, ctype == ALWAYS_TAKER, ctype == NEVER_TAKER
    d1 = table.d1.astype(np.float64)
    d0 = table.d0.astype(np.float64)
    cace_g = _group_mean_by_stratum(strata, g, is_c, table.y1 - table.y0)
    return PopulationMoments(
        n=n,
        p=p,
        n_g=n_g,
        pi_c=float(np.mean(is_c)),
        pi_a=float(np.mean(is_a)),
        pi_n=float(np.mean(is_n)),
        pi_gc=np.bincount(strata[is_c], minlength=g) / n_g,
        pi_ga=np.bincount(strata[is_a], minlength=g) / n_g,
        pi_gn=np.bincount(strata[is_n], minlength=g) / n_g,
        ybar_c1=_group_mean(is_c, table.y1),
        ybar_c0=_group_mean(is_c, table.y0),
        ybar_a1=_group_mean(is_a, table.y1),
        ybar_a0=_group_mean(is_a, table.y0),
        ybar_n1=_group_mean(is_n, table.y1),
        ybar_n0=_group_mean(is_n, table.y0),
        g_ybar_c1=_group_mean_by_stratum(strata, g, is_c, table.y1),
        g_ybar_c0=_group_mean_by_stratum(strata, g, is_c, table.y0),
        g_ybar_a1=_group_mean_by_stratum(strata, g, is_a, table.y1),
        g_ybar_a0=_group_mean_by_stratum(strata, g, is_a, table.y0),
        g_ybar_n1=_group_mean_by_stratum(strata, g, is_n, table.y1),
        g_ybar_n0=_group_mean_by_stratum(strata, g, is_n, table.y0),
        s2_y1=_s2(table.y1),
        s2_y0=_s2(table.y0),
        s2_y01=_s2(table.y1 - table.y0),
        s2_d1=_s2(d1),
        s2_d0=_s2(d0),
        s2_d01=_s2(d1 - d0),
        g_s2_y1=_s2_by_stratum(strata, n_g, table.y1),
        g_s2_y0=_s2_by_stratum(strata, n_g, table.y0),
        g_s2_y01=_s2_by_stratum(strata, n_g, table.y1 - table.y0),
        g_s2_d1=_s2_by_stratum(strata, n_g, d1),
        g_s2_d0=_s2_by_stratum(strata, n_g, d0),
        g_s2_d01=_s2_by_stratum(strata, n_g, d1 - d0),
        itt=table.itt,
        cace=table.cace if is_c.any() else float("nan"),
        cace_g=cace_g,
    )


def _zterm(coef, diff):
    # a formula term whose coefficient vanishes exactly when its group
    # mean is undefined; skip to avoid 0 * nan
    return np.where(coef == 0.0, 0.0, coef * diff)


def _cov_itt_f(p, n, pi_c, pi_a, pi_n, ybar_c1, ybar_c0, ybar_a1, ybar_n0, cace):
    """Exact finite-population covariance of (itt_hat, f_hat), elementwise:
    on the per-stratum fields it gives the post-stratified blocks."""
    n1 = n - 1.0
    cov = _zterm(pi_n * pi_c / (p * n1), ybar_c1 - ybar_n0)
    cov += _zterm(pi_n * pi_a / (p * (1.0 - p) * n1), ybar_a1 - ybar_n0)
    cov += _zterm(pi_a * pi_c / ((1.0 - p) * n1), ybar_a1 - ybar_c0)
    cov -= _zterm(pi_c * (1.0 - pi_c) / n1, cace)
    return cov


def _first_order_var(w, n1, n0, n, s2, cov, tau, pi_c) -> float:
    """(1/pi_c^2) sum w [var(itt_hat) + tau^2 var(f_hat) - 2 tau cov], each
    variance the exact one of a difference in means with n1 of n units
    treated; s2 holds the variances of y1, y0, y1 - y0, d1, d0, d1 - d0."""
    var_itt = s2[0] / n1 + s2[1] / n0 - s2[2] / n
    var_f = s2[3] / n1 + s2[4] / n0 - s2[5] / n
    var = np.sum(w * var_itt) + tau * tau * np.sum(w * var_f) - 2.0 * tau * np.sum(w * cov)
    return float(var) / (pi_c * pi_c)


def asyvar_iv(m: PopulationMoments) -> float:
    """Variance of the unstratified IV estimator, to first order.

    (1/pi_c^2) [var(itt_hat) + cace^2 var(f_hat) - 2 cace cov(itt_hat,
    f_hat)] with the exact complete-randomization variance of each
    difference-in-means and the exact covariance. Identical to the
    post-stratified variance of the modified outcomes y - cace * d.
    """
    if m.pi_c == 0.0:
        raise NoCompliers("no compliers; the IV estimand is undefined")
    cov = _cov_itt_f(
        m.p, m.n, m.pi_c, m.pi_a, m.pi_n, m.ybar_c1, m.ybar_c0, m.ybar_a1, m.ybar_n0, m.cace
    )
    s2 = (m.s2_y1, m.s2_y0, m.s2_y01, m.s2_d1, m.s2_d0, m.s2_d01)
    return _first_order_var(1, m.n1, m.n0, m.n, s2, cov, m.cace, m.pi_c)


def asyvar_iv_ps(m: PopulationMoments, exact_factors: bool = False) -> float:
    """Variance of the post-stratified IV estimator, to first order.

    Same three-term shape as asyvar_iv with each component replaced by a
    weighted sum of its per-stratum analogue. The default weights are the
    large-N (N_g/N)^2 form; exact_factors=True uses (N_g/N)(N_g-1)/(N-1),
    which makes the single-stratum case collapse to asyvar_iv exactly.
    """
    if m.pi_c == 0.0:
        raise NoCompliers("no compliers; the IV estimand is undefined")
    if np.any(m.n_g < 2):
        raise TooFewUnits("every stratum needs at least 2 units for its variance terms")
    share = m.n_g / m.n
    if exact_factors:
        w = share * (m.n_g - 1.0) / (m.n - 1.0)
    else:
        w = share * share
    cov_g = _cov_itt_f(
        m.p, m.n_g, m.pi_gc, m.pi_ga, m.pi_gn, m.g_ybar_c1, m.g_ybar_c0, m.g_ybar_a1,
        m.g_ybar_n0, m.cace_g,
    )
    s2 = (m.g_s2_y1, m.g_s2_y0, m.g_s2_y01, m.g_s2_d1, m.g_s2_d0, m.g_s2_d01)
    n1, n0 = m.p * m.n_g, (1.0 - m.p) * m.n_g
    return _first_order_var(w, n1, n0, m.n_g, s2, cov_g, m.cace, m.pi_c)


def _delta_naive(table: ScienceTable) -> float:
    """Ybar_c(0) - Ybar_n(0): the control-mean gap driving one-sided bias."""
    is_c = table.compliance_type == COMPLIER
    is_n = table.compliance_type == NEVER_TAKER
    return float(np.mean(table.y0[is_c]) - np.mean(table.y0[is_n]))


def _require_one_sided(table: ScienceTable) -> None:
    if not table.one_sided:
        raise TwoSidedInput("table has always-takers; this formula is one-sided only")


def bias_one_sided_exact(
    table: ScienceTable, p: float, convention: str | None = None
) -> float:
    """Exact bias of the unstratified IV estimator under one-sided
    noncompliance: (1/(1-p)) (1 - E[1/f_hat] E[f_hat]) (Ybar_c(0) - Ybar_n(0)).

    n1 * f_hat is a hypergeometric complier count, so E[1/f_hat] is an
    exact finite sum over its support; no sampling is involved at any N.
    Assignments with f_hat = 0 make the estimator undefined: by default
    (or convention="error-if-positive-mass") any such probability mass
    raises Infeasible, while convention="condition" renormalizes E[1/f_hat]
    over f_hat > 0, in which case the result is exactly the conditional
    bias E[itt_hat/f_hat | f_hat > 0] - cace.
    """
    from scipy.stats import hypergeom  # scipy stays off the import path of ivstrat

    _require_one_sided(table)
    if convention not in (None, "condition", "error-if-positive-mass"):
        raise ValueError(f"unknown convention {convention!r}")
    n = table.n
    n1 = _treated_count(n, p)
    n_c = int(np.sum(table.compliance_type == COMPLIER))
    if n_c == 0:
        raise NoCompliers("no compliers; the IV estimand is undefined")
    if n_c == n:
        return 0.0  # f_hat is 1 on every assignment
    k_min = max(0, n1 - (n - n_c))
    k_max = min(n1, n_c)
    if k_min == 0 and convention != "condition":
        mass = float(hypergeom.pmf(0, n, n_c, n1))
        raise Infeasible(
            f"P(f_hat = 0) = {mass:.3g} > 0; pass convention='condition' "
            "to compute the bias conditional on f_hat > 0"
        )
    ks = np.arange(max(k_min, 1), k_max + 1)
    pmf = hypergeom.pmf(ks, n, n_c, n1)
    e_inv = float(np.sum(pmf * (n1 / ks)))
    if k_min == 0:
        e_inv /= 1.0 - float(hypergeom.pmf(0, n, n_c, n1))
    pi_c = n_c / n
    return (1.0 - pi_c * e_inv) * _delta_naive(table) / (1.0 - p)


def bias_one_sided_taylor(
    m: PopulationMoments, variant: str = "hypergeometric"
) -> float:
    """Taylor approximation of the one-sided IV bias.

    Expands E[1/f_hat] around pi_c. variant="hypergeometric" uses the exact
    complete-randomization moments of f_hat through third order, including
    the (1-2*pi_c)(1-2p)/(N-2) skewness term; the fourth-order term is
    omitted (its kurtosis constant is an unpinned O(1/N^2) contribution).
    variant="binomial" uses all four moments of Binomial(pN, pi_c)/pN,
    which inflates var(f_hat) by about 1/(1-p) and so overstates the bias.
    """
    if m.pi_a > 0.0:
        raise TwoSidedInput("population has always-takers; this formula is one-sided only")
    if m.pi_c == 0.0:
        raise NoCompliers("no compliers; the IV estimand is undefined")
    if m.pi_n == 0.0:
        return 0.0
    pi_c, q, p = m.pi_c, 1.0 - m.pi_c, m.p
    if variant == "hypergeometric":
        mu2 = pi_c * q * (1.0 - p) / (p * (m.n - 1.0))
        mu3 = mu2 * (1.0 - 2.0 * pi_c) * (1.0 - 2.0 * p) / (m.n - 2.0)
        e_inv = 1.0 / pi_c + mu2 / pi_c**3 - mu3 / pi_c**4
    elif variant == "binomial":
        draws = p * m.n
        mu2 = pi_c * q / draws
        mu3 = pi_c * q * (1.0 - 2.0 * pi_c) / draws**2
        mu4 = pi_c * q * (1.0 + (3.0 * draws - 6.0) * pi_c * q) / draws**3
        e_inv = 1.0 / pi_c + mu2 / pi_c**3 - mu3 / pi_c**4 + mu4 / pi_c**5
    else:
        raise ValueError(f"unknown variant {variant!r}")
    delta = m.ybar_c0 - m.ybar_n0
    return (1.0 - pi_c * e_inv) * delta / (1.0 - p)


def bias_two_sided_taylor(m: PopulationMoments) -> float:
    """Closed-form Taylor bias of the unstratified IV estimator when both
    always-takers and never-takers may be present."""
    if m.pi_c == 0.0:
        raise NoCompliers("no compliers; the IV estimand is undefined")
    p = m.p
    t_never = _zterm(
        m.pi_n * ((1.0 - p) * m.pi_c + m.pi_a) / (p * (1.0 - p)),
        m.ybar_n0 - m.ybar_c0,
    )
    t_always = _zterm(
        m.pi_a * (p * m.pi_c + m.pi_n) / (p * (1.0 - p)),
        m.ybar_c1 - m.ybar_a1,
    )
    return float((t_never + t_always) / (m.pi_c * m.pi_c * (m.n - 1.0)))


@dataclass(frozen=True)
class EnumerationResult:
    """Exact distribution summary of an estimator over all assignments."""

    mean: float
    variance: float
    undefined_mass: float
    n_assignments: int
    n_defined: int


_FAST_TAGS = ("ITT", "F_HAT", "UNSTRAT")


def _assignment_blocks(n: int, n1: int, chunk: int):
    """Every assignment of n1 treated units out of n, in
    itertools.combinations order, as int8 (R, n) blocks of at most chunk
    rows."""
    combos = itertools.combinations(range(n), n1)
    while idx := list(itertools.islice(combos, chunk)):
        z = np.zeros((len(idx), n), dtype=np.int8)
        z[np.arange(len(idx))[:, None], np.array(idx, dtype=np.intp)] = 1
        yield z


def _enumerate_fast(
    table: ScienceTable, n1: int, total: int, tag: str
) -> np.ndarray:
    """Vectorized per-assignment values for the moment-only estimators."""
    n = table.n
    n0 = n - n1
    y1, y0 = table.y1, table.y0
    d1, d0 = table.d1.astype(np.float64), table.d0.astype(np.float64)
    sum_y0, sum_d0 = float(y0.sum()), float(d0.sum())
    values = np.empty(total)
    base = 0
    for block in _assignment_blocks(n, n1, 4096):
        z = block.astype(np.float64)
        itt = z @ y1 / n1 - (sum_y0 - z @ y0) / n0
        if tag == "ITT":
            vals = itt
        else:
            f = z @ d1 / n1 - (sum_d0 - z @ d0) / n0
            if tag == "F_HAT":
                vals = f
            else:
                with np.errstate(invalid="ignore", divide="ignore"):
                    vals = np.where(f != 0.0, itt / f, np.nan)
        values[base : base + len(z)] = vals
        base += len(z)
    return values


def _enumerate_rows(
    table: ScienceTable, n1: int, total: int, tag: str, config: EstimatorConfig
) -> np.ndarray:
    """Per-assignment values of an estimator tag (nan where undefined),
    running the estimators' row-wise kernels on blocks of assignments."""
    n, g = table.n, table.num_strata
    values = np.empty(total)
    base = 0
    for z in _assignment_blocks(n, n1, max(1, BLOCK_UNITS // n)):
        r = len(z)
        strata, compliers = (np.broadcast_to(a, (r, n)) for a in (table.strata, table.is_complier))
        y, d = reveal(table.y0, table.y1, table.d0, table.d1, z)
        block = ObservedBlock(z, d, y, strata, np.full(r, g), compliers)
        rows = estimate_rows(block, tag, config)
        values[base : base + r] = np.where(rows.failed, np.nan, rows.est)
        base += r
    return values


def _enumerate_callable(table: ScienceTable, n1: int, total: int, fn) -> np.ndarray:
    values = np.empty(total)
    rows = (z for block in _assignment_blocks(table.n, n1, 4096) for z in block)
    for i, z in enumerate(rows):
        try:
            values[i] = fn(science_to_observed(table, z))
        except EstimationError:
            values[i] = np.nan
    return values


def enumerate_expectation(
    table: ScienceTable,
    p: float,
    estimator,
    convention: str | None = None,
    config: EstimatorConfig = EstimatorConfig(),
) -> EnumerationResult:
    """Exact mean and variance of an estimator over every assignment of
    pN treated units.

    estimator is a tag ("ITT", "F_HAT", "ORACLE", or any estimate() tag)
    or a callable taking the revealed ObservedSample. Assignments where the
    estimator raises an estimation error or returns a non-finite value
    count as undefined; by default any undefined mass raises Infeasible,
    while convention="condition" averages over the defined assignments.
    The revealed samples are used as-is (no validation), so per-estimator
    preconditions decide definedness assignment by assignment.
    """
    if convention not in (None, "condition", "error-if-positive-mass"):
        raise ValueError(f"unknown convention {convention!r}")
    n = table.n
    n1 = _treated_count(n, p)
    total = math.comb(n, n1)
    if total > ENUMERATION_CAP:
        raise Infeasible(
            f"C({n}, {n1}) = {total} assignments exceeds the cap of {ENUMERATION_CAP}"
        )
    if callable(estimator):
        values = _enumerate_callable(table, n1, total, estimator)
    elif estimator in _FAST_TAGS:
        values = _enumerate_fast(table, n1, total, estimator)
    else:
        values = _enumerate_rows(table, n1, total, estimator, config)
    defined = np.isfinite(values)
    n_defined = int(defined.sum())
    n_undefined = total - n_defined
    if n_undefined > 0 and convention != "condition":
        raise Infeasible(
            f"estimator undefined on {n_undefined} of {total} assignments; "
            "pass convention='condition' to average over the defined ones"
        )
    if n_defined == 0:
        raise Infeasible("estimator undefined on every assignment")
    kept = values[defined]
    mean = math.fsum(kept) / n_defined
    variance = math.fsum((kept - mean) ** 2) / n_defined
    return EnumerationResult(
        mean=mean,
        variance=variance,
        undefined_mass=n_undefined / total,
        n_assignments=total,
        n_defined=n_defined,
    )
