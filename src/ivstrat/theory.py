"""Finite-population theory oracles evaluated on science tables.

Everything here takes the full potential-outcome table as known and asks
what a complete randomization of pN units would do: exact variances of the
IV estimators (unstratified and post-stratified), Taylor approximations of
the small-sample bias of the IV ratio, and a brute-force enumeration oracle
that averages an estimator, named by its tag, over every possible
assignment. Both run on the engine's kernels: the population variances are
data_model.block_moments' sample variances, and the oracle runs UNSTRAT by
its arm-sum closed form, ORACLE by its kernel's arithmetic on each block's
complier summary alone, and every other tag by the estimators' row-wise
kernels, on blocks of assignments.

All variances are variances of the estimators themselves (the 1/n factors
live inside the expressions), so they compare directly with Monte Carlo
variances over assignments. The first-order variance of the IV ratio,
[var(itt_hat) + cace^2 var(f_hat) - 2 cace cov(itt_hat, f_hat)] / pi_c^2,
is by bilinearity the exact (Neyman) variance of the difference in means
of the modified outcome u = y - cace * d, S2(u1)/n1 + S2(u0)/n0 -
S2(u1 - u0)/N, over pi_c^2 (Imbens & Rubin 2015, ch. 6); the
post-stratified one is a weighted sum of that form over strata.

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
    Infeasible,
    NEVER_TAKER,
    NoCompliers,
    ObservedBlock,
    ScienceTable,
    TooFewUnits,
    TwoSidedInput,
    _treated_count,
    block_moments,
    complier_summary,
    reveal,
)
from .estimators import METHODS, EstimatorConfig, _oracle_rows, check_tags, estimate_rows

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

    The bias formulas read the compliance-type shares and four group means
    (ybar_c1 = mean of Y(1) over compliers, etc.; nan when the group is
    empty, where the formulas guard the term by its zero coefficient).

    The first-order variances read only the sample variances (divisor
    n - 1) of the modified outcomes u1 = y1 - cace * d1 and
    u0 = y0 - cace * d0 and of u1 - u0: pooled in s2_u*, and by dense
    stratum code in g_s2_u* (nan for a single-unit stratum). With no
    complier, cace and so all six are nan.
    """

    n: int
    p: float
    n_g: np.ndarray
    pi_c: float
    pi_a: float
    pi_n: float
    ybar_c1: float
    ybar_c0: float
    ybar_a1: float
    ybar_n0: float
    cace: float
    s2_u1: float
    s2_u0: float
    s2_u01: float
    g_s2_u1: np.ndarray
    g_s2_u0: np.ndarray
    g_s2_u01: np.ndarray

    @property
    def n1(self) -> int:
        return round(self.p * self.n)

    @property
    def n0(self) -> int:
        return self.n - self.n1


def _group_mean(mask: np.ndarray, values: np.ndarray) -> float:
    return float(np.mean(values[mask])) if mask.any() else float("nan")


def moments(table: ScienceTable, p: float) -> PopulationMoments:
    """All population moments of a science table under complete
    randomization of pN units."""
    n = table.n
    _treated_count(n, p)
    ctype = table.compliance_type
    is_c, is_a, is_n = ctype == COMPLIER, ctype == ALWAYS_TAKER, ctype == NEVER_TAKER
    cace = table.cace if is_c.any() else float("nan")
    u1 = table.y1 - cace * table.d1
    u0 = table.y0 - cace * table.d0
    # one row per modified outcome, every unit in the treated arm: the
    # engine's treated-arm s2_y1 is then each row's sample variance
    u = np.stack((u1, u0, u1 - u0))
    z, d = np.ones(u.shape, np.int8), np.zeros(u.shape)
    strata = np.broadcast_to(table.strata, u.shape)
    by_stratum, pooled = block_moments(z, d, u, strata, table.num_strata)
    s2_pooled = pooled.s2_y1[:, 0]
    g_s2 = by_stratum.s2_y1
    return PopulationMoments(
        n=n,
        p=p,
        n_g=by_stratum.n_g[0].astype(np.float64),
        pi_c=float(np.mean(is_c)),
        pi_a=float(np.mean(is_a)),
        pi_n=float(np.mean(is_n)),
        ybar_c1=_group_mean(is_c, table.y1),
        ybar_c0=_group_mean(is_c, table.y0),
        ybar_a1=_group_mean(is_a, table.y1),
        ybar_n0=_group_mean(is_n, table.y0),
        cace=cace,
        s2_u1=float(s2_pooled[0]),
        s2_u0=float(s2_pooled[1]),
        s2_u01=float(s2_pooled[2]),
        g_s2_u1=g_s2[0],
        g_s2_u0=g_s2[1],
        g_s2_u01=g_s2[2],
    )


def _zterm(coef, diff):
    # a formula term whose coefficient vanishes exactly when its group
    # mean is undefined; skip to avoid 0 * nan
    return np.where(coef == 0.0, 0.0, coef * diff)


def _neyman_var(w, n1, n0, n, s2_u1, s2_u0, s2_u01, pi_c) -> float:
    """(1/pi_c^2) sum w [S2(u1)/n1 + S2(u0)/n0 - S2(u1 - u0)/N]: the
    weighted exact complete-randomization variances of the difference in
    means of u = y - cace * d with n1 of N units treated."""
    var = np.sum(w * (s2_u1 / n1 + s2_u0 / n0 - s2_u01 / n))
    return float(var) / (pi_c * pi_c)


def asyvar_iv(m: PopulationMoments) -> float:
    """Variance of the unstratified IV estimator, to first order: (1/pi_c^2)
    [var(itt_hat) + cace^2 var(f_hat) - 2 cace cov(itt_hat, f_hat)], each
    term exact, computed as the variance of the difference in means of
    u = y - cace * d (see the module docstring)."""
    if m.pi_c == 0.0:
        raise NoCompliers("no compliers; the IV estimand is undefined")
    return _neyman_var(1.0, m.n1, m.n0, m.n, m.s2_u1, m.s2_u0, m.s2_u01, m.pi_c)


def asyvar_iv_ps(m: PopulationMoments, exact_factors: bool = False) -> float:
    """Variance of the post-stratified IV estimator, to first order.

    asyvar_iv's variance of the difference in means of u = y - cace * d
    (cace the population value), taken in each stratum with p N_g of its
    N_g units treated, as a weighted sum. The default weights are the
    large-N (N_g/N)^2 form; exact_factors=True uses (N_g/N)(N_g-1)/(N-1),
    which makes the single-stratum case collapse to asyvar_iv.
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
    n1, n0 = m.p * m.n_g, (1.0 - m.p) * m.n_g
    return _neyman_var(w, n1, n0, m.n_g, m.g_s2_u1, m.g_s2_u0, m.g_s2_u01, m.pi_c)


def bias_one_sided_exact(
    table: ScienceTable, p: float, convention: str | None = None
) -> float:
    """Exact bias of the unstratified IV estimator under one-sided
    noncompliance: (1/(1-p)) (1 - E[1/f_hat] E[f_hat]) (Ybar_c(0) - Ybar_n(0)).

    n1 * f_hat is a hypergeometric complier count, so E[1/f_hat] is an
    exact finite sum over its support; no sampling is involved at any N.
    Assignments with f_hat = 0 make the estimator undefined: by default
    (convention=None) any such probability mass raises Infeasible, while
    convention="condition" renormalizes E[1/f_hat] over f_hat > 0, in which
    case the result is exactly the conditional bias
    E[itt_hat/f_hat | f_hat > 0] - cace.
    """
    from scipy.stats import hypergeom  # scipy stays off the import path of ivstrat

    if convention not in (None, "condition"):
        raise ValueError(f"unknown convention {convention!r}")
    if not table.one_sided:
        raise TwoSidedInput("table has always-takers; this formula is one-sided only")
    n = table.n
    n1 = _treated_count(n, p)
    ctype = table.compliance_type
    is_c, is_n = ctype == COMPLIER, ctype == NEVER_TAKER
    n_c = int(np.sum(is_c))
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
    delta = _group_mean(is_c, table.y0) - _group_mean(is_n, table.y0)
    return (1.0 - pi_c * e_inv) * delta / (1.0 - p)


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
    if variant not in ("hypergeometric", "binomial"):
        raise ValueError(f"unknown variant {variant!r}")
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
    else:
        draws = p * m.n
        mu2 = pi_c * q / draws
        mu3 = pi_c * q * (1.0 - 2.0 * pi_c) / draws**2
        mu4 = pi_c * q * (1.0 + (3.0 * draws - 6.0) * pi_c * q) / draws**3
        e_inv = 1.0 / pi_c + mu2 / pi_c**3 - mu3 / pi_c**4 + mu4 / pi_c**5
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


def _assignment_blocks(n: int, n1: int):
    """Every assignment of n1 treated units out of n, in
    itertools.combinations order, as int8 (R, n) blocks of at most
    BLOCK_UNITS // n rows."""
    combos = itertools.combinations(range(n), n1)
    while idx := list(itertools.islice(combos, max(1, BLOCK_UNITS // n))):
        z = np.zeros((len(idx), n), dtype=np.int8)
        z[np.arange(len(idx))[:, None], np.array(idx, dtype=np.intp)] = 1
        yield z


def _block_values(
    table: ScienceTable, z: np.ndarray, n1: int, tag: str, config: EstimatorConfig
) -> np.ndarray:
    """Per-assignment values of an estimator tag on a block z of
    assignments, nan where undefined."""
    if tag == "UNSTRAT":
        # the arm-sum closed form: each arm's sum over every row is one matmul
        n0 = table.n - n1
        y1, y0 = table.y1, table.y0
        d1, d0 = table.d1.astype(np.float64), table.d0.astype(np.float64)
        zf = z.astype(np.float64)
        itt = zf @ y1 / n1 - (float(y0.sum()) - zf @ y0) / n0
        f = zf @ d1 / n1 - (float(d0.sum()) - zf @ d0) / n0
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(f != 0.0, itt / f, np.nan)
    strata = np.broadcast_to(table.strata, z.shape)
    y, d = reveal(table.y0, table.y1, table.d0, table.d1, z)
    if tag == "ORACLE":  # no moments: ORACLE reads only the compliers' summary
        at = np.flatnonzero(np.broadcast_to(table.is_complier, z.shape))
        return _oracle_rows(complier_summary(at, z, y, strata, table.num_strata)).est
    block = ObservedBlock.of_units(z, d, y, strata)
    return estimate_rows(block, tag, config).est  # nan exactly where the row failed


def _summarize(values: np.ndarray, convention: str | None) -> EnumerationResult:
    """Mean and variance (by math.fsum) of per-assignment values over the
    defined (finite) ones. Undefined mass raises Infeasible unless
    convention is "condition"; no defined value at all always does."""
    total = len(values)
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


def enumerate_expectation(
    table: ScienceTable,
    p: float,
    estimator: str,
    convention: str | None = None,
    config: EstimatorConfig = EstimatorConfig(),
) -> EnumerationResult:
    """Exact mean and variance of an estimator over every assignment of
    pN treated units.

    estimator is a tag: one of METHODS, or "ORACLE". UNSTRAT runs its
    arm-sum closed form on blocks of assignments, ORACLE its kernel's
    arithmetic on each revealed block's complier summary, and every other
    tag the estimators' row-wise kernels on the revealed blocks, as
    simulate does. The revealed samples are used as-is (no validation), so
    per-estimator preconditions decide definedness assignment by
    assignment. By default (None) any undefined mass raises Infeasible,
    while convention="condition" averages over the defined assignments.
    """
    if convention not in (None, "condition"):
        raise ValueError(f"unknown convention {convention!r}")
    check_tags((estimator,), (*METHODS, "ORACLE"))
    n = table.n
    n1 = _treated_count(n, p)
    total = math.comb(n, n1)
    if total > ENUMERATION_CAP:
        raise Infeasible(
            f"C({n}, {n1}) = {total} assignments exceeds the cap of {ENUMERATION_CAP}"
        )
    values = [_block_values(table, z, n1, estimator, config) for z in _assignment_blocks(n, n1)]
    return _summarize(np.concatenate(values), convention)
