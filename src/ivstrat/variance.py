"""Standard errors for instrumental-variable effect estimates.

Two families of plug-in variances for a ratio estimate itt_hat / f_hat:

* Bloom: treat the first stage as known and scale the Neyman variance of
  the intent-to-treat contrast by 1 / f_hat^2.
* Delta: first-order expansion of the ratio, which adds the sampling noise
  of f_hat and its covariance with itt_hat.

Each family is a post-stratified form that averages per-stratum pieces with
(N_g / N)^2 weights over the strata an estimator kept; the unstratified
form is its one-stratum case, evaluated on moments that pool every unit.

The work happens row-wise on (R, G) moments (see data_model.block_moments),
with each row's sums over its kept strata taken by data_model.MaskedRows:
`ratio_rows` forms the weighted-ITT ratio and both SEs for R samples at
once, `pwiv_rows` the precision-weighted combination. The public se_*_ps
functions are their R = 1 calls on one sample; the unstratified and
precision-weighted SEs come with the UNSTRAT and PWIV estimate() reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .data_model import (
    AllStrataDropped,
    DegenerateVariance,
    EstimationError,
    MaskedRows,
    ObservedBlock,
    ObservedSample,
    StratumMoments,
    TooFewUnits,
    UnknownStratum,
    ZeroCompliance,
)

__all__ = ["se_bloom_ps", "se_delta_ps"]


@dataclass
class Rows:
    """One estimator's results for R samples, indexed by row.

    est, f_hat, n_used and kept (an (R, G) mask) describe each row's
    estimate; se_bloom / se_delta are nan where undefined. errors lists
    (row mask, exception) pairs in the order the checks run: a row fails
    with the first exception whose mask holds it. se_errors likewise says
    why a row's SEs are undefined.
    """

    est: np.ndarray
    f_hat: np.ndarray
    n_used: np.ndarray
    kept: np.ndarray
    se_bloom: np.ndarray
    se_delta: np.ndarray
    errors: list[tuple[np.ndarray, EstimationError]]
    se_errors: list[tuple[np.ndarray, EstimationError]]

    @property
    def failed(self) -> np.ndarray:
        out = np.zeros(len(self.est), dtype=bool)
        for mask, _ in self.errors:
            out |= mask
        return out

    def raise_first(self, which: str = "errors") -> None:
        """Raise the first failure of row 0 (the R = 1 case)."""
        for mask, exc in getattr(self, which):
            if mask[0]:
                raise exc


def _two_per_arm(m: StratumMoments) -> np.ndarray:
    return (m.n_g1 >= 2) & (m.n_g0 >= 2)


def _too_few(rows: np.ndarray) -> tuple[np.ndarray, EstimationError]:
    return rows, TooFewUnits("need at least 2 units per arm in every kept stratum")


def _var_itt(m: StratumMoments) -> np.ndarray:
    return m.s2_y1 / m.n_g1 + m.s2_y0 / m.n_g0


def ratio_rows(m: StratumMoments, kept: np.ndarray) -> Rows:
    """Weighted-ITT ratio over each row's kept strata, with renormalized SEs.

    Evaluates sum(w_g itt_g) / sum(w_g f_g) with w_g = N_g / N_kept, which
    equals the compliance-weighted average of per-stratum IV estimates but
    stays finite when some kept f_g are tiny. Bloom:
    var = (1/f_ps^2) sum_g w_g^2 [s2_yg(1)/N_g1 + s2_yg(0)/N_g0]. Delta: the
    bracket becomes var(itt_g) + c^2 var(f_g) - 2 c cov_g, the Neyman
    variance of y - c d, with c the estimate. Both SEs need two units per
    arm in every kept stratum.
    """
    ksum = MaskedRows(kept).sum
    n_kept = np.where(kept, m.n_g, 0).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        w = m.n_g / n_kept[:, None].astype(np.float64)
        f_ps = ksum(w * m.f_hat)
        est = ksum(w * m.itt_hat) / f_ps
        w2 = w**2
        var_itt = _var_itt(m)
        var_f = m.s2_d1 / m.n_g1 + m.s2_d0 / m.n_g0
        cov = m.s_yd1 / m.n_g1 + m.s_yd0 / m.n_g0
        bloom = np.sqrt(ksum(w2 * var_itt) / (f_ps * f_ps))
        c = est[:, None]
        var = ksum(w2 * (var_itt + c * c * var_f - 2.0 * c * cov)) / (f_ps * f_ps)
        delta = np.sqrt(np.where(0.0 > var, 0.0, var))
    zero = f_ps == 0.0
    errors = [(zero, ZeroCompliance("kept strata have zero combined compliance"))]
    se_errors = [_too_few(np.any(kept & ~_two_per_arm(m), axis=1))] + errors
    undefined = se_errors[0][0] | zero
    return Rows(
        est=np.where(zero, np.nan, est),
        f_hat=f_ps,
        n_used=n_kept,
        kept=kept,
        se_bloom=np.where(undefined, np.nan, bloom),
        se_delta=np.where(undefined, np.nan, delta),
        errors=errors,
        se_errors=se_errors,
    )


def pwiv_rows(m: StratumMoments, present: np.ndarray) -> Rows:
    """Precision-weighted IV: stratum IV estimates averaged with weights
    f_g^2 / var(itt_g), the reciprocal per-stratum Bloom variances, and
    SE sqrt(1 / Z) with Z the sum of the weights.

    Strata with f_g = 0 get zero weight. Every stratum needs two units per
    arm (TooFewUnits), at least one must have nonzero f_g
    (AllStrataDropped), and each weighted one a positive var(itt_g)
    (DegenerateVariance).
    """
    kept = (m.f_hat != 0.0) & present
    ksum = MaskedRows(kept).sum
    n_kept = np.where(kept, m.n_g, 0).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        var_itt = _var_itt(m)
        weights = m.f_hat**2 / var_itt
        z_total = ksum(weights)
        est = ksum(weights * (m.itt_hat / m.f_hat)) / z_total
        se = np.sqrt(1.0 / z_total)
        f_ps = ksum((m.n_g / n_kept[:, None].astype(np.float64)) * m.f_hat)
    errors = [
        _too_few(np.any(present & ~_two_per_arm(m), axis=1)),
        (~kept.any(axis=1), AllStrataDropped("every stratum has zero estimated compliance")),
        (
            np.any(kept & (var_itt == 0.0), axis=1),
            DegenerateVariance("a stratum with nonzero f_hat has zero outcome variance"),
        ),
    ]
    rows = Rows(est, f_ps, n_kept, kept, se, np.full(len(est), np.nan), errors, errors)
    failed = rows.failed
    rows.est = np.where(failed, np.nan, est)
    rows.se_bloom = np.where(failed, np.nan, se)
    return rows


# ---------------------------------------------------------------------------
# One sample: the R = 1 calls.


def _se(rows: Rows, field: str) -> float:
    rows.raise_first("se_errors")
    return float(getattr(rows, field)[0])


def _kept_mask(sample: ObservedSample, kept_strata: Iterable[Hashable] | None) -> np.ndarray:
    """The (1, G) kept-strata mask of one sample from labels (None keeps all)."""
    kept = np.zeros((1, sample.num_strata), dtype=bool)
    if kept_strata is None:
        kept[:] = True
        return kept
    codes = {label: g for g, label in enumerate(sample.stratum_labels)}
    for label in kept_strata:
        if label not in codes:
            raise UnknownStratum(f"stratum {label!r} is not a stratum of this sample")
        kept[0, codes[label]] = True
    if not kept.any():
        raise AllStrataDropped("kept_strata is empty")
    return kept


def se_bloom_ps(sample: ObservedSample, kept_strata: Iterable[Hashable] | None = None) -> float:
    """Post-stratified Bloom standard error over the kept strata.

    var = (1/f_ps^2) sum_g (N_g/N)^2 [s2_yg(1)/N_g1 + s2_yg(0)/N_g0] with N
    and f_ps renormalized to the kept units. kept_strata of None keeps all.
    """
    m = ObservedBlock.of(sample).moments
    return _se(ratio_rows(m, _kept_mask(sample, kept_strata)), "se_bloom")


def se_delta_ps(sample: ObservedSample, kept_strata: Iterable[Hashable] | None = None) -> float:
    """Post-stratified delta-method standard error over the kept strata.

    Per stratum the bracket is var(itt_g) + cace^2 var(f_g) - 2 cace cov_g,
    i.e. the Neyman variance of y - cace * d, so each term is nonnegative;
    cace is the post-stratified ratio over the kept strata.
    """
    m = ObservedBlock.of(sample).moments
    return _se(ratio_rows(m, _kept_mask(sample, kept_strata)), "se_delta")

