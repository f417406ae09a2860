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
once, `pwiv_rows` the precision-weighted combination. Each returns Rows,
whose `code` indexes every row's failure in its `causes` (-1: none);
`first_stage_checks` is every ratio estimator's first-stage failure rule.
Every SE comes with its estimator's report: estimate(sample,
"IV_A").se_bloom is the post-stratified Bloom SE over all strata, and
UNSTRAT's the unstratified one.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .data_model import (
    DegenerateVariance,
    EmptyArm,
    EstimationError,
    MaskedRows,
    NonFinite,
    StratumMoments,
    TooFewUnits,
    ZeroCompliance,
)

__all__ = ["Rows", "first_stage_checks", "ratio_rows", "pwiv_rows"]


@dataclass
class Rows:
    """One estimator's results for R samples, indexed by row.

    est, f_hat, n_used and kept (an (R, G) mask) describe each row's
    estimate; se_bloom / se_delta are nan where undefined. checks are
    (row mask, exception) pairs in the order they run; code[r] indexes in
    causes the first exception whose mask holds row r, or is -1; a last
    check fails a row whose est is not finite with NonFinite. A failed
    row's est and SEs are nan (an unfailed row's est is finite); its f_hat
    stays, so a first_stage_checks failure can be read off it.
    """

    est: np.ndarray
    f_hat: np.ndarray
    n_used: np.ndarray
    kept: np.ndarray
    se_bloom: np.ndarray
    se_delta: np.ndarray
    checks: InitVar[Sequence[tuple[np.ndarray, EstimationError]]]
    code: np.ndarray = field(init=False)
    causes: tuple[EstimationError, ...] = field(init=False)

    def __post_init__(self, checks) -> None:
        # last: an estimate that overflowed has no other cause
        checks = [*checks, (~np.isfinite(self.est), NonFinite("the estimate is not finite"))]
        masks, self.causes = zip(*checks)
        self.code = np.full(len(self.est), -1)
        for i in reversed(range(len(masks))):  # the first check that holds wins
            self.code[masks[i]] = i
        for name in ("est", "se_bloom", "se_delta"):  # a failed row has no estimate
            setattr(self, name, np.where(self.failed, np.nan, getattr(self, name)))

    @property
    def failed(self) -> np.ndarray:
        return self.code >= 0

    def raise_first(self) -> None:
        """Raise the failure of row 0 (the R = 1 case), if it failed."""
        if self.code[0] >= 0:
            raise self.causes[self.code[0]]


def _two_per_arm(m: StratumMoments) -> np.ndarray:
    return (m.n_g1 >= 2) & (m.n_g0 >= 2)


def _var_itt(m: StratumMoments) -> np.ndarray:
    return m.s2_y1 / m.n_g1 + m.s2_y0 / m.n_g0


def first_stage_checks(first: np.ndarray) -> list[tuple[np.ndarray, EstimationError]]:
    """A ratio estimator's first-stage (f_ps, pi or D1 - D0) failure rule, as
    Rows checks: EmptyArm where it is nan (an arm is empty), then ZeroCompliance where 0."""
    return [
        (np.isnan(first), EmptyArm()),
        (first == 0.0, ZeroCompliance("the first stage is zero")),
    ]


def ratio_rows(
    m: StratumMoments, kept: np.ndarray, none_kept: EstimationError | None = None
) -> Rows:
    """Weighted-ITT ratio over each row's kept strata, with renormalized SEs.

    Evaluates sum(w_g itt_g) / sum(w_g f_g) with w_g = N_g / N_kept, which
    equals the compliance-weighted average of per-stratum IV estimates but
    stays finite when some kept f_g are tiny. Bloom:
    var = (1/f_ps^2) sum_g w_g^2 [s2_yg(1)/N_g1 + s2_yg(0)/N_g0]. Delta: the
    bracket becomes var(itt_g) + c^2 var(f_g) - 2 c cov_g, the Neyman
    variance of y - c d, with c the estimate. Both SEs need two units per
    arm in every kept stratum. A row fails with none_kept (a screen's
    error) if it keeps no stratum, then by first_stage_checks(f_ps): a
    kept stratum without an arm has f_g nan, and keeping none makes f_ps 0.
    """
    ksum = MaskedRows.of(kept).sum
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
    undefined = np.any(kept & ~_two_per_arm(m), axis=1)
    checks = [] if none_kept is None else [(~kept.any(axis=1), none_kept)]
    checks += first_stage_checks(f_ps)
    se = (np.where(undefined, np.nan, a) for a in (bloom, delta))
    return Rows(est, f_ps, n_kept, kept, *se, checks)


def pwiv_rows(m: StratumMoments, present: np.ndarray) -> Rows:
    """Precision-weighted IV: stratum IV estimates averaged with weights
    f_g^2 / var(itt_g), the reciprocal per-stratum Bloom variances, and
    SE sqrt(1 / Z) with Z the sum of the weights.

    Strata with f_g = 0 get zero weight. Every stratum needs two units per
    arm (TooFewUnits), at least one must have nonzero f_g (ZeroCompliance,
    the class IV_W fails with when no f_g is nonzero), and each weighted
    one a positive var(itt_g) (DegenerateVariance).
    """
    kept = (m.f_hat != 0.0) & present
    ksum = MaskedRows.of(kept).sum
    n_kept = np.where(kept, m.n_g, 0).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        var_itt = _var_itt(m)
        weights = m.f_hat**2 / var_itt
        z_total = ksum(weights)
        est = ksum(weights * (m.itt_hat / m.f_hat)) / z_total
        se = np.sqrt(1.0 / z_total)
        f_ps = ksum((m.n_g / n_kept[:, None].astype(np.float64)) * m.f_hat)
    checks = [
        (
            np.any(present & ~_two_per_arm(m), axis=1),
            TooFewUnits("need at least 2 units per arm in every stratum"),
        ),
        (~kept.any(axis=1), ZeroCompliance("every stratum has zero estimated compliance")),
        (
            np.any(kept & (var_itt == 0.0), axis=1),
            DegenerateVariance("a stratum with nonzero f_hat has zero outcome variance"),
        ),
    ]
    return Rows(est, f_ps, n_kept, kept, se, np.full(len(est), np.nan), checks)
