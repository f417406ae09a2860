import math

import numpy as np
import pytest

from ivstrat import (
    METHODS,
    EstimationError,
    EstimatorConfig,
    ObservedSample,
    ScienceTable,
    ZeroCompliance,
    estimate,
    first_stage_f,
    f_hat,
    itt_hat,
    iv_across,
    iv_dsf,
    iv_dss,
    iv_pwiv,
    iv_unstratified,
    iv_within,
    oracle_complier_dim,
    tsls_dummies,
    tsls_weighted,
)
from ivstrat.data_model import (
    AllStrataDropped,
    NoCompliersInArm,
    RankDeficient,
    stratum_moments,
)
from helpers import random_sample, sample_a, sample_pwiv, sample_two_strata

RNG = np.random.default_rng(77)


def test_unstratified_hand_values():
    r = iv_unstratified(sample_a())
    assert r.estimate == 2.0
    assert r.f_hat == 0.5
    assert r.n_used == 4
    assert r.se_bloom == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert r.se_delta == pytest.approx(2.0, rel=1e-15)


def test_itt_and_f_hat():
    s = sample_a()
    assert itt_hat(s) == 1.0
    assert f_hat(s) == 0.5


def test_unstratified_zero_compliance():
    s = ObservedSample.from_arrays(z=[1, 1, 0, 0], d=[0] * 4, y=[3.0, 1.0, 2.0, 0.0])
    with pytest.raises(ZeroCompliance):
        iv_unstratified(s)


def test_single_stratum_collapse_bitwise():
    for seed in range(20):
        s = random_sample(np.random.default_rng(seed), g_range=(1, 1))
        base = iv_unstratified(s)
        for fn in (iv_within, iv_across, iv_dss):
            r = fn(s)
            assert r.estimate == base.estimate
            assert r.se_bloom == base.se_bloom
            assert r.se_delta == base.se_delta


def test_within_across_all_strata_kept_bitwise():
    # with every f_hat_g nonzero, IV-w and IV-a run the identical expression
    for seed in range(20):
        s = random_sample(np.random.default_rng(seed + 40))
        w, a = iv_within(s), iv_across(s)
        assert w.estimate == a.estimate
        assert w.se_bloom == a.se_bloom
        assert w.strata_kept == a.strata_kept


def test_within_vs_across_with_zero_compliance_stratum():
    s = sample_two_strata()
    w = iv_within(s)
    assert w.estimate == 2.0
    assert w.n_used == 4
    assert w.strata_kept == frozenset({"x"})
    a = iv_across(s)
    assert a.estimate == 6.0  # ITT_ps 1.5 over f_ps 0.25
    assert a.f_hat == 0.25
    assert a.n_used == 8
    assert a.strata_kept == frozenset({"x", "w"})


def test_within_keeps_negative_compliance_strata():
    # two-sided stratum with f_hat < 0 stays in IV-w but is dropped by DSS
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 1, 0, 0],
        d=[1, 0, 0, 0, 0, 0, 1, 1],
        y=[3.0, 1.0, 2.0, 0.0, 1.0, 0.0, 2.0, 1.0],
        strata=["a", "a", "a", "a", "b", "b", "b", "b"],
    )
    w = iv_within(s)
    assert w.strata_kept == frozenset({"a", "b"})
    d = iv_dss(s)
    assert d.strata_kept == frozenset({"a"})
    assert d.estimate == 2.0


def test_dss_threshold_is_inclusive():
    s = sample_two_strata()  # stratum f_hats are 0.5 and 0.0
    r = iv_dss(s, EstimatorConfig(dss_threshold=0.5))
    assert r.strata_kept == frozenset({"x"})
    with pytest.raises(AllStrataDropped):
        iv_dss(s, EstimatorConfig(dss_threshold=0.500001))


def test_dss_tiny_threshold_equals_iv_within_one_sided():
    cfg = EstimatorConfig(dss_threshold=1e-12)
    for seed in range(15):
        s = random_sample(np.random.default_rng(seed + 80), one_sided=True)
        assert iv_dss(s, cfg).estimate == iv_within(s).estimate


def test_first_stage_f_hand_value():
    # ESS = (2*2/4)*0.25 = 0.25, RSS = 0.5, F = (4-2)*0.25/0.5 = 1
    assert first_stage_f(stratum_moments(sample_a()))[0] == 1.0


def test_first_stage_f_zero_compliance_wins_over_zero_rss():
    # d identically 0: RSS = 0 too, but f_hat = 0 must yield F = 0
    s = sample_two_strata()
    assert first_stage_f(stratum_moments(s))[s.stratum_labels.index("w")] == 0.0


def test_first_stage_f_perfect_uptake_is_infinite():
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0], d=[1, 1, 0, 0], y=[3.0, 1.0, 2.0, 0.0]
    )
    assert first_stage_f(stratum_moments(s))[0] == math.inf


def test_first_stage_f_too_small():
    s = ObservedSample.from_arrays(z=[1, 0, 1, 0], d=[1, 0, 1, 0], y=[1.0, 2.0, 3.0, 4.0],
                                   strata=["a", "a", "b", "b"])
    # two units: too few for the F statistic
    assert np.isnan(first_stage_f(stratum_moments(s))).all()


def test_dsf_keeps_only_strong_strata():
    # stratum 0 has d == z (F = inf), stratum 1 has f_hat 0.5 (F = 1)
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 1, 0, 0],
        d=[1, 1, 0, 0, 1, 0, 0, 0],
        y=[3.0, 1.0, 2.0, 0.0, 3.0, 1.0, 2.0, 0.0],
        strata=[0, 0, 0, 0, 1, 1, 1, 1],
    )
    r = iv_dsf(s)
    assert r.strata_kept == frozenset({0})
    assert r.estimate == 1.0  # d == z, so the stratum IV is its ITT
    with pytest.raises(AllStrataDropped):
        iv_dsf(sample_a())


def test_pwiv_hand_values():
    r = iv_pwiv(sample_pwiv())
    assert r.estimate == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert r.se_bloom == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-15)
    assert r.se_delta is None


def test_pwiv_skips_zero_compliance_strata():
    s = sample_two_strata()
    r = iv_pwiv(s)
    assert r.strata_kept == frozenset({"x"})
    assert r.estimate == 2.0
    assert r.n_used == 4


def test_pwiv_equal_strata_symmetric_reduction():
    # equal-size strata with identical data: PWIV equals the common stratum IV
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0] * 2,
        d=[1, 0, 0, 0] * 2,
        y=[3.0, 1.0, 2.0, 0.0] * 2,
        strata=[0] * 4 + [1] * 4,
    )
    assert iv_pwiv(s).estimate == pytest.approx(2.0, rel=1e-15)


def test_oracle_complier_dim():
    y0 = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    ctype = np.array([1, 1, 1, 1, 0, 0])
    t = ScienceTable.from_arrays(
        y0=y0, y1=y0 + 2.0 * ctype, d0=np.zeros(6, dtype=int), d1=ctype
    )
    z = np.array([1, 1, 0, 0, 1, 0])
    r = oracle_complier_dim(t, z)
    # treated compliers have y1 = (2, 3); control compliers y0 = (2, 3)
    assert r.estimate == 0.0
    assert r.n_used == 4
    assert r.f_hat == 1.0
    with pytest.raises(NoCompliersInArm):
        oracle_complier_dim(t, np.array([1, 1, 1, 1, 0, 0]))


def test_tsls_weighted_matches_iv_across():
    for seed in range(30):
        s = random_sample(np.random.default_rng(seed + 200))
        a = iv_across(s).estimate
        t = tsls_weighted(s)
        assert t == pytest.approx(a, rel=1e-11, abs=1e-11)


def test_tsls_dummies_single_stratum_is_wald():
    for seed in range(10):
        s = random_sample(np.random.default_rng(seed + 300), g_range=(1, 1))
        r = tsls_dummies(s)
        assert r.estimate == pytest.approx(iv_unstratified(s).estimate, rel=1e-11)
        assert r.se_bloom is not None and r.se_bloom > 0.0


def test_tsls_dummies_rank_deficient():
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 1, 0, 0],
        d=[0] * 8,
        y=[3.0, 1.0, 2.0, 0.0, 4.0, 2.0, 1.0, 1.0],
        strata=[0] * 4 + [1] * 4,
    )
    with pytest.raises(RankDeficient):
        tsls_dummies(s)


def test_estimate_dispatcher_covers_all_methods():
    s = random_sample(np.random.default_rng(9), g_range=(2, 4))
    for tag in METHODS:
        r = estimate(s, tag)
        assert r.method == tag
        assert math.isfinite(r.estimate)
    with pytest.raises(ValueError):
        estimate(s, "NOPE")


def test_estimate_tsls_weighted_report_f_hat():
    s = sample_two_strata()
    r = estimate(s, "TSLS_WEIGHTED")
    assert r.f_hat == 0.25  # population-share-weighted compliance
    assert r.estimate == pytest.approx(6.0, rel=1e-12)


def test_affine_equivariance_of_estimates():
    a, b = -2.5, 7.0
    for seed in range(10):
        s = random_sample(np.random.default_rng(seed + 400))
        s_t = ObservedSample.from_arrays(
            z=s.z, d=s.d, y=a * s.y + b,
            strata=[s.stratum_labels[g] for g in s.strata],
        )
        for tag in METHODS:
            try:
                r0 = estimate(s, tag)
            except EstimationError as exc:
                # feasibility depends only on z/d, so the transformed
                # sample must fail identically
                with pytest.raises(type(exc)):
                    estimate(s_t, tag)
                continue
            r1 = estimate(s_t, tag)
            assert r1.estimate == pytest.approx(a * r0.estimate, rel=1e-9, abs=1e-9)
            if r0.se_bloom is not None:
                assert r1.se_bloom == pytest.approx(
                    abs(a) * r0.se_bloom, rel=1e-9, abs=1e-9
                )


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(dss_threshold=-0.1)
    with pytest.raises(ValueError):
        EstimatorConfig(dsf_f_min=0.0)
