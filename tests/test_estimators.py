import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivstrat import (
    METHODS,
    EstimationError,
    EstimatorConfig,
    ObservedSample,
    ScienceTable,
    ZeroCompliance,
    estimate,
    first_stage_f,
    oracle_complier_dim,
)
from ivstrat.data_model import (
    AllStrataDropped,
    LengthMismatch,
    NoCompliersInArm,
    NonBinary,
    RankDeficient,
    stratum_moments,
)
from helpers import (
    pooled_moments,
    random_sample,
    sample_a,
    sample_pwiv,
    sample_two_strata,
    tsls_weighted_units,
)

RNG = np.random.default_rng(77)


def test_unstratified_hand_values():
    r = estimate(sample_a(), "UNSTRAT")
    assert r.estimate == 2.0
    assert r.f_hat == 0.5
    assert r.n_used == 4
    assert r.se_bloom == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    assert r.se_delta == pytest.approx(2.0, rel=1e-15)


def test_itt_and_f_hat():
    m = pooled_moments(sample_a())
    assert m.itt_hat[0] == 1.0
    assert m.f_hat[0] == 0.5


def test_unstratified_zero_compliance():
    s = ObservedSample.from_arrays(z=[1, 1, 0, 0], d=[0] * 4, y=[3.0, 1.0, 2.0, 0.0])
    with pytest.raises(ZeroCompliance):
        estimate(s, "UNSTRAT")


def test_single_stratum_collapse_bitwise():
    for seed in range(20):
        s = random_sample(np.random.default_rng(seed), g_range=(1, 1))
        base = estimate(s, "UNSTRAT")
        for tag in ("IV_W", "IV_A", "DSS"):
            r = estimate(s, tag)
            assert r.estimate == base.estimate
            assert r.se_bloom == base.se_bloom
            assert r.se_delta == base.se_delta


def test_within_across_all_strata_kept_bitwise():
    # with every f_hat_g nonzero, IV-w and IV-a run the identical expression
    for seed in range(20):
        s = random_sample(np.random.default_rng(seed + 40))
        w, a = estimate(s, "IV_W"), estimate(s, "IV_A")
        assert w.estimate == a.estimate
        assert w.se_bloom == a.se_bloom
        assert w.strata_kept == a.strata_kept


def test_within_vs_across_with_zero_compliance_stratum():
    s = sample_two_strata()
    w = estimate(s, "IV_W")
    assert w.estimate == 2.0
    assert w.n_used == 4
    assert w.strata_kept == frozenset({"x"})
    a = estimate(s, "IV_A")
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
    w = estimate(s, "IV_W")
    assert w.strata_kept == frozenset({"a", "b"})
    d = estimate(s, "DSS")
    assert d.strata_kept == frozenset({"a"})
    assert d.estimate == 2.0


def test_dss_threshold_is_inclusive():
    s = sample_two_strata()  # stratum f_hats are 0.5 and 0.0
    r = estimate(s, "DSS", EstimatorConfig(dss_threshold=0.5))
    assert r.strata_kept == frozenset({"x"})
    with pytest.raises(AllStrataDropped):
        estimate(s, "DSS", EstimatorConfig(dss_threshold=0.500001))


def test_dss_tiny_threshold_equals_iv_within_one_sided():
    cfg = EstimatorConfig(dss_threshold=1e-12)
    for seed in range(15):
        s = random_sample(np.random.default_rng(seed + 80), one_sided=True)
        assert estimate(s, "DSS", cfg).estimate == estimate(s, "IV_W").estimate


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
    r = estimate(s, "DSF")
    assert r.strata_kept == frozenset({0})
    assert r.estimate == 1.0  # d == z, so the stratum IV is its ITT
    with pytest.raises(AllStrataDropped):
        estimate(sample_a(), "DSF")


def test_pwiv_hand_values():
    r = estimate(sample_pwiv(), "PWIV")
    assert r.estimate == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert r.se_bloom == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-15)
    assert r.se_delta is None


def test_pwiv_skips_zero_compliance_strata():
    s = sample_two_strata()
    r = estimate(s, "PWIV")
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
    assert estimate(s, "PWIV").estimate == pytest.approx(2.0, rel=1e-15)


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
    with pytest.raises(LengthMismatch):
        oracle_complier_dim(t, np.array([1, 1, 0, 0, 1]))
    for z in ([1, 0.5, 0, 1, 0, 1], [1, 2, 0, 1, 0, 1]):
        with pytest.raises(NonBinary):
            oracle_complier_dim(t, z)

def test_tsls_weighted_matches_iv_across():
    for seed in range(30):
        s = random_sample(np.random.default_rng(seed + 200))
        a = estimate(s, "IV_A").estimate
        t = estimate(s, "TSLS_WEIGHTED").estimate
        assert t == pytest.approx(a, rel=1e-11, abs=1e-11)


def test_tsls_dummies_single_stratum_is_wald():
    for seed in range(10):
        s = random_sample(np.random.default_rng(seed + 300), g_range=(1, 1))
        r = estimate(s, "TSLS_DUMMY")
        assert r.estimate == pytest.approx(estimate(s, "UNSTRAT").estimate, rel=1e-11)
        assert r.se_bloom is not None and r.se_bloom > 0.0


def test_tsls_dummies_rank_deficient():
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 1, 0, 0],
        d=[0] * 8,
        y=[3.0, 1.0, 2.0, 0.0, 4.0, 2.0, 1.0, 1.0],
        strata=[0] * 4 + [1] * 4,
    )
    with pytest.raises(RankDeficient):
        estimate(s, "TSLS_DUMMY")


def test_estimate_dispatcher_covers_all_methods():
    s = random_sample(np.random.default_rng(9), g_range=(2, 4))
    for tag in METHODS:
        r = estimate(s, tag)
        assert r.method == tag
        assert math.isfinite(r.estimate)
    with pytest.raises(ValueError):
        estimate(s, "NOPE")
    # ORACLE needs the true compliers, which observed data lack
    assert "ORACLE" not in METHODS
    with pytest.raises(ValueError):
        estimate(s, "ORACLE")


def test_estimate_tsls_weighted_report_f_hat():
    s = sample_two_strata()
    r = estimate(s, "TSLS_WEIGHTED")
    assert r.f_hat == 0.25  # population-share-weighted compliance
    assert r.estimate == pytest.approx(6.0, rel=1e-12)


_UNITS = st.lists(
    st.tuples(
        st.integers(0, 1),  # z
        st.integers(0, 1),  # d
        st.floats(-10.0, 10.0, allow_nan=False),  # y
        st.integers(0, 4),  # stratum
    ),
    min_size=2,
    max_size=40,
)


@settings(max_examples=300)
@given(units=_UNITS)
# stratum 1 has no control unit
@example(units=[(1, 1, 2.0, 0), (0, 0, 1.0, 0), (1, 0, 3.0, 0), (0, 1, 0.5, 0), (1, 1, 4.0, 1)])
# no control unit at all
@example(units=[(1, 1, 2.0, 0), (1, 0, 1.0, 0), (1, 1, 3.0, 1)])
def test_tsls_weighted_matches_unit_fit(units):
    """The moments kernel equals the two weighted least-squares stages on the
    units wherever the first-stage slope is at least 1e-6 in size, and fails
    with ZeroCompliance where an arm is empty."""
    z, d, y, strata = (list(c) for c in zip(*units))
    s = ObservedSample.from_arrays(z=z, d=d, y=y, strata=strata)
    unit = tsls_weighted_units(s)
    if len(set(z)) == 1:
        assert unit is None
        with pytest.raises(ZeroCompliance):
            estimate(s, "TSLS_WEIGHTED")
        return
    if unit is None or abs(unit[1]) < 1e-6:
        return
    est, first = unit
    r = estimate(s, "TSLS_WEIGHTED")
    assert abs(r.f_hat - first) <= 1e-11
    assert abs(r.estimate - est) <= 1e-11 * (1.0 + abs(est))
    assert r.n_used == s.n
    assert r.strata_kept == frozenset(s.stratum_labels)
    assert r.se_bloom is None and r.se_delta is None


def test_tsls_weighted_exact_zero_first_stage_fails():
    """The arm means 4/11 and 4/11 give a first stage of exactly 0, which
    fails the row; the unit fit's first-stage slope is 3e-17 instead, and
    its estimate about -1e16."""
    s = ObservedSample.from_arrays(
        z=[1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1],
        d=[1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0],
        y=np.arange(11.0),
        strata=[1, 0, 0, 2, 0, 0, 1, 1, 1, 0, 2],
    )
    est, first = tsls_weighted_units(s)
    assert 0.0 < abs(first) < 1e-16 and abs(est) > 1e15
    with pytest.raises(ZeroCompliance):
        estimate(s, "TSLS_WEIGHTED")


def _permuted_within_cells(s: ObservedSample, rng: np.random.Generator) -> ObservedSample:
    """s with (d, y) shuffled among the units of each (stratum, arm) cell."""
    order = np.arange(s.n)
    for cell in np.unique(2 * s.strata + s.z):
        at = np.flatnonzero(2 * s.strata + s.z == cell)
        order[at] = rng.permutation(at)
    labels = [s.stratum_labels[g] for g in s.strata]
    return ObservedSample.from_arrays(z=s.z, d=s.d[order], y=s.y[order], strata=labels)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), nonzero_f=st.booleans())
@example(seed=81669, nonzero_f=True)
def test_reports_are_invariant_to_permutation_within_cells(seed, nonzero_f):
    """Every method reads only per-cell moments, so reordering the units of
    a (stratum, arm) cell moves each figure by rounding only: within
    1e-9 * (1 + |x|), with the same failure, kept set and n_used. DSF is
    skipped when a stratum's F lies within that tolerance of the cutoff,
    where rounding alone decides the screen (F = 10 exactly at seed 81669)."""
    rng = np.random.default_rng(seed)
    s = random_sample(rng, n_range=(8, 80), require_nonzero_f=nonzero_f)
    t = _permuted_within_cells(s, rng)
    assert np.array_equal(s.strata, t.strata)
    f_min = EstimatorConfig().dsf_f_min
    tied = np.any(np.abs(first_stage_f(stratum_moments(s)) - f_min) <= 1e-9 * f_min)

    def close(a: float | None, b: float | None) -> bool:
        if a is None or b is None:
            return a is b
        return abs(a - b) <= 1e-9 * (1.0 + abs(a))

    for tag in METHODS:
        if tag == "DSF" and tied:
            continue
        try:
            r0 = estimate(s, tag)
        except EstimationError as exc:
            with pytest.raises(type(exc)):
                estimate(t, tag)
            continue
        r1 = estimate(t, tag)
        assert (r1.n_used, r1.strata_kept) == (r0.n_used, r0.strata_kept), tag
        for field in ("estimate", "f_hat", "se_bloom", "se_delta"):
            assert close(getattr(r0, field), getattr(r1, field)), (tag, field)


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
