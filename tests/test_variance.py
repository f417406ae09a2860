import math

import numpy as np
import pytest

from ivstrat import ObservedSample, ZeroCompliance, estimate
from ivstrat.data_model import DegenerateVariance, ObservedBlock, stratum_moments
from ivstrat.variance import ratio_rows
from helpers import pooled_moments, random_sample, sample_a, sample_pwiv, sample_two_strata


def _components(m):
    """Plug-in variances of (itt_hat, f_hat) and their covariance, per stratum."""
    var_itt = m.s2_y1 / m.n_g1 + m.s2_y0 / m.n_g0
    var_f = m.s2_d1 / m.n_g1 + m.s2_d0 / m.n_g0
    cov = m.s_yd1 / m.n_g1 + m.s_yd0 / m.n_g0
    return var_itt, var_f, cov


def test_arm_moments_hand_values():
    m = stratum_moments(sample_a())
    assert (m.n_g1[0], m.n_g0[0]) == (2, 2)
    assert (m.ybar1[0], m.ybar0[0]) == (2.0, 1.0)
    assert (m.dbar1[0], m.dbar0[0]) == (0.5, 0.0)
    assert (m.s2_y1[0], m.s2_y0[0]) == (2.0, 2.0)
    assert (m.s2_d1[0], m.s2_d0[0]) == (0.5, 0.0)
    assert (m.s_yd1[0], m.s_yd0[0]) == (1.0, 0.0)


def test_variance_components_hand_values():
    var_itt, var_f, cov = _components(stratum_moments(sample_a()))
    assert var_itt[0] == 2.0
    assert var_f[0] == 0.25
    assert cov[0] == 0.5


def test_variance_components_cauchy_schwarz():
    for seed in range(25):
        s = random_sample(np.random.default_rng(seed), require_nonzero_f=False)
        var_itt, var_f, cov = _components(pooled_moments(s))
        bound = math.sqrt(var_itt[0] * var_f[0])
        assert abs(cov[0]) <= bound + 1e-12


def test_var_itt_neyman_matches_components():
    s = sample_two_strata()
    var_itt, _, _ = _components(stratum_moments(s))
    assert var_itt[s.stratum_labels.index("x")] == 2.0


def test_var_itt_neyman_requires_two_per_arm():
    s = ObservedSample.from_arrays(z=[1, 0, 0, 0], d=[0] * 4, y=[1.0, 2.0, 3.0, 4.0])
    var_itt, _, _ = _components(stratum_moments(s))
    assert np.isnan(var_itt[0])


def test_bloom_se_hand_value():
    se = estimate(sample_a(), "UNSTRAT").se_bloom
    assert se == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)


def test_delta_se_hand_value():
    # bracket = 2 + 4*0.25 - 2*2*0.5 = 1, se = sqrt(1)/0.5
    assert estimate(sample_a(), "UNSTRAT").se_delta == pytest.approx(2.0, rel=1e-15)


def test_bloom_se_rejects_zero_compliance():
    s = ObservedSample.from_arrays(z=[1, 1, 0, 0], d=[0] * 4, y=[3.0, 1.0, 2.0, 0.0])
    with pytest.raises(ZeroCompliance):
        estimate(s, "UNSTRAT")


def test_delta_equals_bloom_when_uptake_follows_assignment():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60)) * 2
        z = np.zeros(n, dtype=int)
        z[rng.permutation(n)[: n // 2]] = 1
        y = rng.normal(0, 1, n)
        s = ObservedSample.from_arrays(z=z, d=z.copy(), y=y)
        r = estimate(s, "UNSTRAT")
        assert r.se_delta == r.se_bloom  # bitwise


def test_ps_se_collapse_single_stratum():
    for seed in range(20):
        s = random_sample(np.random.default_rng(seed), g_range=(1, 1))
        r, ps = estimate(s, "UNSTRAT"), estimate(s, "IV_A")
        assert ps.se_bloom is not None and ps.se_delta is not None  # both defined
        assert ps.se_bloom == r.se_bloom  # bitwise
        assert ps.se_delta == r.se_delta  # bitwise


def test_ps_bloom_kept_subset_matches_subsample():
    s = sample_two_strata()
    sub = ObservedSample.from_arrays(
        z=[1, 1, 0, 0], d=[1, 0, 0, 0], y=[3.0, 1.0, 2.0, 0.0]
    )
    kept = np.array([[label == "x" for label in s.stratum_labels]])
    rows = ratio_rows(ObservedBlock.of(s).moments, kept)
    assert rows.se_bloom[0] == estimate(sub, "UNSTRAT").se_bloom


def test_ps_bloom_hand_value_two_strata():
    # equal stratum shares, f_ps = 1: sqrt(0.25*2 + 0.25*4)
    assert estimate(sample_pwiv(), "IV_A").se_bloom == pytest.approx(math.sqrt(1.5), rel=1e-15)


def test_ps_delta_matches_direct_formula():
    for seed in range(10):
        s = random_sample(np.random.default_rng(seed + 100), require_nonzero_f=False)
        m = stratum_moments(s)
        w = m.n_g / s.n
        var_itt = m.s2_y1 / m.n_g1 + m.s2_y0 / m.n_g0
        var_f = m.s2_d1 / m.n_g1 + m.s2_d0 / m.n_g0
        cov = m.s_yd1 / m.n_g1 + m.s_yd0 / m.n_g0
        f_ps = float(np.sum(w * m.f_hat))
        if f_ps == 0.0:
            continue
        c = float(np.sum(w * m.itt_hat)) / f_ps
        var = float(np.sum(w * w * (var_itt + c * c * var_f - 2.0 * c * cov)))
        expect = math.sqrt(max(var, 0.0)) / abs(f_ps)
        assert estimate(s, "IV_A").se_delta == pytest.approx(expect, rel=1e-12)


def test_pwiv_se_hand_value():
    se = estimate(sample_pwiv(), "PWIV").se_bloom
    assert se == pytest.approx(math.sqrt(1.0 / 0.75), rel=1e-15)


def test_pwiv_se_degenerate_variance():
    # nonzero f_hat with zero outcome variance in both arms
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0], d=[1, 1, 0, 0], y=[1.0, 1.0, 0.0, 0.0]
    )
    with pytest.raises(DegenerateVariance):
        estimate(s, "PWIV")


def test_delta_se_nonnegative_and_finite():
    for seed in range(25):
        s = random_sample(np.random.default_rng(seed + 500))
        r, ps = estimate(s, "UNSTRAT"), estimate(s, "IV_A")
        for v in (r.se_delta, ps.se_delta, r.se_bloom, ps.se_bloom):
            assert math.isfinite(v) and v >= 0.0
