import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivstrat import (
    ENUMERATION_CAP,
    Infeasible,
    NoCompliers,
    ScienceTable,
    asyvar_iv,
    asyvar_iv_ps,
    bias_one_sided_exact,
    bias_one_sided_taylor,
    bias_two_sided_taylor,
    enumerate_expectation,
    estimate,
    moments,
)
from ivstrat.data_model import TooFewUnits, TwoSidedInput
from helpers import (
    _s2_by_stratum,
    enumerate_loop,
    one_sided_table,
    pooled_moments,
    random_science_table,
    reference_asyvar_iv,
    reference_asyvar_iv_ps,
    reference_moments,
    stratified_table,
)

RNG = np.random.default_rng(20240818)
TWO_SIDED = ScienceTable.from_arrays(
    y0=[0.0, 1.0, 2.0, 3.0], y1=[0.5, 1.0, 2.0, 3.0], d0=[0, 1, 0, 0], d1=[1, 1, 0, 0]
)


def random_two_sided_table(rng, n=8):
    ctype = rng.integers(0, 3, n)
    ctype[:2] = 1  # keep at least two compliers
    y0 = rng.normal(0, 1, n)
    y1 = y0 + rng.normal(0.5, 0.7, n) * (ctype == 1)
    return ScienceTable.from_arrays(
        y0=y0, y1=y1, d0=(ctype == 2).astype(int), d1=(ctype != 0).astype(int)
    )


def itt_hat(s):
    return pooled_moments(s).itt_hat[0]


def f_hat(s):
    return pooled_moments(s).f_hat[0]


def var_itt_direct(m):
    return m.s2_y1 / m.n1 + m.s2_y0 / m.n0 - m.s2_y01 / m.n


def var_f_direct(m):
    return m.s2_d1 / m.n1 + m.s2_d0 / m.n0 - m.s2_d01 / m.n


def test_moments_shares_and_uptake_variance():
    t = one_sided_table(n=4, n_c=2, delta=1.0)
    m = moments(t, 0.5)
    assert m.pi_c == 0.5 and m.pi_n == 0.5 and m.pi_a == 0.0
    # S2 of a binary vector with mean 1/2 on 4 units: 4*(1/4)/3
    ref = reference_moments(t, 0.5)
    assert ref.s2_d1 == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert ref.s2_d01 == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_moments_group_means():
    t = one_sided_table(n=10, n_c=4, delta=2.0, tau=0.7)
    m = moments(t, 0.5)
    assert m.ybar_c0 - m.ybar_n0 == pytest.approx(2.0, rel=1e-12)
    assert m.ybar_c1 - m.ybar_c0 == pytest.approx(0.7, rel=1e-12)
    assert math.isnan(m.ybar_a1)  # no always-takers anywhere


def test_moments_requires_integral_arms():
    t = one_sided_table(n=8, n_c=4, delta=1.0)
    with pytest.raises(ValueError, match=r"^p\*N = 2.4 is not a whole number of treated units$"):
        moments(t, 0.3)


def test_uptake_variance_closed_form_matches_shares():
    # S2_D(1) = N pi(1-pi)/(N-1) for binary uptake
    for seed in range(10):
        t = random_two_sided_table(np.random.default_rng(seed))
        m = reference_moments(t, 0.5)
        pi1 = m.pi_c + m.pi_a
        assert m.s2_d1 == pytest.approx(t.n * pi1 * (1 - pi1) / (t.n - 1), rel=1e-12)
        assert m.s2_d01 == pytest.approx(
            t.n * m.pi_c * (1 - m.pi_c) / (t.n - 1), rel=1e-12
        )


def test_enumeration_reproduces_design_expectations():
    # complete-randomization identities: E[ITT_hat] = ITT, E[f_hat] = pi_c
    for seed, p in ((0, 0.5), (1, 0.25), (2, 0.75)):
        t = random_two_sided_table(np.random.default_rng(seed))
        itt = enumerate_loop(t, p, itt_hat)
        assert itt.mean == pytest.approx(t.itt, rel=1e-13, abs=1e-13)
        assert itt.undefined_mass == 0.0
        fh = enumerate_loop(t, p, f_hat)
        assert fh.mean == pytest.approx(t.pi_c, rel=1e-13, abs=1e-13)


def test_enumeration_variances_match_population_formulas():
    # the plug-free finite-population variance formulas are exact
    for seed in range(6):
        t = random_two_sided_table(np.random.default_rng(seed + 10))
        m = reference_moments(t, 0.5)
        itt = enumerate_loop(t, 0.5, itt_hat)
        assert itt.variance == pytest.approx(var_itt_direct(m), rel=1e-11, abs=1e-13)
        fh = enumerate_loop(t, 0.5, f_hat)
        assert fh.variance == pytest.approx(var_f_direct(m), rel=1e-11, abs=1e-13)


def test_one_sided_uptake_variance_closed_form():
    # var(f_hat) = pi_c (1 - pi_c)(1 - p) / (p (N - 1)) under one-sided uptake
    t = one_sided_table(n=8, n_c=3, delta=1.0)
    for p in (0.25, 0.5, 0.75):
        m = reference_moments(t, p)
        closed = m.pi_c * (1 - m.pi_c) * (1 - p) / (p * (t.n - 1))
        fh = enumerate_loop(t, p, f_hat)
        assert fh.variance == pytest.approx(closed, rel=1e-11)
        assert var_f_direct(m) == pytest.approx(closed, rel=1e-12)


def test_first_order_variance_matches_enumeration_exactly():
    # pi_c^2 * asyvar equals the exact variance of ITT_hat - tau * f_hat,
    # checked against exhaustive enumeration of that linear statistic
    for seed in range(6):
        t = random_two_sided_table(np.random.default_rng(seed + 30))
        tau = t.cace
        m = moments(t, 0.5)

        def linear(s):
            pooled = pooled_moments(s)
            return pooled.itt_hat[0] - tau * pooled.f_hat[0]

        mod = enumerate_loop(t, 0.5, linear)
        assert m.pi_c**2 * asyvar_iv(m) == pytest.approx(
            mod.variance, rel=1e-10, abs=1e-13
        )


def test_first_order_variance_modified_outcome_route():
    # replacing Y with Y - tau*D collapses the three-term bracket into a
    # single difference-in-means variance
    rng = np.random.default_rng(99)
    t = stratified_table(rng, n=400, compliers_per_stratum=(25, 10, 4, 1))
    tau = t.cace
    m = moments(t, 0.5)
    t_mod = ScienceTable.from_arrays(
        y0=t.y0 - tau * t.d0, y1=t.y1 - tau * t.d1, d0=t.d0, d1=t.d1,
        strata=t.strata,
    )
    m_mod = reference_moments(t_mod, 0.5)
    assert asyvar_iv(m) == pytest.approx(
        var_itt_direct(m_mod) / m.pi_c**2, rel=1e-10
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    one_sided=st.booleans(),
    p=st.sampled_from([0.25, 0.5, 0.75]),
)
def test_first_order_variances_match_three_term_oracle(seed, one_sided, p):
    # the Neyman variance of y - cace * d against the shares, group means
    # and closed-form covariance it replaced; the bias formulas read only
    # fields computed the same way in both, so they agree bit for bit
    t = random_science_table(np.random.default_rng(seed), one_sided)
    m, ref = moments(t, p), reference_moments(t, p)
    # the six variance fields, bit for bit, against the bincount oracle on
    # u = y - cace * d: by stratum, and with every unit in one stratum
    u1, u0 = t.y1 - ref.cace * t.d1, t.y0 - ref.cace * t.d0
    one_stratum = np.zeros(t.n, np.intp), np.array([float(t.n)])
    assert np.array_equal(m.n_g, ref.n_g) and m.n_g.dtype == ref.n_g.dtype
    for name, u in (("u1", u1), ("u0", u0), ("u01", u1 - u0)):
        g_s2 = _s2_by_stratum(t.strata, ref.n_g, u)
        assert np.array_equal(getattr(m, f"g_s2_{name}"), g_s2, equal_nan=True), name
        s2 = _s2_by_stratum(*one_stratum, u)[0]
        assert np.array_equal(getattr(m, f"s2_{name}"), s2, equal_nan=True), name
    pairs = [
        (asyvar_iv(m), reference_asyvar_iv(ref)),
        (asyvar_iv_ps(m), reference_asyvar_iv_ps(ref)),
        (asyvar_iv_ps(m, exact_factors=True), reference_asyvar_iv_ps(ref, exact_factors=True)),
    ]
    for got, want in pairs:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (got, want)
    assert bias_two_sided_taylor(m) == bias_two_sided_taylor(ref)
    if one_sided:
        for variant in ("hypergeometric", "binomial"):
            assert bias_one_sided_taylor(m, variant) == bias_one_sided_taylor(ref, variant)


def test_ps_variance_collapses_to_unstratified():
    t = one_sided_table(n=12, n_c=5, delta=1.0, noise=0.8)
    m = moments(t, 0.5)
    assert asyvar_iv_ps(m, exact_factors=True) == pytest.approx(
        asyvar_iv(m), rel=1e-12
    )


def test_ps_variance_requires_two_per_stratum():
    t = ScienceTable.from_arrays(
        y0=[0.0, 1.0, 2.0, 3.0, 4.0],
        y1=[0.5, 1.5, 2.0, 3.0, 4.0],
        d0=[0, 0, 0, 0, 0],
        d1=[1, 1, 0, 0, 0],
        strata=[0, 0, 0, 0, 1],
    )
    with pytest.raises(TooFewUnits):
        asyvar_iv_ps(moments(t, 0.6))


def test_ps_variance_no_compliers():
    t = ScienceTable.from_arrays(
        y0=[0.0, 1.0, 2.0, 3.0], y1=[0.0, 1.0, 2.0, 3.0],
        d0=[0, 0, 0, 0], d1=[0, 0, 0, 0],
    )
    with pytest.raises(NoCompliers):
        asyvar_iv(moments(t, 0.5))


def test_exact_bias_matches_enumeration():
    for n_c, delta in ((5, -1.0), (3, 2.0)):
        t = one_sided_table(n=8, n_c=n_c, delta=delta)
        enum = enumerate_expectation(t, 0.5, "UNSTRAT", convention="condition")
        bias = bias_one_sided_exact(t, 0.5, convention="condition")
        assert enum.mean - t.cace == pytest.approx(bias, rel=1e-12, abs=1e-12)


def test_exact_bias_positive_mass_conventions():
    t = one_sided_table(n=8, n_c=2, delta=1.0)  # f_hat can be zero
    with pytest.raises(Infeasible):
        bias_one_sided_exact(t, 0.5)
    assert math.isfinite(bias_one_sided_exact(t, 0.5, convention="condition"))
    for bogus in ("bogus", "error-if-positive-mass"):  # the second was an alias of None
        with pytest.raises(ValueError, match="unknown convention"):
            bias_one_sided_exact(t, 0.5, convention=bogus)
        with pytest.raises(ValueError, match="unknown convention"):
            enumerate_expectation(t, 0.5, "UNSTRAT", convention=bogus)


def test_exact_bias_all_compliers_is_zero():
    t = one_sided_table(n=8, n_c=8, delta=0.0)
    assert bias_one_sided_exact(t, 0.5) == 0.0


def test_exact_bias_rejects_two_sided():
    with pytest.raises(TwoSidedInput):
        bias_one_sided_exact(TWO_SIDED, 0.5)
    with pytest.raises(TwoSidedInput):
        bias_one_sided_taylor(moments(TWO_SIDED, 0.5))


def test_taylor_binomial_matches_series_written_directly():
    t = one_sided_table(n=200, n_c=40, delta=1.5)
    p = 0.5
    m = moments(t, p)
    pi, q = m.pi_c, 1.0 - m.pi_c
    size = p * t.n
    mu2 = pi * q / size
    mu3 = pi * q * (1 - 2 * pi) / size**2
    mu4 = pi * q * (1 + (3 * size - 6) * pi * q) / size**3
    e_inv = 1 / pi + mu2 / pi**3 - mu3 / pi**4 + mu4 / pi**5
    expect = (1 - pi * e_inv) * 1.5 / (1 - p)
    got = bias_one_sided_taylor(m, variant="binomial")
    assert got == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        bias_one_sided_taylor(m, variant="bogus")


def test_taylor_hypergeometric_tracks_exact_bias():
    t = one_sided_table(n=200, n_c=20, delta=1.0)
    exact = bias_one_sided_exact(t, 0.5, convention="condition")
    taylor = bias_one_sided_taylor(moments(t, 0.5))
    assert abs(taylor - exact) <= 0.25 * abs(exact)


def test_taylor_no_never_takers_is_zero():
    t = one_sided_table(n=20, n_c=20, delta=0.0)
    assert bias_one_sided_taylor(moments(t, 0.5)) == 0.0


def test_two_sided_bias_reduces_to_second_order_one_sided():
    # with pi_a = 0 the two-sided closed form must equal the order-2
    # hypergeometric expansion computed from first principles
    t = one_sided_table(n=40, n_c=10, delta=-2.0)
    for p in (0.25, 0.5):
        m = moments(t, p)
        two_sided = bias_two_sided_taylor(m)
        mu2 = m.pi_c * (1 - m.pi_c) * (1 - p) / (p * (t.n - 1))
        order2 = -(mu2 / m.pi_c**2) * (m.ybar_c0 - m.ybar_n0) / (1 - p)
        assert two_sided == pytest.approx(order2, rel=1e-12)


def test_two_sided_bias_zero_when_groups_align():
    # all three group means equal at both margins: no bias terms survive
    y0 = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    ctype = np.array([1, 1, 0, 0, 2, 2])
    y1 = y0 + 0.0 * ctype
    t = ScienceTable.from_arrays(
        y0=y0, y1=y1, d0=(ctype == 2).astype(int), d1=(ctype != 0).astype(int)
    )
    assert bias_two_sided_taylor(moments(t, 0.5)) == pytest.approx(0.0, abs=1e-15)


def test_enumeration_fast_and_generic_paths_agree():
    t = random_two_sided_table(np.random.default_rng(4))
    fast = enumerate_expectation(t, 0.5, "UNSTRAT", convention="condition")
    slow = enumerate_loop(t, 0.5, lambda s: estimate(s, "UNSTRAT").estimate, convention="condition")
    assert fast.mean == pytest.approx(slow.mean, rel=1e-13)
    assert fast.variance == pytest.approx(slow.variance, rel=1e-13)
    assert fast.undefined_mass == slow.undefined_mass
    assert fast.n_assignments == slow.n_assignments == math.comb(8, 4)


def test_enumeration_undefined_mass_frozen_count():
    # N=8, 4 compliers: exactly one of the 70 assignments puts all
    # compliers in the control arm
    t = one_sided_table(n=8, n_c=4, delta=1.0)
    res = enumerate_expectation(t, 0.5, "UNSTRAT", convention="condition")
    assert res.undefined_mass == pytest.approx(1.0 / 70.0, rel=1e-15)
    assert res.n_defined == 69
    with pytest.raises(Infeasible):
        enumerate_expectation(t, 0.5, "UNSTRAT")


def test_enumeration_cap():
    t = one_sided_table(n=44, n_c=10, delta=1.0)
    assert math.comb(44, 22) > ENUMERATION_CAP
    with pytest.raises(Infeasible):
        enumerate_expectation(t, 0.5, "UNSTRAT")


def _unknown_tag_cases():
    tables = {"below-cap": (8, 4), "above-cap": (44, 10)}
    tags = {"NOPE": "NOPE", "callable": f_hat, "ITT": "ITT", "F_HAT": "F_HAT"}
    for where, (n, n_c) in tables.items():
        for name, tag in tags.items():
            yield pytest.param(
                lambda n=n, n_c=n_c, tag=tag: enumerate_expectation(
                    one_sided_table(n=n, n_c=n_c, delta=1.0), 0.5, tag, convention="condition"
                ),
                "unknown estimator tags",
                id=f"enumerate-{name}-{where}",
            )


@pytest.mark.parametrize(
    "call, message",
    [
        *_unknown_tag_cases(),
        pytest.param(
            lambda: bias_one_sided_taylor(
                moments(one_sided_table(n=8, n_c=8, delta=0.0), 0.5), variant="nonsense"
            ),
            "unknown variant",
            id="taylor-variant-all-compliers",
        ),
        pytest.param(
            lambda: bias_one_sided_taylor(moments(TWO_SIDED, 0.5), variant="nonsense"),
            "unknown variant",
            id="taylor-variant-two-sided",
        ),
        pytest.param(
            lambda: bias_one_sided_exact(TWO_SIDED, 0.5, convention="nonsense"),
            "unknown convention",
            id="exact-convention-two-sided",
        ),
    ],
)
def test_argument_errors_come_before_data_errors(call, message):
    # a caller's mistake is refused as such, whatever the table would say
    with pytest.raises(ValueError, match=message):
        call()


def test_enumeration_oracle_tag():
    t = one_sided_table(n=8, n_c=4, delta=1.0, tau=0.9)
    res = enumerate_expectation(t, 0.5, "ORACLE", convention="condition")
    # oracle difference-in-means is unbiased for the realized CACE
    assert res.mean == pytest.approx(0.9, rel=1e-12)
