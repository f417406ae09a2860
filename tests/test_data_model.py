import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivstrat import (
    ALWAYS_TAKER,
    COMPLIER,
    NEVER_TAKER,
    DefierPresent,
    ExclusionViolation,
    NoCompliers,
    ObservedSample,
    ScienceTable,
    analyze,
    estimate,
    science_to_observed,
    stratum_report,
    validate,
)
from ivstrat.data_model import (
    EmptyArm,
    EmptyBin,
    EmptyFile,
    EstimationError,
    MalformedRow,
    MissingColumn,
    NonBinary,
    NonFinite,
    TooFewUnits,
    _dense_codes,
    _levels,
    stratum_moments,
)
from helpers import ERROR_CLASSES, random_sample, sample_a, sample_two_strata

RNG = np.random.default_rng(20240817)


def test_dense_recode_first_appearance():
    s = ObservedSample.from_arrays(
        z=[1, 0, 1, 0], d=[0, 0, 0, 0], y=[1.0, 2.0, 3.0, 4.0],
        strata=["b", "a", "b", "c"],
    )
    assert s.stratum_labels == ("b", "a", "c")
    assert s.strata.tolist() == [0, 1, 0, 2]


def test_default_single_stratum():
    s = sample_a()
    assert s.num_strata == 1
    assert s.n == 4 and s.n1 == 2 and s.n0 == 2


def test_validate_accepts_valid_sample():
    s = random_sample(np.random.default_rng(1))
    assert validate(s).n == s.n


def test_validate_rejects_nonbinary_z():
    s = ObservedSample.from_arrays(z=[2, 1, 0, 0], d=[0, 0, 0, 0], y=[0.0] * 4)
    with pytest.raises(NonBinary):
        validate(s)


def test_validate_rejects_nonbinary_d():
    s = ObservedSample.from_arrays(z=[1, 1, 0, 0], d=[3, 0, 0, 0], y=[0.0] * 4)
    with pytest.raises(NonBinary):
        validate(s)


@pytest.mark.parametrize(
    "z, d",
    [
        ([1, 0.5, 0, 0], [0, 0, 0, 0]),
        ([1, 1, 0, 0], [0, 0.7, 0, 0]),
        (np.array([1, 257, 0, 0]), [0, 0, 0, 0]),
    ],
)
def test_nonbinary_values_are_not_cast_away(z, d):
    # 0.5 and 0.7 would truncate to 0 and 257 would wrap to 1 in int8
    with pytest.raises(NonBinary):
        validate(ObservedSample.from_arrays(z=z, d=d, y=[0.0] * 4))


def test_science_table_rejects_uptake_the_cast_would_change():
    y = np.zeros(4)
    with pytest.raises(NonBinary):
        ScienceTable.from_arrays(y, y, np.zeros(4, dtype=int), np.array([1, 0, 257, 0]))
    with pytest.raises(NonBinary):
        ScienceTable.from_arrays(y, y, [0, 0, 0, 0], [1, 0, 0.5, 0])


def test_science_to_observed_rejects_fractional_assignment():
    t = ScienceTable.from_arrays(np.zeros(4), np.zeros(4), [0] * 4, [0] * 4)
    for z in ([1, 0.5, 0, 1], [1, 2, 0, 1]):
        with pytest.raises(ValueError, match="^assignment must be 0 or 1$"):
            science_to_observed(t, z)


def test_length_mismatch_at_every_constructor():
    with pytest.raises(ValueError, match="^z, d, y, strata must have equal length$"):
        ObservedSample.from_arrays(z=[1, 0, 1], d=[0, 0, 0, 0], y=[0.0] * 4)
    with pytest.raises(ValueError, match="^z, d, y, strata must have equal length$"):
        ObservedSample.from_arrays(z=[1, 0, 1, 0], d=[0] * 4, y=[0.0] * 4, strata=[0, 1])
    with pytest.raises(ValueError, match="^y0, y1, d0, d1, strata must have equal length$"):
        ScienceTable.from_arrays(np.zeros(4), np.zeros(3), [0] * 4, [0] * 4)
    t = ScienceTable.from_arrays(np.zeros(4), np.zeros(4), [0] * 4, [0] * 4)
    with pytest.raises(ValueError, match="^assignment has length 3, table has 4$"):
        science_to_observed(t, [1, 0, 1])


def test_validate_rejects_nonfinite_y():
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0], d=[0, 0, 0, 0], y=[np.nan, 0.0, 0.0, 0.0]
    )
    with pytest.raises(NonFinite):
        validate(s)


def test_validate_rejects_tiny_sample():
    s = ObservedSample.from_arrays(z=[1, 0], d=[0, 0], y=[0.0, 0.0])
    with pytest.raises(TooFewUnits):
        validate(s)


def test_validate_rejects_empty_arm_in_stratum():
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 1], d=[0] * 6, y=[0.0] * 6,
        strata=["a", "a", "a", "a", "b", "b"],
    )
    with pytest.raises(EmptyArm) as exc:
        validate(s)
    assert exc.value.stratum == "b" and exc.value.z == 0


def test_science_table_rejects_defiers():
    with pytest.raises(DefierPresent):
        ScienceTable.from_arrays(
            y0=[0.0, 0.0], y1=[0.0, 0.0], d0=[1, 0], d1=[0, 0]
        )


def test_science_table_rejects_exclusion_violation():
    # a never-taker whose potential outcomes differ
    with pytest.raises(ExclusionViolation):
        ScienceTable.from_arrays(
            y0=[0.0, 0.0], y1=[1.0, 0.0], d0=[0, 0], d1=[0, 1]
        )


def test_compliance_shares_and_types():
    t = ScienceTable.from_arrays(
        y0=[0.0, 0.0, 0.0, 0.0],
        y1=[0.0, 1.0, 0.0, 0.0],
        d0=[0, 0, 1, 0],
        d1=[0, 1, 1, 0],
    )
    assert t.compliance_type.tolist() == [
        NEVER_TAKER, COMPLIER, ALWAYS_TAKER, NEVER_TAKER,
    ]
    assert t.pi_c == 0.25 and t.pi_a == 0.25 and t.pi_n == 0.5
    assert not t.one_sided
    assert t.cace == 1.0
    assert t.itt == pytest.approx(0.25)


def test_cace_requires_compliers():
    t = ScienceTable.from_arrays(y0=[0.0, 1.0], y1=[0.0, 1.0], d0=[0, 0], d1=[0, 0])
    with pytest.raises(NoCompliers):
        t.cace


@given(st.integers(0, 2**32 - 1))
def test_itt_identity(seed):
    # ITT = pi_c * CACE for any table built from monotone binary uptake
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    ctype = rng.integers(0, 3, n)
    if not (ctype == COMPLIER).any():
        ctype[0] = COMPLIER
    y0 = rng.normal(0, 1, n)
    y1 = y0 + rng.normal(0, 1, n) * (ctype == COMPLIER)
    d0 = (ctype == ALWAYS_TAKER).astype(int)
    d1 = (ctype != NEVER_TAKER).astype(int)
    t = ScienceTable.from_arrays(y0=y0, y1=y1, d0=d0, d1=d1)
    assert t.itt == pytest.approx(t.pi_c * t.cace, rel=1e-12, abs=1e-12)


def test_science_to_observed_reveals_assigned_outcomes():
    rng = np.random.default_rng(5)
    n = 30
    ctype = rng.integers(0, 3, n)
    y0 = rng.normal(0, 1, n)
    y1 = y0 + 0.5 * (ctype == COMPLIER)
    d0 = (ctype == ALWAYS_TAKER).astype(int)
    d1 = (ctype != NEVER_TAKER).astype(int)
    t = ScienceTable.from_arrays(y0=y0, y1=y1, d0=d0, d1=d1, strata=ctype)
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:15]] = 1
    s = science_to_observed(t, z)
    assert np.array_equal(s.y, np.where(z == 1, y1, y0))
    assert np.array_equal(s.d, np.where(z == 1, d1, d0))
    assert s.stratum_labels == t.stratum_labels


def test_stratum_moments_match_direct_computation():
    for seed in range(10):
        s = random_sample(np.random.default_rng(seed), require_nonzero_f=False)
        m = stratum_moments(s)
        for g in range(s.num_strata):
            in_g = s.strata == g
            for z, (ybar, dbar, s2y) in (
                (1, (m.ybar1, m.dbar1, m.s2_y1)),
                (0, (m.ybar0, m.dbar0, m.s2_y0)),
            ):
                arm = in_g & (s.z == z)
                assert ybar[g] == pytest.approx(s.y[arm].mean(), rel=1e-12)
                assert dbar[g] == pytest.approx(s.d[arm].mean(), rel=1e-12)
                assert s2y[g] == pytest.approx(s.y[arm].var(ddof=1), rel=1e-11)
            assert m.f_hat[g] == pytest.approx(
                s.d[in_g & (s.z == 1)].mean() - s.d[in_g & (s.z == 0)].mean(),
                rel=1e-12, abs=1e-15,
            )


def test_samples_are_not_pinned_after_estimation():
    # nothing keeps a sample (or its moments) alive once the caller drops it
    s = sample_two_strata()
    ref = weakref.ref(s)
    stratum_moments(s)
    estimate(s, "IV_W")
    analyze(s)
    stratum_report(s)
    del s
    gc.collect()
    assert ref() is None


def test_summarize_stratum_hand_values():
    s = sample_two_strata()
    m = stratum_moments(s)
    x, w = s.stratum_labels.index("x"), s.stratum_labels.index("w")
    assert (m.itt_hat[x], m.f_hat[x], m.n_g[x]) == (1.0, 0.5, 4)
    assert (m.itt_hat[w], m.f_hat[w], m.n_g[w]) == (2.0, 0.0, 4)


def test_stratum_summaries_order_and_single_unit_arm():
    s = ObservedSample.from_arrays(
        z=[1, 1, 0, 0, 1, 0],
        d=[1, 0, 0, 0, 1, 0],
        y=[3.0, 1.0, 2.0, 0.0, 5.0, 1.0],
        strata=["a", "a", "a", "a", "b", "b"],
    )
    m = stratum_moments(s)
    assert s.stratum_labels == ("a", "b")
    assert np.isnan(m.s2_y1[1])  # one unit per arm: no variance estimate
    assert m.itt_hat[1] == 4.0


def test_arrays_are_read_only():
    s = sample_a()
    with pytest.raises(ValueError):
        s.z[0] = 0


# an input file's line, column or quantile bin: the caller's to mend
INPUT_ERRORS = {MalformedRow, MissingColumn, EmptyFile, EmptyBin}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_each_error_class_is_an_input_error_or_a_data_failure(cls):
    assert issubclass(cls, ValueError) != issubclass(cls, EstimationError)
    assert issubclass(cls, ValueError) == (cls in INPUT_ERRORS)


def _first_appearance_loop(labels):
    """Dense codes by a dict lookup per label: _dense_codes's own loop
    before it called _levels."""
    index, found, codes = {}, [], []
    for s in labels:
        if s not in index:
            index[s] = len(found)
            found.append(s)
        codes.append(index[s])
    return codes, found


NAN = float("nan")


@pytest.mark.parametrize(
    "labels",
    [
        [1, 1.0, True, 2, 2.0, False, 0],  # equal labels share the first one's level
        [NAN, NAN, float("nan"), "a"],  # one nan object is one label, another is not
        list(np.array([NAN, 1.0, NAN])),  # numpy scalars: each nan its own label
        ["b", "a", "b", ("a", 1), ("a", 1), None],
        list(np.array(["x", "y", "x"])),
        [],
    ],
    ids=["equal", "nan", "np-nan", "mixed", "np-str", "empty"],
)
def test_dense_codes_of_hashable_labels_match_a_first_appearance_loop(labels):
    codes, found = _dense_codes(labels)
    want_codes, want = _first_appearance_loop(labels)
    assert codes.tolist() == want_codes
    assert len(found) == len(want) and all(a is b for a, b in zip(found, want))


# Labels that repeat as the same object (NAN too) or as equal ones, and fresh
# nan objects, each its own label.
MIXED_LABELS = st.one_of(
    st.sampled_from(["a", "b", "", 0, 1, 1.0, True, False, -0.0, NAN, ("a", 1), ("a", 1.0)]),
    st.text(max_size=2),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0).map(lambda v: round(v, 1)),
    st.builds(float, st.just("nan")),
    st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 2)),
)


def test_levels_of_many_labels_hold_under_three_index_arrays():
    """_levels on 100k labels of few levels peaks below three n-sized intp
    arrays: it gathers the codes into its first-position array, in place."""
    labels = [("north", "south", "east", "west", "central")[i % 5] for i in range(100_000)]
    tracemalloc.start()
    try:
        _, codes = _levels(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.tolist()[:7] == [0, 1, 2, 3, 4, 0, 1]
    assert peak < 3 * len(labels) * np.dtype(np.intp).itemsize


@given(st.lists(MIXED_LABELS, max_size=200))
def test_levels_match_a_first_appearance_loop(labels):
    found, codes = _levels(labels)
    want_codes, want = _first_appearance_loop(labels)
    assert codes.dtype == np.intp and codes.tolist() == want_codes
    assert len(found) == len(want) and all(a is b for a, b in zip(found, want))
