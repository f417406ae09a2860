"""Differential tests of the block engine against the per-sample path and
against independent oracles.

* Every estimator run on a block of R samples gives, row by row, the
  bit-identical result (or the same exception) of estimate() /
  oracle_complier_dim on that sample alone.
* The simulation's per-replication slots do not depend on how the
  replications are cut into blocks, which other configs share those
  blocks, or how the blocks are spread over threads.
* Exact enumeration over blocks of assignments equals the loop that runs
  estimate() assignment by assignment.
* The closed-form TSLS_DUMMY matches a least-squares 2SLS within 1e-12.
* MaskedRows gives every row the bit-identical 1-D np.sum / np.mean /
  np.var of its entries.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivstrat import (
    METHODS,
    Infeasible,
    ScenarioConfig,
    ScienceTable,
    enumerate_expectation,
    estimate,
    oracle_complier_dim,
)
from ivstrat.data_model import (
    EstimationError,
    MaskedRows,
    ObservedBlock,
    ObservedSample,
    RankDeficient,
    _dense_codes,
    first_appearance,
    reveal,
    science_to_observed,
)
from ivstrat.estimators import estimate_rows
from ivstrat import simulation
from ivstrat.simulation import ConcentrationConfig, _run_reps
from helpers import random_sample, tsls_dummies_lstsq


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _block_of_tables(seed: int, reps: int, n: int, k: int, pc: float, pa: float):
    """reps random science tables over n units with labels in 0..k-1, and
    one assignment each; rows may lack compliers, strata or arms."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=(reps, n))
    u = rng.random((reps, n))
    d0 = (u < pa).astype(np.int8)
    d1 = (u < pa + pc).astype(np.int8)
    y0 = rng.normal(size=(reps, n)) + 0.3 * labels
    y1 = np.where(d0 == d1, y0, y0 + rng.normal(0.5, 1.0, size=(reps, n)))
    z = np.zeros((reps, n), dtype=np.int8)
    for i in range(reps):
        z[i, rng.permutation(n)[: int(rng.integers(1, n))]] = 1
    return labels, y0, y1, d0, d1, z


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    reps=st.integers(1, 6),
    n=st.integers(4, 48),
    k=st.integers(1, 12),
    pc=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
    pa=st.sampled_from([0.0, 0.1]),
)
def test_block_rows_match_per_sample_estimates(seed, reps, n, k, pc, pa):
    labels, y0, y1, d0, d1, z = _block_of_tables(seed, reps, n, k, pc, pa)
    codes, num_strata, _ = first_appearance(labels)
    y, d = reveal(y0, y1, d0, d1, z)
    compliers = (d1 == 1) & (d0 == 0)
    block = ObservedBlock(z, d, y, codes, num_strata, compliers)
    results = {tag: estimate_rows(block, tag) for tag in (*METHODS, "ORACLE")}
    for i in range(reps):
        table = ScienceTable.from_arrays(y0[i], y1[i], d0[i], d1[i], strata=labels[i])
        sample = science_to_observed(table, z[i])
        assert np.array_equal(sample.strata, codes[i])
        for tag, rows in results.items():
            failures = [type(exc) for mask, exc in rows.errors if mask[i]]
            try:
                if tag == "ORACLE":
                    report = oracle_complier_dim(table, z[i])
                else:
                    report = estimate(sample, tag)
            except EstimationError as exc:
                assert failures and failures[0] is type(exc), (tag, i)
                continue
            assert not failures, (tag, i)
            assert _same(report.estimate, rows.est[i]), (tag, i)
            assert _same(report.f_hat, rows.f_hat[i]), (tag, i)
            assert report.n_used == rows.n_used[i]
            kept = frozenset(table.stratum_labels[g] for g in np.flatnonzero(rows.kept[i]))
            assert report.strata_kept == kept, (tag, i)
            for se, row_se in ((report.se_bloom, rows.se_bloom), (report.se_delta, rows.se_delta)):
                assert _same(math.nan if se is None else se, row_se[i]), (tag, i)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    reps=st.integers(1, 6),
    n=st.integers(4, 48),
    k=st.integers(1, 12),
    pc=st.sampled_from([0.0, 0.3, 0.9]),
)
def test_methods_read_only_the_moments(seed, reps, n, k, pc):
    """Every method but ORACLE is a function of the block's moments: with
    moments and pooled cached and the unit arrays gone, each gives the
    bits of an untouched block."""
    labels, y0, y1, d0, d1, z = _block_of_tables(seed, reps, n, k, pc, 0.1)
    codes, num_strata, _ = first_appearance(labels)
    y, d = reveal(y0, y1, d0, d1, z)
    bare = ObservedBlock(z, d, y, codes, num_strata)
    bare.moments, bare.pooled  # fill both caches
    bare.z = bare.d = bare.y = bare.strata = None
    for tag in METHODS:
        want = estimate_rows(ObservedBlock(z, d, y, codes, num_strata), tag)
        got = estimate_rows(bare, tag)
        for field in ("est", "f_hat", "n_used", "kept", "se_bloom", "se_delta"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), (
                tag, field)
        assert [m.tolist() for m, _ in got.errors] == [m.tolist() for m, _ in want.errors], tag


@settings(max_examples=25)
@given(
    labels=st.lists(st.integers(-3, 40), min_size=1, max_size=60),
    wide=st.booleans(),
)
def test_vectorized_dense_codes_match_first_appearance_loop(labels, wide):
    arr = np.array(labels, dtype=np.int64) * (10**9 if wide else 1)
    codes, found = _dense_codes(arr)
    loop_codes, loop_labels = _dense_codes(list(arr))
    assert np.array_equal(codes, loop_codes)
    assert found == loop_labels
    assert all(type(a) is type(b) for a, b in zip(found, loop_labels))


def _slots(store):
    out = {"truth": store.truth}
    for name in ("est", "se_b", "se_d", "n_used", "dropped"):
        for tag, values in getattr(store, name).items():
            out[f"{name}.{tag}"] = values
    return out


CONFIGS = [
    ScenarioConfig(n=60, target_pi_c=0.3, random_strata_k=12, replications=23, seed=5),
    ScenarioConfig(n=200, target_pi_c=0.05, predicts_compliance=True, replications=23, seed=6),
    ConcentrationConfig(r=0.25, n=100, replications=23, seed=7),
    # these share n with the ones above but not strata counts, treated
    # counts, types or tags
    ScenarioConfig(n=60, target_pi_c=0.2, num_strata=2, predicts_outcome=True,
                   p_treat=0.25, replications=17, seed=8),
    ConcentrationConfig(r=0.5, n=60, replications=11, seed=9),
    ScenarioConfig(n=100, target_pi_c=0.3, heterogeneous_tau=True, replications=9, seed=10),
    ScenarioConfig(n=60, target_pi_c=0.3, estimators=("IV_W", "UNSTRAT", "ORACLE"),
                   replications=13, seed=11),
]


def _run_slots(configs, units: int, threads: int) -> list[dict]:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "BLOCK_UNITS", units)
        return _run_reps(configs, threads, lambda config, store: _slots(store))


@settings(max_examples=20)
@given(
    which=st.lists(st.integers(0, len(CONFIGS) - 1), min_size=1, unique=True),
    units=st.integers(1, 3000),
    threads=st.sampled_from([1, 3]),
)
@example(which=list(range(len(CONFIGS))), units=1000, threads=3)
@example(which=[3, 0, 6, 4], units=40 * 60, threads=1)
def test_rep_store_slots_do_not_depend_on_block_partition(which, units, threads):
    """Each config's slots, run with others in blocks of any size, equal
    those it gets run alone in one block."""
    configs = [CONFIGS[i] for i in which]
    for config, parts in zip(configs, _run_slots(configs, units, threads)):
        (whole,) = _run_slots([config], config.replications * config.n, 1)
        assert whole.keys() == parts.keys()
        for name, values in whole.items():
            assert np.array_equal(values, parts[name], equal_nan=values.dtype.kind == "f"), name


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), g_max=st.integers(1, 8))
@example(seed=67615, g_max=2)  # one stratum with f_hat = 0: both raise RankDeficient
def test_closed_form_tsls_dummy_matches_least_squares(seed, g_max):
    sample = random_sample(
        np.random.default_rng(seed), g_range=(1, g_max), require_nonzero_f=False
    )
    try:
        est, pi, se = tsls_dummies_lstsq(sample)
    except RankDeficient:
        with pytest.raises(RankDeficient):
            estimate(sample, "TSLS_DUMMY")
        return
    report = estimate(sample, "TSLS_DUMMY")
    assert _close(report.estimate, est)
    assert _close(report.f_hat, pi)
    assert se is not None and _close(report.se_bloom, se)


@pytest.mark.parametrize(
    "z, d",
    [
        # no uptake anywhere: the second stage has no regressor variation
        ([1, 1, 0, 0, 1, 1, 0, 0], [0] * 8),
        # z constant within every stratum: the first stage is rank deficient
        ([1, 1, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0, 0]),
    ],
)
def test_closed_form_tsls_dummy_rank_deficient_like_least_squares(z, d):
    sample = ObservedSample.from_arrays(
        z=z, d=d, y=[3.0, 1.0, 2.0, 0.0, 4.0, 2.0, 1.0, 1.0], strata=[0] * 4 + [1] * 4
    )
    with pytest.raises(RankDeficient):
        tsls_dummies_lstsq(sample)
    with pytest.raises(RankDeficient):
        estimate(sample, "TSLS_DUMMY")


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), pa=st.sampled_from([0.0, 0.2]))
def test_blocked_enumeration_matches_per_assignment_loop(seed, k, pa):
    labels, y0, y1, d0, d1, _ = _block_of_tables(seed, 1, 10, k, 0.4, pa)
    table = ScienceTable.from_arrays(y0[0], y1[0], d0[0], d1[0], strata=labels[0])
    for tag in (t for t in METHODS if t != "UNSTRAT"):  # UNSTRAT has its own closed form
        try:
            loop = enumerate_expectation(
                table, 0.5, lambda s, tag=tag: estimate(s, tag).estimate, convention="condition"
            )
        except Infeasible:
            with pytest.raises(Infeasible):
                enumerate_expectation(table, 0.5, tag, convention="condition")
            continue
        blocked = enumerate_expectation(table, 0.5, tag, convention="condition")
        assert blocked == loop, tag


# numpy sums up to 8 entries in a loop, then pairwise in blocks of 8 and
# splits runs over 128 in halves: each count is on a side of a seam
COUNTS = [0, 1, 2, 7, 8, 9, 128, 129, 300]


def _hex(x: float) -> str:
    return float.hex(float(x))


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.sampled_from(COUNTS), min_size=1, max_size=7),
    shared=st.booleans(),
    spare=st.integers(0, 40),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
)
@example(seed=1, counts=[129], shared=False, spare=0, zeros=0.0)  # R = 1
@example(seed=2, counts=[9, 0], shared=True, spare=5, zeros=0.0)  # one count, every row
@example(seed=3, counts=[300, 7, 1, 2], shared=False, spare=3, zeros=1.0)  # all -0.0
def test_masked_rows_match_one_dimensional_reductions(seed, counts, shared, spare, zeros):
    rng = np.random.default_rng(seed)
    if shared:
        counts = [counts[0]] * len(counts)
    m = max(counts) + spare
    mask = np.zeros((len(counts), m), dtype=bool)
    for i, k in enumerate(counts):
        mask[i, rng.choice(m, size=k, replace=False)] = True
    # magnitudes spread over 12 decades, so the order of a sum shows in its bits
    values = rng.normal(size=mask.shape) * 10.0 ** rng.uniform(-6, 6, size=mask.shape)
    values[rng.random(mask.shape) < zeros] = -0.0
    for rows in (MaskedRows.of(mask), MaskedRows(np.flatnonzero(mask), mask.shape)):
        total = rows.sum(values)
        mean, var = rows.mean_var(rows.take(values))
        assert np.array_equal(rows.counts, counts)
        for i in range(len(counts)):
            entries = values[i][mask[i]]
            assert _hex(total[i]) == _hex(np.sum(entries)), i
            assert _hex(mean[i]) == (_hex(np.mean(entries)) if len(entries) else "nan"), i
            expected = _hex(np.var(entries, ddof=1)) if len(entries) >= 2 else "nan"
            assert _hex(var[i]) == expected, i
