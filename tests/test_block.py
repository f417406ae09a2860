"""Differential tests of the block engine against the per-sample path and
against independent oracles.

* Every estimator run on a block of R samples gives, row by row, the
  bit-identical result (or the same exception) of estimate() /
  oracle_complier_dim on that sample alone.
* The simulation's per-replication slots do not depend on how the
  replications are cut into blocks or spread over threads.
* Exact enumeration over blocks of assignments equals the loop that runs
  estimate() assignment by assignment.
* The closed-form TSLS_DUMMY matches a least-squares 2SLS within 1e-12.
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
    ObservedBlock,
    ObservedSample,
    RankDeficient,
    _dense_codes,
    first_appearance,
    reveal,
    science_to_observed,
)
from ivstrat.estimators import estimate_rows, tsls_dummies
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
]


@settings(max_examples=12)
@given(
    which=st.integers(0, len(CONFIGS) - 1),
    block=st.integers(1, 23),
    threads=st.sampled_from([1, 3]),
)
def test_rep_store_slots_do_not_depend_on_block_partition(which, block, threads):
    config = CONFIGS[which]

    def run(reps_per_block: int, threads: int) -> dict:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "BLOCK_UNITS", reps_per_block * config.n)
            return _slots(_run_reps(config, threads))

    whole = run(config.replications, 1)
    parts = run(block, threads)
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
            tsls_dummies(sample)
        return
    report = tsls_dummies(sample)
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
        tsls_dummies(sample)


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
