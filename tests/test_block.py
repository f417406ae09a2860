"""Differential tests of the block engine against the per-sample path and
against independent oracles.

* Every estimator run on a block of R samples gives, row by row, the
  bit-identical result (or the same exception) of estimate() /
  oracle_complier_dim on that sample alone.
* Every method, ORACLE included, gives the same rows on moments held at
  more strata than the block has.
* The simulation's per-replication slots do not depend on how the
  replications are cut into chunks and flushes, which other configs share
  them, or the thread count. A flush returns its rows, in any order it
  runs, and writes nothing into the jobs it reads.
* Exact enumeration over blocks of assignments equals the loop that runs
  estimate() assignment by assignment.
* The closed-form TSLS_DUMMY matches a least-squares 2SLS within 1e-12.
* MaskedRows gives every row the bit-identical 1-D np.sum / np.mean /
  np.var of its entries.
* block_moments' pooled moments equal those of a pass of their own.
"""

import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivstrat import (
    METHODS,
    AllStrataDropped,
    Infeasible,
    ScenarioConfig,
    ScienceTable,
    ZeroCompliance,
    enumerate_expectation,
    estimate,
    oracle_complier_dim,
)
from ivstrat.data_model import (
    EmptyArm,
    EstimationError,
    MaskedRows,
    ObservedBlock,
    ObservedSample,
    StratumMoments,
    _dense_codes,
    block_moments,
    complier_summary,
    first_appearance,
    reveal,
    science_to_observed,
)
from ivstrat.estimators import estimate_rows
from ivstrat import simulation
from ivstrat.simulation import ConcentrationConfig
from helpers import (
    StageRankDeficient,
    enumerate_loop,
    pooled_pass,
    random_sample,
    tsls_dummies_lstsq,
)


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
    codes, _, _ = first_appearance(labels)
    y, d = reveal(y0, y1, d0, d1, z)
    compliers = (d1 == 1) & (d0 == 0)
    block = ObservedBlock.of_units(z, d, y, codes, compliers)
    results = {tag: estimate_rows(block, tag) for tag in (*METHODS, "ORACLE")}
    for i in range(reps):
        table = ScienceTable.from_arrays(y0[i], y1[i], d0[i], d1[i], strata=labels[i])
        sample = science_to_observed(table, z[i])
        assert np.array_equal(sample.strata, codes[i])
        for tag, rows in results.items():
            code = rows.code[i]
            try:
                if tag == "ORACLE":
                    report = oracle_complier_dim(table, z[i])
                else:
                    report = estimate(sample, tag)
            except EstimationError as exc:
                assert code >= 0 and type(rows.causes[code]) is type(exc), (tag, i)
                continue
            assert code == -1, (tag, i)
            assert _same(report.estimate, rows.est[i]), (tag, i)
            assert _same(report.f_hat, rows.f_hat[i]), (tag, i)
            assert report.n_used == rows.n_used[i]
            kept = frozenset(table.stratum_labels[g] for g in np.flatnonzero(rows.kept[i]))
            assert report.strata_kept == kept, (tag, i)
            for se, row_se in ((report.se_bloom, rows.se_bloom), (report.se_delta, rows.se_delta)):
                assert _same(math.nan if se is None else se, row_se[i]), (tag, i)


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    reps=st.integers(1, 6),
    n=st.integers(4, 48),
    k=st.integers(1, 12),
    pc=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
    pa=st.sampled_from([0.0, 0.1]),
)
def test_a_row_has_no_estimate_exactly_when_it_failed(seed, reps, n, k, pc, pa):
    """On finite data every unfailed row's estimate is finite and every
    failed row's is nan, so `failed` alone says which rows are defined."""
    labels, y0, y1, d0, d1, z = _block_of_tables(seed, reps, n, k, pc, pa)
    codes, _, _ = first_appearance(labels)
    y, d = reveal(y0, y1, d0, d1, z)
    block = ObservedBlock.of_units(z, d, y, codes, (d1 == 1) & (d0 == 0))
    for tag in (*METHODS, "ORACLE"):
        rows = estimate_rows(block, tag)
        assert ((-1 <= rows.code) & (rows.code < len(rows.causes))).all(), tag
        assert np.array_equal(np.isnan(rows.est), rows.failed), tag
        assert np.isfinite(rows.est[~rows.failed]).all(), tag


RATIO_TAGS = ("UNSTRAT", "IV_W", "IV_A", "DSS", "DSF", "TSLS_DUMMY", "TSLS_WEIGHTED")


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    reps=st.integers(1, 6),
    n=st.integers(4, 48),
    k=st.integers(1, 12),
    pc=st.sampled_from([0.0, 0.05, 0.3]),
    pa=st.sampled_from([0.0, 0.1]),
)
def test_ratio_kernels_share_one_first_stage_rule(seed, reps, n, k, pc, pa):
    """On every row that no screen failed, each ratio kernel fails with
    EmptyArm exactly where its reported f_hat is nan, and with
    ZeroCompliance exactly where it is 0."""
    labels, y0, y1, d0, d1, z = _block_of_tables(seed, reps, n, k, pc, pa)
    codes, _, _ = first_appearance(labels)
    y, d = reveal(y0, y1, d0, d1, z)
    block = ObservedBlock.of_units(z, d, y, codes)
    for tag in RATIO_TAGS:
        rows = estimate_rows(block, tag)
        cause = [type(rows.causes[c]) if c >= 0 else None for c in rows.code]
        unscreened = np.array([c is not AllStrataDropped for c in cause])
        for cls, holds in ((EmptyArm, np.isnan(rows.f_hat)), (ZeroCompliance, rows.f_hat == 0)):
            got = np.array([c is cls for c in cause])
            assert np.array_equal(got[unscreened], holds[unscreened]), (tag, cls.__name__)


def test_no_uptake_fails_iv_w_and_pwiv_alike():
    """With no uptake anywhere, IV_W and PWIV keep no stratum and fail with
    the same class."""
    sample = ObservedSample.from_arrays(
        z=[1, 1, 0, 0] * 2, d=[0] * 8, y=[3.0, 1.0, 2.0, 0.0, 4.0, 2.0, 1.0, 1.0],
        strata=[0] * 4 + [1] * 4,
    )
    for tag in ("IV_W", "PWIV"):
        with pytest.raises(ZeroCompliance):
            estimate(sample, tag)


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    reps=st.integers(1, 6),
    n=st.integers(4, 48),
    k=st.integers(1, 12),
    pc=st.sampled_from([0.0, 0.3, 0.9]),
)
def test_methods_read_only_the_moments(seed, reps, n, k, pc):
    """The block is a frozen record of what the kernels read, and holds no
    unit array. Every method but ORACLE gives the same bits, failure codes
    and causes on a block built by of_units and on one built from a direct
    block_moments call."""
    names = [f.name for f in fields(ObservedBlock)]
    assert names == ["moments", "pooled", "n", "compliers"]
    labels, y0, y1, d0, d1, z = _block_of_tables(seed, reps, n, k, pc, 0.1)
    codes, num_strata, _ = first_appearance(labels)
    y, d = reveal(y0, y1, d0, d1, z)
    bare = ObservedBlock(*block_moments(z, d, y, codes, int(num_strata.max())), n)
    with pytest.raises(FrozenInstanceError):
        bare.moments = None
    for tag in METHODS:
        want = estimate_rows(ObservedBlock.of_units(z, d, y, codes), tag)
        got = estimate_rows(bare, tag)
        for field in ("est", "f_hat", "n_used", "kept", "se_bloom", "se_delta"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), (
                tag, field)
        assert np.array_equal(got.code, want.code), tag
        assert [(type(e), str(e)) for e in got.causes] == [
            (type(e), str(e)) for e in want.causes], tag


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    reps=st.integers(1, 6),
    n=st.integers(4, 48),
    k=st.integers(1, 12),
    pc=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
    extra=st.integers(1, 5),
)
def test_kernels_do_not_depend_on_the_moments_width(seed, reps, n, k, pc, extra):
    """Every method, ORACLE included, run on a block of moments and
    a complier summary alone, both held at more strata than any row has,
    gives the rows it gives on the block itself byte for byte, with the
    extra strata not kept. On both, a row's present strata are the
    first_appearance count of codes, and no code padded past it."""
    labels, y0, y1, d0, d1, z = _block_of_tables(seed, reps, n, k, pc, 0.1)
    codes, num_strata, _ = first_appearance(labels)
    y, d = reveal(y0, y1, d0, d1, z)
    g = int(num_strata.max())
    compliers = (d1 == 1) & (d0 == 0)
    block = ObservedBlock.of_units(z, d, y, codes, compliers)
    wide = ObservedBlock(
        *block_moments(z, d, y, codes, g + extra), n,
        complier_summary(np.flatnonzero(compliers), z, y, codes, g + extra),
    )
    for present in (block.present, wide.present):
        assert np.array_equal(present, np.arange(present.shape[1]) < num_strata[:, None])
    for tag in (*METHODS, "ORACLE"):
        want = estimate_rows(block, tag)
        got = estimate_rows(wide, tag)
        for field in ("est", "f_hat", "n_used", "se_bloom", "se_delta", "code"):
            a, b = getattr(want, field), getattr(got, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (tag, field)
        assert np.array_equal(got.kept[:, :g], want.kept), tag
        assert not got.kept[:, g:].any(), tag


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


def _slots(config, store):
    out = {"truth": store.truth}
    for i, tag in enumerate(config.estimators):
        for name, values in zip(("est", "se_b", "se_d", "n_used"), store.values[:, i]):
            out[f"{name}.{tag}"] = values
        out[f"dropped.{tag}"] = store.dropped[i]
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
    """Each config's raw slots, run_grid's aggregation replaced by _slots."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "BLOCK_UNITS", units)
        mp.setattr(simulation, "_metrics", _slots)
        return simulation.run_grid(configs, threads)


def _plan(configs, units: int) -> list:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "BLOCK_UNITS", units)
        return simulation._plan([simulation._Job(config) for config in configs])


def _flushed(configs, units: int) -> list[list]:
    """What each flush of a run of configs held, in order: its chunks,
    each with its unit phase."""
    flushed = []
    flush = simulation._flush

    def recording(held):
        flushed.append(held)
        return flush(held)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_flush", recording)
        _run_slots(configs, units, 1)
    return flushed


def _whole(config) -> int:
    """Units enough to run config alone in one chunk, which one flush runs."""
    width = simulation._Job(config).width
    return config.replications * max(config.n, len(fields(StratumMoments)) * (width + 1))


# a run of several flushes, of which one has several chunks
SPLIT = dict(which=list(range(len(CONFIGS))), units=2400, threads=3)


@settings(max_examples=20)
@given(
    which=st.lists(st.integers(0, len(CONFIGS) - 1), min_size=1, unique=True),
    units=st.integers(1, 3000),
    threads=st.sampled_from([1, 3]),
)
@example(which=list(range(len(CONFIGS))), units=1000, threads=3)
@example(which=[3, 0, 6, 4], units=40 * 60, threads=1)
@example(**SPLIT)
def test_rep_store_slots_do_not_depend_on_block_partition(which, units, threads):
    """Each config's slots, run with others in chunks and flushes of any
    size, equal those it gets run alone in one chunk."""
    configs = [CONFIGS[i] for i in which]
    for config, parts in zip(configs, _run_slots(configs, units, threads)):
        ((_, (_,)),) = _plan([config], _whole(config))
        (whole,) = _run_slots([config], _whole(config), 1)
        assert whole.keys() == parts.keys()
        for name, values in whole.items():
            assert np.array_equal(values, parts[name], equal_nan=values.dtype.kind == "f"), name


def test_partition_examples_split_blocks_and_chunks():
    """The partition test's SPLIT example runs several flushes, one of them
    of several chunks, and a flush's chunks mix configs."""
    flushed = _flushed([CONFIGS[i] for i in SPLIT["which"]], SPLIT["units"])
    assert len(flushed) >= 2
    assert max(len(held) for held in flushed) >= 2
    assert any(len({id(s.job) for chunk, _ in held for s in chunk}) > 1 for held in flushed)


def test_blocks_return_their_rows_and_write_no_job():
    """A run's flushes, run again in reverse order on what they held,
    return rows that, written into each config's slots by hand, equal what
    the run gave; no flush touches a job."""
    flushed = _flushed(CONFIGS, 1000)
    assert any(len({id(s.job) for chunk, _ in held for s in chunk}) > 1 for held in flushed)
    jobs = {s.job.config: s.job for held in flushed for chunk, _ in held for s in chunk}
    before = {job: dict(vars(job)) for job in jobs.values()}
    rows = [simulation._flush(held) for held in reversed(flushed)]
    for job, was in before.items():
        assert vars(job).keys() == was.keys()
        assert all(vars(job)[name] is value for name, value in was.items())
    stores = {job: simulation._RepStore.empty(len(job.config.estimators),
                                              job.config.replications) for job in before}
    for held, got in zip(flushed, reversed(rows)):
        for job, reps, src in simulation._block_segments([chunk for chunk, _ in held]):
            store, dst = stores[job], slice(reps.start, reps.stop)
            store.values[..., dst] = got.values[..., src]
            store.dropped[:, dst] = got.dropped[:, src]
            store.truth[dst] = got.truth[src]
    for config, want in zip(CONFIGS, _run_slots(CONFIGS, 1000, 1)):
        got = _slots(config, stores[jobs[config]])
        assert got.keys() == want.keys()
        for name, values in want.items():
            assert np.array_equal(values, got[name], equal_nan=values.dtype.kind == "f"), name


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-14)


# the kernel's failure where a least-squares stage is rank deficient
STAGE_FAILURE = {1: EmptyArm, 2: ZeroCompliance}


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), g_max=st.integers(1, 8))
@example(seed=67615, g_max=2)  # one stratum with f_hat = 0: stage 2, ZeroCompliance
def test_closed_form_tsls_dummy_matches_least_squares(seed, g_max):
    """The kernel fails with EmptyArm exactly where the first stage's design
    is rank deficient, and with ZeroCompliance exactly where the second's is."""
    sample = random_sample(
        np.random.default_rng(seed), g_range=(1, g_max), require_nonzero_f=False
    )
    try:
        est, pi, se = tsls_dummies_lstsq(sample)
    except StageRankDeficient as exc:
        with pytest.raises(STAGE_FAILURE[exc.stage]):
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
        # (ZeroCompliance)
        ([1, 1, 0, 0, 1, 1, 0, 0], [0] * 8),
        # z constant within every stratum: the first stage is rank deficient
        # (EmptyArm)
        ([1, 1, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0, 0]),
    ],
)
def test_closed_form_tsls_dummy_rank_deficient_like_least_squares(z, d):
    sample = ObservedSample.from_arrays(
        z=z, d=d, y=[3.0, 1.0, 2.0, 0.0, 4.0, 2.0, 1.0, 1.0], strata=[0] * 4 + [1] * 4
    )
    with pytest.raises(StageRankDeficient) as exc:
        tsls_dummies_lstsq(sample)
    assert exc.value.stage == (2 if sum(d) == 0 else 1)
    with pytest.raises(STAGE_FAILURE[exc.value.stage]):
        estimate(sample, "TSLS_DUMMY")


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), pa=st.sampled_from([0.0, 0.2]))
def test_blocked_enumeration_matches_per_assignment_loop(seed, k, pa):
    labels, y0, y1, d0, d1, _ = _block_of_tables(seed, 1, 10, k, 0.4, pa)
    table = ScienceTable.from_arrays(y0[0], y1[0], d0[0], d1[0], strata=labels[0])
    for tag in (t for t in METHODS if t != "UNSTRAT"):  # UNSTRAT has its own closed form
        try:
            loop = enumerate_loop(
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
        # entries gathered in position order, put in index order
        gathered = values.ravel()[np.flatnonzero(mask)]
        assert gathered[rows.entry_order].tobytes() == rows.take(values).tobytes()
        for i in range(len(counts)):
            entries = values[i][mask[i]]
            assert _hex(total[i]) == _hex(np.sum(entries)), i
            assert _hex(mean[i]) == (_hex(np.mean(entries)) if len(entries) else "nan"), i
            expected = _hex(np.var(entries, ddof=1)) if len(entries) >= 2 else "nan"
            assert _hex(var[i]) == expected, i


@settings(max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    reps=st.integers(1, 6),
    n=st.integers(1, 30),
    g=st.integers(1, 8),
    p_treat=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    p_take=st.sampled_from([0.0, 0.3, 1.0]),
    scale=st.sampled_from([1.0, 1e-300, 1e150]),
)
def test_pooled_moments_equal_a_pass_of_their_own(seed, reps, n, g, p_treat, p_take, scale):
    """block_moments' pooled fields, whose counts and d sums add up its
    stratified ones, equal pooled_pass's own bincounts byte for byte: d
    taken on both arms, empty arms (p_treat 0 or 1) and one-unit cells
    (n = 1, or many strata) among the inputs."""
    rng = np.random.default_rng(seed)
    z = (rng.random((reps, n)) < p_treat).astype(np.int8)
    d = (rng.random((reps, n)) < p_take).astype(np.int8)
    y = rng.normal(size=(reps, n)) * scale
    strata = rng.integers(0, g, size=(reps, n))
    _, pooled = block_moments(z, d, y, strata, g)
    want = pooled_pass(z, d, y)
    for f in fields(StratumMoments):
        a, b = getattr(pooled, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
