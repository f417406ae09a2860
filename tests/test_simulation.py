import functools
import io
import json
import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ivstrat import (
    ConcentrationConfig,
    Infeasible,
    RNG_FAMILY,
    ScenarioConfig,
    default_grid,
    generate_concentration_table,
    generate_random_strata,
    generate_science_table,
    run_concentration,
    run_grid,
    run_scenario,
    write_metrics_csv,
)
from ivstrat import ScienceTable, science_to_observed, simulation
from ivstrat.data_model import ComplierSummary, complier_summary, first_appearance
from ivstrat.estimators import estimate_rows
from ivstrat.simulation import (
    _Buffers, _Job, _draw_block, _flush, _philox_keys, _plan, _segments, _unit_phase,
)
from helpers import rep_rng, stratified_table


def make_config(**kw):
    base = dict(n=200, target_pi_c=0.2, replications=40, seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def original_labels(t):
    # units tagged by the label the generator used, undoing the
    # first-appearance recode applied at table construction
    return np.array(t.stratum_labels)[t.strata]


def metrics_text(m):
    buf = io.StringIO()
    write_metrics_csv([m], buf)
    return buf.getvalue()


@pytest.mark.parametrize(
    "kw",
    [
        dict(target_pi_c=0.0),
        dict(target_pi_c=1.0),
        dict(n=2),
        dict(n=201),  # 201 * 0.5 treated units is not whole
        dict(p_treat=0.0),
        dict(replications=0),
        dict(num_strata=0),
        dict(compliance_ratio=0.0),
        dict(outcome_r2=1.0),
        dict(random_strata_k=0),
        dict(estimators=("UNSTRAT", "BOGUS")),
    ],
)
def test_scenario_config_rejects(kw):
    with pytest.raises(ValueError):
        make_config(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        dict(r=-0.1),
        dict(r=1.5),
        dict(target_p=0.0),
        dict(weights=(0.5, 0.5, 0.5)),
        dict(weights=(1.0, 0.0)),
        dict(estimators=("ORACLE", "nope")),
        dict(outcome_r2=1.0),
        dict(outcome_r2=-0.5),
        dict(n=2),
        dict(weights=(math.nan, 0.5, 0.5)),
    ],
)
def test_concentration_config_rejects(kw):
    base = dict(n=200, replications=10, seed=1)
    base.update(kw)
    with pytest.raises(ValueError):
        ConcentrationConfig(**base)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
@pytest.mark.parametrize(
    "make",
    [make_config, lambda **kw: ConcentrationConfig(n=40, **kw)],
    ids=["scenario", "concentration"],
)
def test_configs_refuse_a_seed_not_a_non_negative_integer(make, seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        make(seed=seed)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["tau", "never_taker_shift"])
@pytest.mark.parametrize(
    "make",
    [make_config, lambda **kw: ConcentrationConfig(n=40, **kw)],
    ids=["scenario", "concentration"],
)
def test_configs_refuse_a_value_that_is_not_finite(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        make(**{field: value})


_COUNTS = [
    (field, value)
    for field in ("n", "replications")
    for value in (40.0, 2.5, True, "40")
]


@pytest.mark.parametrize(
    "field, value",
    _COUNTS + [(f, v) for f in ("num_strata", "random_strata_k") for v in (2.0, 2.5, True)],
)
def test_scenario_config_refuses_a_count_not_an_integer(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        make_config(**{field: value})


def test_scenario_config_refuses_random_strata_past_int64_labels():
    """Random labels are int64 draws of integers(0, k): k = 2**63 runs, and
    any larger k is refused at construction, naming the field, not in the
    config's first chunk."""
    config = make_config(n=40, random_strata_k=2**63, replications=3)
    assert run_grid([config])[0].replications == 3
    for k in (2**63 + 1, 10**19):
        with pytest.raises(ValueError, match=r"random_strata_k must be at most 2\*\*63"):
            make_config(n=40, random_strata_k=k, replications=3)


def _outcome_bound(n: int, replications: int) -> float:
    """The largest |tau| or |never_taker_shift| a config of n units and
    that many replications accepts, as its docstring states it."""
    return math.sqrt(sys.float_info.max / replications) / (16.0 * n**4)


def test_configs_refuse_outcome_scales_that_can_overflow():
    """tau = 1.7e308 at n = 40 ran with overflow warnings and failed every
    tag; it is refused at construction, naming the field, as is a
    never-taker shift past the bound for either config type."""
    with pytest.raises(ValueError, match="tau"):
        ScenarioConfig(n=40, replications=20, tau=1.7e308, target_pi_c=0.5)
    bound = _outcome_bound(100, 30)
    for make in (ScenarioConfig, ConcentrationConfig):
        for field in ("tau", "never_taker_shift"):
            for sign in (1.0, -1.0):
                with pytest.raises(ValueError, match=field):
                    make(n=100, replications=30, **{field: sign * bound * (1 + 1e-9)})
            make(n=100, replications=30, **{field: bound})


@pytest.mark.parametrize("field", ["tau", "never_taker_shift"])
def test_half_the_outcome_bound_runs_without_overflow(field):
    """At half the bound the refused config's shape runs with no
    RuntimeWarning (tier-1 makes each one an error), and every tag
    estimates on some replication."""
    bound = _outcome_bound(40, 20)
    for value in (bound / 2, -bound / 2):
        config = ScenarioConfig(n=40, replications=20, target_pi_c=0.5, **{field: value})
        metrics = run_scenario(config)
        assert all(row.fail_rate < 1.0 and math.isfinite(row.bias) for row in metrics.rows)


@pytest.mark.parametrize("field, value", _COUNTS)
def test_concentration_config_refuses_a_count_not_an_integer(field, value):
    kw = dict(n=40, replications=2)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ConcentrationConfig(**kw)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ScenarioConfig(n=40, replications=2, num_strata=1, predicts_outcome=True),
        lambda: ScenarioConfig(n=40, replications=2, num_strata=1, predicts_outcome=True,
                               random_strata_k=3, outcome_r2=0.0),
        lambda: ConcentrationConfig(n=40, replications=2, weights=(1.0,), predicts_outcome=True),
    ],
    ids=["scenario", "random strata", "concentration"],
)
def test_configs_refuse_an_outcome_pattern_over_one_stratum(make):
    """An outcome pattern over one stratum has no scale (its between-stratum
    spread is 0), so such a config is refused when it is made."""
    with pytest.raises(ValueError, match="predicts_outcome"):
        make()


def test_concentration_infeasible_target():
    # all compliers would have to sit in the last stratum at rate > 1
    with pytest.raises(Infeasible, match="^target_p=0.5 with r=0.0 needs top-stratum compliance"):
        ConcentrationConfig(r=0.0, target_p=0.5, n=200, replications=10, seed=1)


def test_base_rate_boundaries():
    # the top stratum's rate, comp_prob[-1], is the base rate p
    flat = ConcentrationConfig(r=1.0, target_p=0.15, n=200, replications=1, seed=0)
    assert flat.comp_prob == pytest.approx([0.15] * 4, rel=1e-12)
    point = ConcentrationConfig(r=0.0, target_p=0.15, n=200, replications=1, seed=0)
    assert point.comp_prob.tolist() == [0.0, 0.0, 0.0, 1.0]  # 0.15 / 0.15, exactly


def test_scenario_ids():
    c = make_config(
        n=2000,
        target_pi_c=0.1,
        predicts_compliance=True,
        never_taker_shift=0.5,
    )
    assert c.scenario_id == "n2000_pi0.1_pc1_py0_nt0.5_ht0"
    assert make_config(random_strata_k=3).scenario_id.endswith("_rk3")
    k = ConcentrationConfig(r=0.5, target_p=0.15, n=2000, replications=1, seed=0)
    assert k.scenario_id == "r0.5_P0.15_n2000"


def test_flat_compliance_table():
    rng = np.random.default_rng(0)
    cfg = make_config(n=20000, target_pi_c=0.1)
    t = generate_science_table(cfg, rng)
    assert t.n == 20000
    assert t.one_sided
    assert set(np.unique(t.strata)) == {0, 1, 2, 3}
    assert np.mean(t.d1) == pytest.approx(0.1, abs=0.008)


def test_geometric_compliance_table():
    rng = np.random.default_rng(1)
    cfg = make_config(n=40000, target_pi_c=0.1, predicts_compliance=True)
    t = generate_science_table(cfg, rng)
    orig = original_labels(t)
    rates = [np.mean(t.d1[orig == g]) for g in range(4)]
    assert rates[0] > rates[1] > rates[2]
    assert rates[0] == pytest.approx(0.36, abs=0.02)
    assert np.mean(t.d1) == pytest.approx(0.1, abs=0.006)


def test_geometric_compliance_infeasible():
    # refused at construction, as ConcentrationConfig refuses its own
    with pytest.raises(Infeasible, match="compliance 1.8 > 1"):
        make_config(target_pi_c=0.5, predicts_compliance=True)


def test_outcome_pattern_variance_split():
    rng = np.random.default_rng(2)
    cfg = make_config(n=40000, predicts_outcome=True, target_pi_c=0.1)
    t = generate_science_table(cfg, rng)
    scale = math.sqrt(0.63 / ((16 - 1) / 12.0))
    orig = original_labels(t)
    for g in range(4):
        expected = scale * (g - 1.5)
        nevers = (orig == g) & (t.d1 == 0)
        assert np.mean(t.y0[nevers]) == pytest.approx(expected, abs=0.04)
    assert np.var(t.y0) == pytest.approx(1.0, abs=0.05)


def test_never_taker_shift_moves_control_means():
    rng = np.random.default_rng(3)
    cfg = make_config(n=20000, target_pi_c=0.5, never_taker_shift=5.0)
    t = generate_science_table(cfg, rng)
    gap = np.mean(t.y0[t.d1 == 0]) - np.mean(t.y0[t.d1 == 1])
    assert gap == pytest.approx(5.0, abs=0.1)


def test_heterogeneous_tau_profile():
    rng = np.random.default_rng(4)
    cfg = make_config(n=20000, target_pi_c=0.3, heterogeneous_tau=True)
    t = generate_science_table(cfg, rng)
    lift = t.y1 - t.y0
    orig = original_labels(t)
    for g in range(4):
        compliers = (orig == g) & (t.d1 == 1)
        assert np.allclose(lift[compliers], 0.8 - 0.2 * g, atol=1e-9)
    assert np.all(lift[t.d1 == 0] == 0.0)


def test_concentration_table_composition():
    rng = np.random.default_rng(5)
    cfg = ConcentrationConfig(r=0.5, target_p=0.15, n=40000, replications=1, seed=0)
    t = generate_concentration_table(cfg, rng)
    orig = original_labels(t)
    shares = [np.mean(orig == g) for g in range(4)]
    assert shares == pytest.approx([0.35, 0.30, 0.20, 0.15], abs=0.01)
    rates = [np.mean(t.d1[orig == g]) for g in range(4)]
    assert rates[0] < rates[1] < rates[2] < rates[3]
    assert np.mean(t.d1) == pytest.approx(0.15, abs=0.008)


def test_random_strata_relabel():
    rng = np.random.default_rng(6)
    t = stratified_table(rng, n=400, compliers_per_stratum=(25, 10, 4, 1))
    r = generate_random_strata(t, 3, rng)
    assert np.array_equal(r.y0, t.y0) and np.array_equal(r.d1, t.d1)
    assert set(np.unique(r.strata)) <= {0, 1, 2}
    single = generate_random_strata(t, 1, rng)
    assert set(np.unique(single.strata)) == {0}
    with pytest.raises(ValueError):
        generate_random_strata(t, 0, rng)


def test_run_scenario_metrics_shape():
    cfg = make_config()
    m = run_scenario(cfg)
    assert m.scenario_id == cfg.scenario_id
    assert m.replications == 40
    assert m.rng_family == RNG_FAMILY == "philox4x64"
    assert [r.estimator for r in m.rows] == list(cfg.estimators)
    by_tag = {r.estimator: r for r in m.rows}
    unstrat = by_tag["UNSTRAT"]
    assert unstrat.rel_instab_bloom == 1.0
    assert unstrat.rel_instab_delta == 1.0
    assert unstrat.drop_rate == 0.0
    assert unstrat.mean_n_used == 200.0
    assert by_tag["IV_A"].mean_n_used == 200.0
    for r in m.rows:
        assert 0.0 <= r.fail_rate <= 1.0
        if r.fail_rate < 1.0:
            assert math.isfinite(r.bias)
            assert r.true_se > 0.0


def test_run_scenario_same_seed_same_bytes():
    cfg = make_config(seed=11)
    assert metrics_text(run_scenario(cfg)) == metrics_text(run_scenario(cfg))


def test_run_scenario_thread_count_invariant():
    cfg = make_config(seed=12, replications=30)
    assert metrics_text(run_scenario(cfg, threads=1)) == metrics_text(
        run_scenario(cfg, threads=3)
    )


def test_run_scenario_distinct_seeds_differ():
    a = metrics_text(run_scenario(make_config(seed=1, replications=20)))
    b = metrics_text(run_scenario(make_config(seed=2, replications=20)))
    assert a != b


def test_no_complier_replications_count_as_failures():
    # pi_c so small that most replications draw zero compliers
    cfg = make_config(n=20, target_pi_c=0.01, replications=30, seed=3)
    m = run_scenario(cfg)
    by_tag = {r.estimator: r for r in m.rows}
    assert by_tag["UNSTRAT"].fail_rate > 0.5
    for r in m.rows:
        # no-complier draws sink every estimator; the unstratified ratio
        # fails exactly when uptake is flat, so it is the floor
        assert r.fail_rate >= by_tag["UNSTRAT"].fail_rate


def test_all_failed_rows_are_nan():
    cfg = make_config(n=12, target_pi_c=0.001, replications=6, seed=5)
    m = run_scenario(cfg)
    for r in m.rows:
        assert r.fail_rate == 1.0
        assert math.isnan(r.bias) and math.isnan(r.true_se)
        assert math.isnan(r.mean_n_used)


def test_run_concentration_smoke():
    cfg = ConcentrationConfig(r=0.5, target_p=0.15, n=200, replications=20, seed=9)
    m = run_concentration(cfg)
    assert m.scenario_id == "r0.5_P0.15_n200"
    assert len(m.rows) == len(cfg.estimators)
    assert metrics_text(m) == metrics_text(run_concentration(cfg, threads=2))


def test_default_grid_layout():
    grid = default_grid()
    assert len(grid) == 216
    assert len({c.scenario_id for c in grid}) == 216
    assert len({c.seed for c in grid}) == 216
    assert all(c.n in (500, 1000, 2000) for c in grid)


def test_run_grid_order():
    configs = [make_config(seed=21, replications=5), make_config(seed=22, replications=5)]
    out = run_grid(configs)
    assert [m.seed for m in out] == [21, 22]


def test_run_grid_rejects_threads_below_one():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            run_scenario(make_config(replications=2), threads=threads)
        with pytest.raises(ValueError, match="threads"):
            run_grid([make_config(replications=2)], threads=threads)


DRAW_CONFIGS = {
    "uniform strata": lambda **kw: ScenarioConfig(target_pi_c=0.3, **kw),
    "noise_sd below 1": lambda **kw: ScenarioConfig(
        target_pi_c=0.1, predicts_compliance=True, predicts_outcome=True, **kw
    ),
    "random strata": lambda **kw: ScenarioConfig(target_pi_c=0.3, random_strata_k=3, **kw),
    "float weights": lambda **kw: ConcentrationConfig(r=0.5, predicts_outcome=True, **kw),
    "integer weights": lambda **kw: ConcentrationConfig(weights=(1,), **kw),
    # the benchmark's shapes: 4 predictive strata at n = 2000 and 12 random
    # strata at n = 500
    "predictive strata": lambda **kw: ScenarioConfig(
        target_pi_c=0.05, predicts_compliance=True, predicts_outcome=True, **kw
    ),
    "random strata k=12": lambda **kw: ScenarioConfig(target_pi_c=0.05, random_strata_k=12, **kw),
}
# k where integers(0, k) draws no word (1), rejects about half of its
# 32-bit words (2**31+1) or a quarter (3*2**30), maps them whole (2**32)
# or draws 64-bit words (2**32+1)
BOUNDARY_K = {"1": 1, "2**31+1": 2**31 + 1, "3*2**30": 3 * 2**30, "2**32": 2**32,
              "2**32+1": 2**32 + 1}
for name, k in BOUNDARY_K.items():
    DRAW_CONFIGS[f"random strata k={name}"] = functools.partial(
        ScenarioConfig, target_pi_c=0.3, random_strata_k=k
    )
    # a config cannot hold so many equal strata (comp_prob holds a rate per
    # stratum), so the test widens their design, whose draws read no rate
    DRAW_CONFIGS[f"equal strata G={name}"] = DRAW_CONFIGS["uniform strata"]


SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 2**130 + 3]


@given(
    seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**200)),
    first=st.integers(0, 2**32 - 1),
    count=st.integers(0, 40),
)
@example(seed=0, first=2**32 - 1, count=1)
@example(seed=2**32 - 1, first=0, count=40)
@example(seed=2**32, first=2**31, count=5)
@example(seed=2**64 + 1, first=2**32 - 3, count=3)
@example(seed=2**130 + 3, first=0, count=40)
def test_philox_keys_equal_seed_sequence_keys(seed, first, count):
    reps = range(first, min(first + count, 2**32))
    expected = [
        np.random.SeedSequence(entropy=seed, spawn_key=(rep,)).generate_state(2, np.uint64)
        for rep in reps
    ]
    keys = _philox_keys(seed, reps)
    assert keys.dtype == np.uint64 and keys.shape == (len(reps), 2)
    assert np.array_equal(keys, np.reshape(expected, (len(reps), 2)))


@pytest.mark.parametrize(
    "reps", [range(2**32 - 1, 2**32 + 1), range(2**40, 2**40 + 1), range(-1, 2)]
)
def test_philox_keys_refuse_indices_past_32_bits(reps):
    with pytest.raises(ValueError, match=r"replication indices must lie in \[0, 2\*\*32\)"):
        _philox_keys(5, reps)


@pytest.mark.parametrize("n", [4, 7, 500, 2000])
@pytest.mark.parametrize("kind", sorted(DRAW_CONFIGS))
def test_block_draws_equal_numpy_calls(kind, n, monkeypatch):
    """Each replication's rows equal numpy's one-call draws on its
    substream, and leave the block's generator in the state they leave
    that substream's generator. A replication drawn again after a
    rejected word ends in the state of its last reset's draws."""
    config = DRAW_CONFIGS[kind](n=n, p_treat=3 / 7 if n == 7 else 0.5, replications=4, seed=31)
    numpy_philox = np.random.Philox
    made, states = [], []  # the block's generators; their states before each reset
    keys = []  # the key each reset set

    class Philox(numpy_philox):  # its state names its class, so it keeps numpy's name
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

        @property
        def state(self):
            return super().state

        @state.setter
        def state(self, value):
            states.append(self.state)
            keys.append(tuple(value["state"]["key"]))
            numpy_philox.state.__set__(self, value)

    monkeypatch.setattr(np.random, "Philox", Philox)
    job = _Job(config)
    if kind.startswith("equal strata G="):
        wide = BOUNDARY_K[kind.removeprefix("equal strata G=")]
        job.design = replace(job.design, num_strata=wide)
    r = config.replications
    # one chunk of them all (_plan cuts n = 2000 at a width of 2000 finer)
    slots = _Buffers(r * n).rows(r, n)
    z = _draw_block([job], range(r), slots)
    monkeypatch.undo()
    (bit_generator,) = made
    # each replication's state after its last reset's draws: the one the
    # next reset replaced, and for the block's last reset, the one it left
    ends = dict(zip(keys, states[1:] + [bit_generator.state]))
    assert list(ends) == [tuple(key) for key in job.keys.tolist()]
    ends = list(ends.values())
    assert len(ends) == config.replications

    def plain(state: dict) -> str:
        return json.dumps(state, default=np.ndarray.tolist, sort_keys=True)

    sd, g = job.design.noise_sd, job.design.num_strata
    for rep, end in enumerate(ends):
        ref = rep_rng(config.seed, rep)
        if isinstance(config, ConcentrationConfig):
            strata = ref.choice(g, size=n, p=config.weights)
        else:
            strata = ref.integers(0, g, size=n)
        assert np.array_equal(slots["strata"][rep], strata)
        assert np.array_equal(slots["u"][rep], ref.random(n))
        assert np.array_equal(slots["noise"][rep], ref.normal(0.0, sd, n))
        if job.design.random_k is not None:
            k = job.design.random_k
            assert np.array_equal(slots["labels"][rep], ref.integers(0, k, size=n))
        treated = np.zeros(n, dtype=np.int8)
        treated[ref.permutation(n)[: job.n1]] = 1
        assert np.array_equal(z[rep], treated)
        assert plain(end) == plain(ref.bit_generator.state)


@pytest.mark.parametrize("k", [3, 7, 2**31 + 1, 2**32 - 1])
def test_lemire_rejects_exactly_below_numpys_threshold(k):
    """_lemire flags a row where a 32-bit half x has (x * k) mod 2**32
    below 2**32 mod k, numpy's rejection test, and no other, and maps each
    half to (x * k) >> 32. Random words meet the threshold's edge about
    once in 2**32, so these halves are made to sit on either side of it."""
    threshold, inverse = 2**32 % k, pow(k, -1, 2**32)  # k is odd
    below, at = ((leftover * inverse) % 2**32 for leftover in (threshold - 1, threshold))
    halves = np.array([[at, at], [at, below], [below, at]], dtype="<u4")
    out = np.empty((3, 2), dtype=np.intp)
    rejected = simulation._lemire(halves.copy().view("<u8"), k, out)
    assert rejected.tolist() == [False, True, True]
    assert out.tolist() == [[x * k >> 32 for x in row] for row in halves.tolist()]


def test_run_grid_frees_each_config_slots_after_its_last_block(monkeypatch):
    # chunks of 100 replications (their moment rows, 13 (G + 1) values
    # each at G = 4, fill BLOCK_UNITS), each flushed alone (with their
    # complier summaries they pass it), so that the slots set the peak; all
    # 20 configs' slots kept to the end would about triple it
    monkeypatch.setattr(simulation, "BLOCK_UNITS", 100 * 13 * 5)
    assert _flush_sizes([make_config(n=60, replications=300)]) == [[100]] * 3

    def peak(count: int) -> int:
        configs = [make_config(n=60, replications=300, seed=s) for s in range(count)]
        # this thread's kept buffers are made afresh, so they count in
        # every peak
        vars(simulation._kept).clear()
        tracemalloc.start()
        try:
            run_grid(configs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # leave out allocations made only on a first call
    assert peak(20) < 1.5 * peak(2)


def _on_a_new_thread(fn):
    """fn() run on a thread of its own, which keeps no block buffers yet."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_kept_buffers_carry_nothing_between_blocks_or_calls(threads, monkeypatch):
    """A config run after others that leave other shapes, strata counts
    and design kinds in this thread's buffers writes the bytes it writes
    on a new thread."""
    monkeypatch.setattr(simulation, "BLOCK_UNITS", 30 * 200)  # 5 chunks of a, each flushed alone
    a = make_config(n=200, num_strata=4, predicts_outcome=True, replications=150, seed=21)
    b = make_config(n=120, target_pi_c=0.3, random_strata_k=12, replications=70, seed=22)
    c = ConcentrationConfig(r=0.25, n=150, replications=50, seed=23)

    def text(config) -> str:
        return metrics_text(run_grid([config], threads)[0])

    first, _, _, again = [text(config) for config in (a, b, c, a)]
    fresh = _on_a_new_thread(lambda: text(a))
    assert first == fresh
    assert again == fresh


def test_the_sim_n2000_config_keeps_at_most_2_5_mb_of_buffers():
    """After one run of the benchmark's n=2000 config on a new thread, the
    buffers that thread keeps, every slot and the positions, hold at most
    2.5 MB: 66 bytes a unit of BLOCK_UNITS = 2**15 units is 2.16 MB
    (2**16 units held 4.3 MB)."""
    config = ScenarioConfig(n=2000, num_strata=4, target_pi_c=0.05, predicts_compliance=True,
                            predicts_outcome=True, replications=100, seed=1)

    def kept_bytes() -> int:
        run_grid([config])
        buffers = simulation._kept.buffers
        return sum(a.nbytes for a in buffers.flat.values()) + buffers.positions.nbytes

    assert _on_a_new_thread(kept_bytes) <= 2_500_000


@pytest.mark.parametrize(
    "broken, name",
    [("_lemire", "strata"), ("_philox_keys", "Philox keys"), ("of", "strata"),
     ("map_raw", "noise")],
)
def test_run_grid_refuses_a_numpy_that_draws_other_bits(broken, name, monkeypatch):
    """Before the first chunk of a process, run_grid checks that the
    engine's Philox keys and word path draw what numpy's own calls draw. A
    _lemire or a _philox_keys that gives other bits, as it would under a
    numpy whose streams moved, a weights design one cdf edge short, or a
    word path that leaves its normals unscaled makes it raise naming
    numpy's version and what differs, and no chunk runs."""
    owner = simulation._Design if broken in ("of", "map_raw") else simulation
    real = getattr(owner, broken)

    def lemire(words, k, out):
        rejected = real(words, k, out)
        out[..., 0] = (out[..., 0] + 1) % k  # each row's first label moves
        return rejected

    def philox_keys(seed, reps):
        keys = real(seed, reps)
        keys[:, 0] ^= np.uint64(1)
        return keys

    def of(config):
        design = real(config)
        return design if design.cdf is None else replace(design, cdf=design.cdf[1:])

    def map_raw(design, draws, rows):
        return real(replace(design, noise_sd=1.0), draws, rows)

    def unit_phase(*args):
        raise AssertionError("a chunk ran")

    breaks = {"_lemire": lemire, "_philox_keys": philox_keys, "of": of, "map_raw": map_raw}
    monkeypatch.setattr(owner, broken, breaks[broken])
    monkeypatch.setattr(simulation, "_unit_phase", unit_phase)
    # the check has passed in this process; it runs again once forgotten
    simulation._check_numpy.cache_clear()
    message = rf"^numpy {re.escape(np.__version__)}: the engine's {name} differ"
    with pytest.raises(RuntimeError, match=message):
        run_grid([make_config(replications=2)])


def _largest_line_allocation(fn) -> int:
    """The largest rise of traced memory within one line of Python that
    fn() runs, above its level when the line began. No single allocation
    is larger, unless its line freed memory before making it."""
    largest = start = 0

    def trace(frame, event, arg):
        nonlocal largest, start
        largest = max(largest, tracemalloc.get_traced_memory()[1] - start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        return trace

    tracemalloc.start()
    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return largest


@pytest.mark.parametrize(
    "config",
    [
        make_config(n=2000, target_pi_c=0.05, predicts_compliance=True, predicts_outcome=True,
                    replications=100, seed=3),
        ConcentrationConfig(r=0.25, n=500, replications=300, seed=4),
    ],
    ids=["scenario", "concentration"],
)
def test_a_repeated_call_allocates_no_unit_sized_array(config):
    """After a first call has made this thread's buffers, a call of
    several chunks allocates no array as large as one chunk's (R, n)
    float64 array."""
    unit = simulation.BLOCK_UNITS // config.n * config.n * 8
    run_grid([config])
    assert sum(len(chunks) for _, _, chunks in _plan([_Job(config)])) > 1
    assert _largest_line_allocation(lambda: run_grid([config])) < unit


def _repeated_call_peak(configs) -> int:
    """The traced peak of run_grid(configs) called a second time, once the
    first call has made this thread's buffers."""
    run_grid(configs)
    tracemalloc.start()
    try:
        run_grid(configs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_flush_holds_no_value_per_complier():
    """A flush holds fixed-size rows, moments and complier summaries, and
    nothing per complier: with half the units compliers a repeated call's
    peak barely grows from 100 to 400 replications of one config, each run
    as one flush (holding a value per complier would about quadruple it)."""

    def peak(reps: int) -> int:
        config = make_config(n=2000, target_pi_c=0.5, replications=reps, seed=5)
        ((_, _, chunks),) = _plan([_Job(config)])
        assert len(chunks) == -(-reps // 16)
        return _repeated_call_peak([config])

    assert peak(400) < 1.5 * peak(100)


def test_a_flush_holds_about_block_units_values_of_moments():
    """At 12 random strata and few units, a replication's rows are mostly
    moments (13 values at each of 13 strata, one of them pooled), beside
    its complier summary (7 values and 12 flags), and _plan cuts a group's
    chunks into flushes by both: a repeated call's peak barely grows from
    3 to 12 configs of 400 replications in one group, run in several
    flushes (holding the whole group's rows would about quadruple it)."""

    def peak(count: int) -> int:
        configs = [make_config(n=200, random_strata_k=12, replications=400, seed=40 + s)
                   for s in range(count)]
        assert len(_plan([_Job(c) for c in configs])) > 1
        return _repeated_call_peak(configs)

    assert peak(12) < 1.5 * peak(3)


def _row_values(group, width: int, chunk) -> int:
    """One replication's fixed values in a flush, counted on the unit phase
    of a chunk at its group's width: its moments and pooled moments, and
    its complier summary."""
    n = group[0].config.n
    slots = simulation._kept_buffers(len(chunk) * n).rows(len(chunk), n)
    phase = _unit_phase(group, chunk, slots, width)
    return sum(getattr(part, f.name)[0].size for part in phase for f in fields(part))


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    bounds=st.tuples(st.integers(0, 240), st.integers(0, 240)),
)
@example(counts=[5, 3], bounds=(2, 2))  # empty
@example(counts=[5, 3], bounds=(8, 8))  # empty, at the group's end
@example(counts=[3, 40, 7], bounds=(5, 20))  # within one config
@example(counts=[3, 40, 7], bounds=(3, 43))  # one config, whole
@example(counts=[3, 40, 7, 1], bounds=(1, 51))  # across several, to the end
def test_segments_map_rows_as_a_brute_force_map_does(counts, bounds):
    """_segments over a range of a group's rows gives, in order, the
    (config, replication) pairs that a map of each row to its own pair
    gives, each at its position counted from the range's start, one
    nonempty segment per config."""
    group = [_Job(make_config(n=8, replications=r, seed=i)) for i, r in enumerate(counts)]
    start, stop = sorted(min(b, sum(counts)) for b in bounds)
    row_map = [(job, rep) for job in group for rep in range(job.config.replications)]
    want = [(job, rep, at) for at, (job, rep) in enumerate(row_map[start:stop])]
    segments = list(_segments(group, range(start, stop)))
    got = []
    for job, reps, at in segments:
        assert len(reps) > 0 and at.stop - at.start == len(reps)
        got += [(job, rep, at.start + i) for i, rep in enumerate(reps)]
    assert got == want
    assert len({id(job) for job, _, _ in segments}) == len(segments)


@settings(max_examples=30, deadline=None)
@given(
    which=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    units=st.integers(1, 5000),
)
def test_flushes_are_planned_by_rows(which, units):
    """Each flush that _plan makes holds whole chunks of one group, in
    order, whose rows' fixed values stay below BLOCK_UNITS, plus at most
    one chunk, the one that reaches it; only a group's last flush may stop
    short of it. Each config's replications run in order, each once."""
    kinds = [
        dict(n=60, target_pi_c=0.3, random_strata_k=12, replications=23),
        dict(n=200, target_pi_c=0.05, predicts_compliance=True, replications=31),
        dict(n=60, target_pi_c=0.5, num_strata=2, replications=17),
        dict(n=8, target_pi_c=0.3, replications=200),
    ]
    configs = [make_config(**kinds[i], seed=i) for i in which]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "BLOCK_UNITS", units)
        plan = _plan([_Job(c) for c in configs])
    per_row = {}  # by (n, width), which each group has its own of here
    for i, (jobs, width, chunks) in enumerate(plan):
        group = (jobs[0].config.n, width)
        if group not in per_row:
            per_row[group] = _row_values(jobs, width, chunks[0])
        assert all(job.config.n == group[0] for c in chunks for job, _, _ in _segments(jobs, c))
        values = [per_row[group] * len(chunk) for chunk in chunks]
        assert sum(values[:-1]) < units
        last = i + 1 == len(plan) or (plan[i + 1][0][0].config.n, plan[i + 1][1]) != group
        assert sum(values) >= units or last
    reps = [(job.config, reps) for jobs, _, chunks in plan for chunk in chunks
            for job, reps, _ in _segments(jobs, chunk)]
    for config in configs:
        mine = [r for c, r in reps if c is config]
        assert [r.start for r in mine] == [0, *(r.stop for r in mine[:-1])]
        assert mine[-1].stop == config.replications


def test_the_complier_rate_does_not_move_a_flush():
    """_plan cuts flushes by row counts alone: the n=2000 config at
    target_pi_c 0.5 flushes at the same row counts as at 0.05."""

    def rows(pi_c: float) -> list[list[int]]:
        config = make_config(n=2000, target_pi_c=pi_c, replications=800, seed=5)
        return [[len(c) for c in chunks] for _, _, chunks in _plan([_Job(config)])]

    assert rows(0.5) == rows(0.05)
    assert rows(0.5) == [[16] * 27, [16] * 23]


def test_random_strata_far_above_n_size_no_array_by_k():
    """A replication has at most n strata, so random_strata_k = 10**5 at
    n = 100 makes moments at most n strata wide: a repeated call's peak
    stays below the size of one (replications, k) float64 array."""
    config = make_config(n=100, random_strata_k=10**5, replications=20, seed=8)
    assert _Job(config).width == config.n
    assert _repeated_call_peak([config]) < config.replications * 10**5 * 8


def test_a_chunk_keeps_its_units_and_moment_values_within_block_units():
    """A chunk holds as many replications as keep both its units and its
    moment values, 13 (width + 1) per row, within BLOCK_UNITS: the moments
    bound chunks at small n, the units at large n."""
    configs = [make_config(n=8, replications=3000), make_config(n=2000, replications=100),
               make_config(n=16, random_strata_k=16, replications=3000)]
    for config in configs:
        plan = _plan([_Job(config)])
        width = plan[0][1]
        sizes = [len(chunk) for _, _, chunks in plan for chunk in chunks]
        per_row = max(config.n, 13 * (width + 1))
        assert sum(sizes) == config.replications
        assert sizes[0] == simulation.BLOCK_UNITS // per_row


def _flush_sizes(configs) -> list[list[int]]:
    """The chunk sizes, in replications, of each flush that
    run_grid(configs) runs."""
    sizes = []

    def recording(config, phases):
        sizes.append([len(summary.truth) for _, _, summary in phases])
        return flush(config, phases)

    flush = simulation._flush
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "_flush", recording)
        run_grid(configs)
    return sizes


def _tag_calls(configs) -> list[str]:
    """The tags that run_grid(configs) calls estimate_rows with, in order."""
    calls = []

    def recording(block, tag):
        calls.append(tag)
        return estimate_rows(block, tag)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "estimate_rows", recording)
        run_grid(configs)
    return calls


def test_sim_n2000_config_runs_as_one_flush_of_seven_chunks():
    """The benchmark's n=2000 config: chunks of 16 replications fill
    BLOCK_UNITS units, and all 100 replications' moment rows and complier
    summaries fit in one flush, so every kernel, ORACLE included, runs once
    per call."""
    config = ScenarioConfig(n=2000, num_strata=4, target_pi_c=0.05, predicts_compliance=True,
                            predicts_outcome=True, replications=100, seed=1)
    assert _flush_sizes([config]) == [[16] * 6 + [4]]
    assert sorted(_tag_calls([config])) == sorted(config.estimators)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sim_n500_k12_configs_run_as_one_flush_of_two_chunks(seed):
    """The benchmark's n=500 configs, 12 random strata and an r=0.25
    concentration point of 60 replications each: one group, whose 120
    replications run as chunks of 65 and 55 in one flush, so every kernel,
    ORACLE included, runs once per call."""
    configs = [
        ScenarioConfig(n=500, target_pi_c=0.05, random_strata_k=12, replications=60, seed=seed),
        ConcentrationConfig(r=0.25, n=500, replications=60, seed=seed + 100),
    ]
    assert _flush_sizes(configs) == [[65, 55]]
    assert sorted(_tag_calls(configs)) == sorted(configs[0].estimators)


def test_quick_grid_plans_several_blocks():
    """`grid --quick` runs all 7200 replications in at least 3 flushes, so
    its golden covers rows written from flush after flush, and configs
    that span flushes. Its 72 configs form one group, cut into chunks of
    65 rows, so configs share chunks; the chunk sizes of each flush are
    pinned exactly."""
    sizes = _flush_sizes(default_grid(replications=100, seed=3, n_values=(500,)))
    assert len(sizes) >= 3
    assert sum(map(sum, sizes)) == 72 * 100
    assert sizes == [[65] * 7] * 15 + [[65] * 5 + [50]]


def test_every_block_runs_on_the_calling_thread(monkeypatch):
    """A run of several flushes starts no thread at 1, 2 or 3 threads, and
    writes the same metrics bytes at each."""
    monkeypatch.setattr(simulation, "BLOCK_UNITS", 30 * 200)  # chunks of 30, each flushed alone
    config = make_config(num_strata=4, replications=300, seed=31)
    assert len(_flush_sizes([config])) >= 3

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    texts = [metrics_text(run_grid([config], threads)[0]) for threads in (1, 2, 3)]
    assert texts[1] == texts[0] and texts[2] == texts[0]


@st.composite
def small_configs(draw, pi_c=(0.05, 0.3, 0.7), target_p=(0.05, 0.3), reps=6):
    """A small config of either kind: odd n with p_treat = 3/7, random
    strata, never-taker shifts, heterogeneous effects and outcome-predictive
    strata among them, at a target_pi_c of pi_c or a target_p of target_p,
    with at most reps replications."""
    p_treat = draw(st.sampled_from([0.5, 3 / 7]))
    n = 2 * draw(st.integers(2, 30)) if p_treat == 0.5 else 7 * draw(st.integers(1, 8))
    common = dict(
        n=n,
        p_treat=p_treat,
        replications=draw(st.integers(1, reps)),
        seed=draw(st.integers(0, 2**32 - 1)),
        never_taker_shift=draw(st.sampled_from([0.0, -0.5, 1.5])),
        heterogeneous_tau=draw(st.booleans()),
        predicts_outcome=draw(st.booleans()),
    )
    try:
        if draw(st.booleans()):
            config = ScenarioConfig(
                target_pi_c=draw(st.sampled_from(pi_c)),
                predicts_compliance=draw(st.booleans()),
                num_strata=draw(st.integers(1, 5)),
                # past 12: k where numpy rejects half of the 32-bit words,
                # maps them whole, or draws 64-bit words
                random_strata_k=draw(
                    st.none() | st.integers(1, 12) | st.sampled_from([2**31 + 1, 2**32, 2**32 + 1])
                ),
                **common,
            )
        else:
            config = ConcentrationConfig(
                r=draw(st.sampled_from([0.0, 0.25, 1.0])),
                target_p=draw(st.sampled_from(target_p)),
                weights=draw(st.sampled_from([(0.35, 0.30, 0.20, 0.15), (1.0,), (0.5, 0.5)])),
                **common,
            )
    except Infeasible:
        assume(False)
    except ValueError as exc:  # an outcome pattern over one stratum is refused
        assume(not str(exc).startswith("predicts_outcome"))
        raise
    return config


@settings(max_examples=60, deadline=None)
@given(config=small_configs())
@example(config=ScenarioConfig(n=8, target_pi_c=0.3, random_strata_k=2**31 + 1, replications=6))
@example(config=ScenarioConfig(n=7, p_treat=3 / 7, random_strata_k=2**32, replications=6))
@example(config=ScenarioConfig(n=8, target_pi_c=0.3, random_strata_k=2**32 + 1, replications=6))
def test_chunks_reveal_what_the_table_path_reveals(config):
    """Each replication of a chunk has the z, d, revealed y and stratum codes
    that science_to_observed gives on generate_*_table's table of that
    replication and its assignment, and that table's cace as its truth, bit
    for bit; every such table passes ScienceTable.from_arrays."""
    generate = (
        generate_concentration_table if isinstance(config, ConcentrationConfig)
        else generate_science_table
    )
    job = _Job(config)
    ((group, width, (chunk,)),) = _plan([job])
    n, reps = config.n, config.replications
    slots = simulation._kept_buffers(reps * n).rows(reps, n)
    rows = _flush(config, [_unit_phase(group, chunk, slots, width)])
    # the flush shares no memory with the buffers, which still hold the chunk's arrays
    z, d, y, codes = slots["z"], slots["complier"].view(np.int8), slots["noise"], slots["strata"]
    for rep in range(reps):
        rng = rep_rng(config.seed, rep)
        table = generate(config, rng)
        ScienceTable.from_arrays(table.y0, table.y1, table.d0, table.d1, table.strata)
        assignment = np.zeros(n, dtype=np.int8)
        assignment[rng.permutation(n)[: job.n1]] = 1
        sample = science_to_observed(table, assignment)
        for got, want in ((z, sample.z), (d, sample.d), (y, sample.y), (codes, sample.strata)):
            assert got.dtype == want.dtype and got[rep].tobytes() == want.tobytes(), rep
        if table.is_complier.any():
            assert rows.truth[rep].tobytes() == np.float64(table.cace).tobytes(), rep
        else:
            assert np.isnan(rows.truth[rep]), rep


def _same_bits(a, b) -> bool:
    """Equal float64 bits, or both nan."""
    a, b = np.float64(a), np.float64(b)
    return a.tobytes() == b.tobytes() or (np.isnan(a) and np.isnan(b))


@settings(max_examples=60, deadline=None)
@given(
    config=small_configs(pi_c=(0.05, 0.2, 0.5), target_p=(0.05, 0.2, 0.5), reps=12),
    cuts=st.lists(st.integers(1, 11), max_size=4),
)
def test_complier_summary_does_not_depend_on_how_rows_are_split(config, cuts):
    """The ComplierSummary of a block of replications, each row a table of
    generate_*_table revealed under its assignment, equals bit for bit the
    concatenated summaries of the rows split into chunks at `cuts`, the
    summary of the engine's unit phase, and per-sample 1-D numpy: np.mean
    and np.var(ddof=1) of each arm's complier y, np.mean of y1 - y0, and
    np.unique of the complier codes. A reduction padded or stacked across
    rows sums some row in another order and fails it."""
    generate = (
        generate_concentration_table if isinstance(config, ConcentrationConfig)
        else generate_science_table
    )
    job = _Job(config)
    n, reps, width = config.n, config.replications, job.width
    z, y, codes, compliers, effect = ([] for _ in range(5))
    for rep in range(reps):
        rng = rep_rng(config.seed, rep)
        table = generate(config, rng)
        assignment = np.zeros(n, dtype=np.int8)
        assignment[rng.permutation(n)[: job.n1]] = 1
        sample = science_to_observed(table, assignment)
        for rows, a in zip((z, y, codes, compliers, effect), (
            sample.z, sample.y, sample.strata, table.is_complier, table.y1 - table.y0,
        )):
            rows.append(a)
    z, y, codes, compliers, effect = map(np.stack, (z, y, codes, compliers, effect))

    def summary(a: int, b: int) -> ComplierSummary:
        at = np.flatnonzero(compliers[a:b])
        return complier_summary(at, z[a:b], y[a:b], codes[a:b], width, effect[a:b].take(at))

    whole = summary(0, reps)
    bounds = [0, *sorted({c for c in cuts if c < reps}), reps]
    parts = [summary(a, b) for a, b in zip(bounds, bounds[1:])]
    ((group, _, (chunk,)),) = _plan([job])
    slots = simulation._kept_buffers(reps * n).rows(reps, n)
    engine = _unit_phase(group, chunk, slots, width)[2]
    for f in fields(ComplierSummary):
        want = getattr(whole, f.name)
        split = np.concatenate([getattr(part, f.name) for part in parts])
        for got in (split, getattr(engine, f.name)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
    for i in range(reps):
        for arm, (count, mean, var) in (
            (1, (whole.n1, whole.ybar1, whole.s2_y1)), (0, (whole.n0, whole.ybar0, whole.s2_y0)),
        ):
            ys = y[i][compliers[i] & (z[i] == arm)]
            assert count[i] == len(ys), (i, arm)
            assert _same_bits(mean[i], np.mean(ys) if len(ys) else np.nan), (i, arm)
            assert _same_bits(var[i], np.var(ys, ddof=1) if len(ys) >= 2 else np.nan), (i, arm)
        effects = effect[i][compliers[i]]
        assert _same_bits(whole.truth[i], np.mean(effects) if len(effects) else np.nan), i
        assert np.array_equal(np.flatnonzero(whole.strata[i]), np.unique(codes[i][compliers[i]]))


@settings(max_examples=40, deadline=None)
@given(config=small_configs(), units=st.integers(1, 3000))
@example(config=ScenarioConfig(n=40, target_pi_c=0.3, random_strata_k=12, replications=6, seed=3),
         units=600)
def test_flush_rows_present_exactly_the_strata_they_drew(config, units):
    """Each flush row's present strata, the codes whose cells hold units,
    number what first_appearance counts on that replication's drawn
    labels, and no code padded past that count, up to the group's width,
    is present."""
    blocks = []

    def recording(block, tag):
        if not blocks or blocks[-1] is not block:
            blocks.append(block)
        return estimate_rows(block, tag)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "BLOCK_UNITS", units)
        mp.setattr(simulation, "estimate_rows", recording)
        run_grid([config])
    present = np.concatenate([block.present for block in blocks])
    generate = (
        generate_concentration_table if isinstance(config, ConcentrationConfig)
        else generate_science_table
    )
    labels = []
    for rep in range(config.replications):
        table = generate(config, rep_rng(config.seed, rep))
        labels.append(np.array(table.stratum_labels)[table.strata])
    _, counts, _ = first_appearance(np.stack(labels))
    assert present.shape == (config.replications, _Job(config).width)
    assert np.array_equal(present.sum(axis=1), counts)
    assert np.array_equal(present, np.arange(present.shape[1]) < counts[:, None])
