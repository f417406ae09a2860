import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ivstrat import (
    ConcentrationConfig,
    InfeasibleCompliance,
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
from ivstrat import simulation
from ivstrat.simulation import _Job, _draw_block, _philox_keys, _plan
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


@pytest.mark.parametrize("field, value", _COUNTS)
def test_concentration_config_refuses_a_count_not_an_integer(field, value):
    kw = dict(n=40, replications=2)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ConcentrationConfig(**kw)


def test_concentration_infeasible_target():
    # all compliers would have to sit in the last stratum at rate > 1
    with pytest.raises(InfeasibleCompliance):
        ConcentrationConfig(r=0.0, target_p=0.5, n=200, replications=10, seed=1)


def test_base_rate_boundaries():
    flat = ConcentrationConfig(r=1.0, target_p=0.15, n=200, replications=1, seed=0)
    assert flat.base_rate == pytest.approx(0.15, rel=1e-12)
    point = ConcentrationConfig(r=0.0, target_p=0.15, n=200, replications=1, seed=0)
    assert point.base_rate == 1.0  # 0.15 / 0.15, exactly


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
    cfg = make_config(target_pi_c=0.5, predicts_compliance=True)
    with pytest.raises(InfeasibleCompliance):
        generate_science_table(cfg, np.random.default_rng(0))


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
}


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


@pytest.mark.parametrize("n", [4, 7, 500])
@pytest.mark.parametrize("kind", sorted(DRAW_CONFIGS))
def test_block_draws_equal_numpy_calls(kind, n, monkeypatch):
    """Each replication's rows equal numpy's one-call draws on its
    substream, and leave the block's generator in the state they leave
    that substream's generator."""
    config = DRAW_CONFIGS[kind](n=n, p_treat=3 / 7 if n == 7 else 0.5, replications=4, seed=31)
    numpy_philox = np.random.Philox
    made, states = [], []  # the block's generators; their states before each reset

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
            numpy_philox.state.__set__(self, value)

    monkeypatch.setattr(np.random, "Philox", Philox)
    job = _Job(config)
    (block,) = _plan([job])
    draws, z = _draw_block(block)
    monkeypatch.undo()
    (bit_generator,) = made
    # each replication's state after its draws: the one its successor's
    # reset replaced, and for the last, the one the block left
    ends = states[1:] + [bit_generator.state]
    assert len(ends) == config.replications

    def plain(state: dict) -> str:
        return json.dumps(state, default=np.ndarray.tolist, sort_keys=True)

    sd, g = job.design.noise_sd, config.num_strata
    for rep, end in enumerate(ends):
        ref = rep_rng(config.seed, rep)
        if isinstance(config, ConcentrationConfig):
            strata = ref.choice(g, size=n, p=config.weights)
        else:
            strata = ref.integers(0, g, size=n)
        assert np.array_equal(draws["strata"][rep], strata)
        assert np.array_equal(draws["u"][rep], ref.random(n))
        # _assemble scales the standard normals by noise_sd
        assert np.array_equal(draws["noise"][rep] * sd, ref.normal(0.0, sd, n))
        if "labels" in draws:
            assert np.array_equal(draws["labels"][rep], ref.integers(0, 3, size=n))
        treated = np.zeros(n, dtype=np.int8)
        treated[ref.permutation(n)[: job.n1]] = 1
        assert np.array_equal(z[rep], treated)
        assert plain(end) == plain(ref.bit_generator.state)


def test_run_grid_frees_each_config_slots_after_its_last_block(monkeypatch):
    # blocks of 100 replications, so that the slots set the peak; all 20
    # configs' slots kept to the end would about quadruple it
    monkeypatch.setattr(simulation, "BLOCK_UNITS", 100 * 60)

    def peak(count: int) -> int:
        configs = [make_config(n=60, replications=300, seed=s) for s in range(count)]
        tracemalloc.start()
        try:
            run_grid(configs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # leave out allocations made only on a first call
    assert peak(20) < 1.5 * peak(2)
