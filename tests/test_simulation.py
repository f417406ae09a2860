import io
import math

import numpy as np
import pytest

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
from helpers import stratified_table


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
