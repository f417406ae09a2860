"""Headline guarantees, one test per claim.

Each test here pins one end-to-end property of the package at a stated
tolerance: algebraic identities between estimator forms, exact
finite-population oracles against exhaustive enumeration, Monte Carlo
agreement with the analytic bias/variance formulas, the qualitative
orderings the stratified estimators are supposed to deliver, frozen
report bytes for the bundled datasets, and bytewise simulation
determinism. Run with -v to get one pass/fail line per claim.

Seeds and replication counts were fixed before the assertions were
written; tolerances come from the corresponding analytic error bounds,
not from observed margins.
"""

import csv
import math
import pathlib
import time

import numpy as np
import pytest

from ivstrat import (
    ConcentrationConfig,
    DatasetSchema,
    ObservedSample,
    ScenarioConfig,
    analyze,
    bias_one_sided_exact,
    bias_one_sided_taylor,
    asyvar_iv_ps,
    cli_main,
    enumerate_expectation,
    itt_hat,
    iv_across,
    iv_unstratified,
    iv_within,
    load_csv,
    moments,
    run_concentration,
    run_scenario,
    science_to_observed,
    stratum_report,
    tsls_weighted,
)
from ivstrat.io_cli import report_csv, stratum_csv
from helpers import one_sided_table, random_sample, stratified_table

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_01_weighted_and_across_forms_agree():
    """Complier-weighted averaging, the post-stratified ratio, and
    weighted two-stage least squares give one number whenever no stratum
    has zero estimated uptake (1000 random samples, rel tol 1e-10/1e-9)."""
    start = time.time()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        sample = random_sample(rng, require_nonzero_f=True)
        w = iv_within(sample).estimate
        a = iv_across(sample).estimate
        t = tsls_weighted(sample)
        assert abs(w - a) <= 1e-10 * (1.0 + abs(a))
        assert abs(t - a) <= 1e-9 * (1.0 + abs(a))
    assert time.time() - start < 10.0


def test_02_single_stratum_and_perfect_uptake_collapse_exactly():
    """One stratum makes the stratified estimators bitwise equal to the
    unstratified one (estimates and both standard errors); full uptake
    makes the delta and Bloom standard errors bitwise equal and the
    estimate equal to the intention-to-treat difference."""
    rng = np.random.default_rng(22)
    for _ in range(10):
        sample = random_sample(rng, g_range=(1, 1))
        u = iv_unstratified(sample)
        for fn in (iv_within, iv_across):
            r = fn(sample)
            assert r.estimate == u.estimate
            assert r.se_bloom == u.se_bloom
            assert r.se_delta == u.se_delta

    for _ in range(10):
        base = random_sample(rng)
        full = ObservedSample.from_arrays(
            z=base.z, d=base.z, y=base.y, strata=[
                base.stratum_labels[g] for g in base.strata
            ]
        )
        r = iv_unstratified(full)
        assert r.se_delta == r.se_bloom
        assert r.estimate == itt_hat(full)


def test_03_exact_bias_oracle_and_its_sign():
    """On 20 eight-unit tables with half treated, exhaustive enumeration
    over all 70 assignments (conditioned on nonzero uptake) matches the
    closed-form bias to 1e-12, and a negative control-mean gap between
    compliers and never-takers always produces positive bias."""
    start = time.time()
    checked = 0
    for n_c in (3, 4, 5, 6, 7):
        for delta in (-0.5, -1.0, -2.0, -3.0):
            table = one_sided_table(n=8, n_c=n_c, delta=delta)
            enum = enumerate_expectation(table, 0.5, "UNSTRAT", convention="condition")
            formula = bias_one_sided_exact(table, 0.5, convention="condition")
            observed = enum.mean - table.cace
            assert abs(observed - formula) <= 1e-12 * (1.0 + abs(formula))
            assert formula > 0.0
            checked += 1
    assert checked == 20
    assert time.time() - start < 5.0


def _mc_bias_unstratified(tables, p, draws, seed, chunk=25000):
    """Bias of the unstratified ratio, with its Monte Carlo SE, for each of
    `tables` (all of one size) over the same `draws` simulated complete
    randomizations, with the undefined zero-uptake draws discarded. Each
    chunk's assignments are drawn once and scored on every table."""
    rng = np.random.Generator(np.random.Philox(seed))
    n, n1 = tables[0].n, round(p * tables[0].n)
    cols = [(t.y1, t.y0, t.d1.astype(np.float64), t.y0.sum()) for t in tables]
    acc = [[0.0, 0.0, 0] for _ in tables]  # total, total_sq, kept
    left = draws
    while left:
        m = min(chunk, left)
        left -= m
        u = rng.random((m, n))
        idx = np.argpartition(u, n1 - 1, axis=1)[:, :n1]
        for (y1, y0, d1, total_y0), a in zip(cols, acc):
            k = d1[idx].sum(axis=1)
            s1 = y1[idx].sum(axis=1)
            s0 = total_y0 - y0[idx].sum(axis=1)
            ok = k > 0
            iv = (s1[ok] / n1 - s0[ok] / (n - n1)) / (k[ok] / n1)
            a[0] += iv.sum()
            a[1] += (iv * iv).sum()
            a[2] += int(ok.sum())
    out = []
    for table, (total, total_sq, kept) in zip(tables, acc):
        mean = total / kept
        out.append((mean - table.cace, math.sqrt((total_sq / kept - mean * mean) / kept)))
    return out


def test_04_taylor_bias_tracks_million_draw_monte_carlo():
    """At 200 units, half treated, uptake 10% or 20%, control-mean gap
    of either sign: the series approximation of the one-sided bias is
    within 25% of the Monte Carlo bias over one million assignment
    draws, and the exact formula sits inside the Monte Carlo noise."""
    start = time.time()
    tables = [
        one_sided_table(n=200, n_c=round(200 * pi_c), delta=delta)
        for pi_c, delta in ((0.1, 1.0), (0.1, -1.0), (0.2, 1.0), (0.2, -1.0))
    ]
    mc_runs = _mc_bias_unstratified(tables, 0.5, 1_000_000, seed=4001)
    for table, (mc, se_mc) in zip(tables, mc_runs):
        taylor = bias_one_sided_taylor(moments(table, 0.5))
        exact = bias_one_sided_exact(table, 0.5, convention="condition")
        assert abs(taylor - mc) <= 0.25 * abs(mc)
        assert abs(exact - mc) <= 6.0 * se_mc
    assert time.time() - start < 60.0


def test_05_post_stratified_variance_formula_tracks_randomization():
    """For a fixed 2000-unit four-stratum table with 10% compliers, the
    variance of the post-stratified ratio over 5000 complete
    randomizations is within 10% of the analytic first-order value."""
    start = time.time()
    table = stratified_table(np.random.default_rng(20240501))
    target = asyvar_iv_ps(moments(table, 0.5))
    rng = np.random.Generator(np.random.Philox(5001))
    estimates = np.empty(5000)
    half = table.n // 2
    for i in range(estimates.size):
        z = np.zeros(table.n, dtype=np.int8)
        z[rng.permutation(table.n)[:half]] = 1
        estimates[i] = iv_across(science_to_observed(table, z)).estimate
    ratio = estimates.var(ddof=1) / target
    assert 0.90 <= ratio <= 1.10
    assert time.time() - start < 120.0


def test_06_standard_errors_are_calibrated_under_predictive_strata():
    """With outcome-predictive strata at 2000 units and 2500
    replications, the Bloom calibration ratio lands in [0.90, 1.10] and
    the delta ratio in [0.90, 1.20] for every ratio estimator."""
    cfg = ScenarioConfig(
        n=2000,
        target_pi_c=0.10,
        predicts_outcome=True,
        replications=2500,
        seed=601,
    )
    by = {r.estimator: r for r in run_scenario(cfg, threads=4).rows}
    for tag in ("UNSTRAT", "IV_W", "IV_A", "DSS", "DSF"):
        assert 0.90 <= by[tag].cal_bloom <= 1.10, (tag, by[tag].cal_bloom)
        assert 0.90 <= by[tag].cal_delta <= 1.20, (tag, by[tag].cal_delta)
    assert 0.90 <= by["PWIV"].cal_bloom <= 1.10


def test_07_dropping_dead_strata_pays_at_low_compliance():
    """Across an eight-cell grid (500/2000 units, 5%/10% compliers,
    outcome-predictive strata on/off, compliance-predictive strata on,
    2000 replications per cell): the zero-uptake-dropping weighted form
    never loses to the keep-everything form on RMSE, wins by at least 5%
    in the small low-compliance cells, and cuts variance below the
    unstratified estimator whenever strata predict the outcome."""
    cells = {}
    for i, (n, pi_c, p_y) in enumerate(
        (n, pi_c, p_y)
        for n in (500, 2000)
        for pi_c in (0.05, 0.10)
        for p_y in (False, True)
    ):
        cfg = ScenarioConfig(
            n=n,
            target_pi_c=pi_c,
            predicts_compliance=True,
            predicts_outcome=p_y,
            replications=2000,
            seed=701 + i,
            estimators=("UNSTRAT", "IV_W", "IV_A"),
        )
        cells[(n, pi_c, p_y)] = {
            r.estimator: r for r in run_scenario(cfg, threads=4).rows
        }
    ratios = [by["IV_W"].rmse / by["IV_A"].rmse for by in cells.values()]
    assert np.mean(ratios) <= 1.00
    low = [
        cells[(500, 0.05, p_y)]["IV_W"].rmse / cells[(500, 0.05, p_y)]["IV_A"].rmse
        for p_y in (False, True)
    ]
    assert np.mean(low) <= 0.95
    for (n, pi_c, p_y), by in cells.items():
        if p_y:
            assert (by["IV_W"].true_se / by["UNSTRAT"].true_se) ** 2 < 1.0


def test_08_concentrated_compliance_recovers_the_oracle():
    """Sweeping how concentrated compliance is across strata (overall
    rate 15%, 2000 units, 2000 replications per point): when compliance
    is concentrated enough, true SEs order as oracle <= F-screened <=
    weighted <= keep-everything (2% Monte Carlo slack), and at full
    concentration the screening and weighting estimators come within 5%
    of the oracle's SE."""
    sweep = {}
    for j, r in enumerate((0.0, 0.25)):
        cfg = ConcentrationConfig(
            r=r,
            target_p=0.15,
            n=2000,
            replications=2000,
            seed=801 + j,
            estimators=("UNSTRAT", "IV_W", "IV_A", "DSS", "DSF", "PWIV", "ORACLE"),
        )
        sweep[r] = {x.estimator: x for x in run_concentration(cfg, threads=4).rows}
    slack = 1.02
    for r, by in sweep.items():
        o, f, w, a = (
            by["ORACLE"].true_se,
            by["DSF"].true_se,
            by["IV_W"].true_se,
            by["IV_A"].true_se,
        )
        assert o <= f * slack and f <= w * slack and w <= a * slack, (r, o, f, w, a)
    at_zero = sweep[0.0]
    for tag in ("IV_W", "DSS", "DSF", "PWIV"):
        assert abs(at_zero[tag].true_se / at_zero["ORACLE"].true_se - 1.0) <= 0.05


def test_09_uninformative_strata_still_reduce_rmse():
    """Stratifying 500 units with 5% compliers on pure-noise groupings
    (6 or 12 of them, 2000 replications): dropping the groups that
    happen to show no uptake still lowers RMSE below the unstratified
    estimator, even though the dropping introduces bias."""
    for j, k in enumerate((6, 12)):
        cfg = ScenarioConfig(
            n=500,
            target_pi_c=0.05,
            random_strata_k=k,
            replications=2000,
            seed=901 + j,
            estimators=("UNSTRAT", "IV_W"),
        )
        by = {r.estimator: r for r in run_scenario(cfg, threads=4).rows}
        assert by["IV_W"].rmse < by["UNSTRAT"].rmse, (k, by["IV_W"].rmse)


def test_10_bundled_dataset_reports_match_frozen_bytes():
    """The full pipeline (parse, stratify, estimate, format) reproduces
    the frozen report and stratum tables for both bundled datasets, and
    the 2% uptake screen drops exactly the near-dead stratum."""
    schema = DatasetSchema.from_json_file(str(GOLDEN / "gotv_like_schema.json"))
    gotv = load_csv(str(GOLDEN / "gotv_like.csv"), schema)
    assert report_csv(analyze(gotv)) == (GOLDEN / "gotv_like_report.csv").read_text()

    spotlight = load_csv(str(GOLDEN / "spotlight_like.csv"), DatasetSchema())
    table = analyze(spotlight)
    assert report_csv(table) == (GOLDEN / "spotlight_like_report.csv").read_text()
    assert stratum_csv(stratum_report(spotlight)) == (
        GOLDEN / "spotlight_like_strata.csv"
    ).read_text()
    by = {r.method: r for r in table.rows}
    assert by["IV_W"].n == 1000 and by["DSS"].n == 750


def test_11_simulation_output_is_byte_deterministic(tmp_path):
    """The simulate subcommand writes byte-identical metrics for the
    same config and seed, at any thread count."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"n": 200, "target_pi_c": 0.2, "replications": 40, "seed": 17}'
    )
    outs = []
    for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "3")):
        out = tmp_path / name
        code = cli_main(
            ["simulate", "--config", str(cfg), "--out", str(out), "--threads", threads]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
