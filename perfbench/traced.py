"""Traced runs: per-layer numbers from spans that the benchmark places
around calls into the public functions of each ivstrat module.

Span names are `<module>.<function>`, so a span's layer is the first
dotted part: simulation, data_model, estimators, variance, theory, io_cli.
Each workload's traced run redoes the workload's work by calling those
functions in the order the program calls them, and checks that the traced
work reproduces the untraced result exactly, so the trace describes the
same tables and samples:

  sims        the replication loop of the engine, one Philox substream per
              (seed, rep): generate, assignment draw, science_to_observed,
              stratum_moments, estimate per tag, oracle_complier_dim.
              Checked: UNSTRAT bias and true_se, and every estimator's
              fail_rate and drop_rate, equal the untraced run's. The
              theory oracles (moments, exact UNSTRAT bias) run on the
              first table of each config.
  analyze     load_csv, validate, stratum_moments, analyze, stratum_report,
              report_csv / stratum_csv. Checked: the report text equals the
              untraced run's.
  enum_exact  the generic enumeration loop per assignment:
              science_to_observed, stratum_moments, estimate. Checked: mean,
              variance and undefined mass equal enumerate_expectation's.

Some functions run inside another public call and cannot be timed from
outside it (the standard errors inside each estimator, the estimators
inside analyze). They are timed by standalone calls marked extra, which
layer self time and the tracing overhead leave out.

Counts (fail_frac, drop_rate, undefined_mass, num_strata) come from the
first block of work only, which the seed alone fixes, so they repeat
exactly; timings average over every block the run had time for.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import math
import time

import numpy as np

from common import IMPORT_PROBE, parse_importtime, repeat, run_python
from workloads import ANALYZE_ROWS, GENERIC_TAGS, P_TREAT, Analyze, EnumExact, SimWorkload

LAYERS = ("simulation", "data_model", "estimators", "variance", "theory", "io_cli")
TAGS = ("UNSTRAT", "IV_W", "IV_A", "DSS", "DSF", "PWIV", "TSLS_DUMMY", "ORACLE")
SE_FNS = ("se_bloom_unstrat", "se_delta_unstrat", "se_bloom_ps", "se_delta_ps", "se_pwiv")


def _variance_probes(tracer, sample) -> None:
    """Each standard error on its own (inside estimate they cannot be timed)."""
    import ivstrat.variance as variance
    from ivstrat.data_model import EstimationError

    for name in SE_FNS:
        fn = getattr(variance, name, None)
        if fn is None:  # removed from the package: its metric reads 0
            continue
        try:
            tracer.call(f"variance.{name}", fn, sample, extra=True)
        except EstimationError:
            pass


def _per_call_ms(tracer, metrics: dict, prefix: str, names) -> None:
    for name in names:
        metrics[f"{prefix}{name}_ms"] = tracer.mean_s(f"{prefix}{name}") * 1e3


def _finish(tracer, metrics: dict, traced_s: float, untraced_s: float) -> dict:
    selfs = tracer.layer_self_s()
    total = sum(selfs.values())
    for layer in LAYERS:
        metrics[f"self.{layer}_share"] = selfs.get(layer, 0.0) / total if total else 0.0
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return metrics


def import_metrics(stderr_runs: list[str]) -> dict:
    """io_cli.import_s and the scipy.stats part of it, medians over
    `-X importtime` runs of a fresh interpreter."""
    pkg, scipy_stats = [], []
    for stderr in stderr_runs:
        cum = parse_importtime(stderr)
        pkg.append(max(v for k, v in cum.items() if k == "ivstrat" or k.startswith("ivstrat.")))
        scipy_stats.append(cum.get("scipy.stats", 0.0))
    return {
        "io_cli.import_s": float(np.median(pkg)),
        "io_cli.import_scipy_stats_s": float(np.median(scipy_stats)),
    }


def importtime_run() -> str:
    _, proc = run_python(["-X", "importtime", *IMPORT_PROBE])
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed: {proc.stderr.decode()[-500:]}")
    return proc.stderr.decode()


# --------------------------------------------------------------------------
# simulate


@dataclasses.dataclass
class _Store:
    """The engine's per-replication slots, filled by the traced loop."""

    est: dict
    dropped: dict
    truth: np.ndarray
    strata: list
    table: object = None  # the first replication's science table


def _config_object(obj: dict):
    from ivstrat.simulation import ConcentrationConfig, ScenarioConfig

    return ConcentrationConfig(**obj) if "r" in obj else ScenarioConfig(**obj)


def _replicate(tracer, cfg) -> _Store:
    """The engine's replication loop, one span per public call."""
    from ivstrat.data_model import COMPLIER, EstimationError, science_to_observed, stratum_moments
    from ivstrat.estimators import EstimatorConfig, estimate, oracle_complier_dim
    from ivstrat.simulation import (
        ConcentrationConfig,
        generate_concentration_table,
        generate_random_strata,
        generate_science_table,
    )

    tags, reps, n = cfg.estimators, cfg.replications, cfg.n
    n1 = round(cfg.p_treat * n)
    est_config = EstimatorConfig()
    k = None if isinstance(cfg, ConcentrationConfig) else cfg.random_strata_k
    base_cfg = dataclasses.replace(cfg, random_strata_k=None) if k is not None else cfg
    store = _Store(
        est={t: np.full(reps, np.nan) for t in tags},
        dropped={t: np.zeros(reps, dtype=bool) for t in tags},
        truth=np.full(reps, np.nan),
        strata=[],
    )
    for rep in range(reps):
        ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(rep,))
        rng = np.random.Generator(np.random.Philox(ss))
        if isinstance(cfg, ConcentrationConfig):
            table = tracer.call(
                "simulation.generate_concentration_table", generate_concentration_table, cfg, rng
            )
        else:
            table = tracer.call(
                "simulation.generate_science_table", generate_science_table, base_cfg, rng
            )
            if k is not None:
                table = tracer.call(
                    "simulation.generate_random_strata", generate_random_strata, table, k, rng
                )
        with tracer.span("simulation.draw_assignment"):
            z = np.zeros(n, dtype=np.int8)
            z[rng.permutation(n)[:n1]] = 1
        sample = tracer.call("data_model.science_to_observed", science_to_observed, table, z)
        if store.table is None:
            store.table = table
        if not np.any(table.compliance_type == COMPLIER):
            continue
        store.truth[rep] = table.cace
        store.strata.append(sample.num_strata)
        tracer.call("data_model.stratum_moments", stratum_moments, sample)
        for tag in tags:
            try:
                with tracer.span(f"estimators.{tag}"):
                    if tag == "ORACLE":
                        report = oracle_complier_dim(table, z)
                    else:
                        report = estimate(sample, tag, est_config)
            except EstimationError:
                continue
            if not math.isfinite(report.estimate):
                continue
            store.est[tag][rep] = report.estimate
            store.dropped[tag][rep] = len(report.strata_kept) < sample.num_strata
        _variance_probes(tracer, sample)
    return store


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _compare(wl, block: int, store: _Store, metrics) -> bool:
    """The traced loop against the untraced ScenarioMetrics, exactly."""
    reps = len(store.truth)
    rows = {r.estimator: r for r in metrics.rows}
    e = store.est["UNSTRAT"]
    ok = np.isfinite(e)
    bias = float(np.mean(e[ok] - store.truth[ok])) if ok.any() else math.nan
    true_se = float(np.std(e[ok], ddof=1)) if ok.sum() > 1 else math.nan
    good = True
    if not (_same(bias, rows["UNSTRAT"].bias) and _same(true_se, rows["UNSTRAT"].true_se)):
        row = rows["UNSTRAT"]
        wl.fail(
            f"trace block {block} {metrics.scenario_id}: UNSTRAT bias/true_se "
            f"{bias!r}/{true_se!r} != untraced {row.bias!r}/{row.true_se!r}"
        )
        good = False
    for tag, est in store.est.items():
        ok = np.isfinite(est)
        fail_rate = 1.0 - int(ok.sum()) / reps
        drop_rate = float(np.mean(store.dropped[tag][ok])) if ok.any() else math.nan
        if not (_same(fail_rate, rows[tag].fail_rate) and _same(drop_rate, rows[tag].drop_rate)):
            wl.fail(
                f"trace block {block} {metrics.scenario_id}: {tag} fail/drop "
                f"{fail_rate!r}/{drop_rate!r} != untraced "
                f"{rows[tag].fail_rate!r}/{rows[tag].drop_rate!r}"
            )
            good = False
    return good


def _theory_oracles(tracer, table, p: float) -> None:
    """The population moments and exact UNSTRAT bias of one simulated
    table: the oracles the Monte Carlo bias is checked against."""
    from ivstrat.data_model import EstimationError
    from ivstrat.theory import bias_one_sided_exact, moments

    try:
        tracer.call("theory.moments", moments, table, p)
        tracer.call(
            "theory.bias_one_sided_exact", bias_one_sided_exact, table, p, convention="condition"
        )
    except EstimationError:  # e.g. a table without compliers
        pass


def trace_sim(wl: SimWorkload, tracer, seconds: float) -> tuple[dict, int, int]:
    from ivstrat.io_cli import write_metrics_csv
    from ivstrat.simulation import ConcentrationConfig, run_concentration, run_scenario

    def run_all(configs, threads):
        t0 = time.perf_counter()
        out = [
            (run_concentration if isinstance(c, ConcentrationConfig) else run_scenario)(
                c, threads=threads
            )
            for c in configs
        ]
        return out, time.perf_counter() - t0

    def block(i: int):
        tracer.run_id = f"block{i}"
        configs = [_config_object(c) for c in wl.configs(i)]
        metrics, primary_s = run_all(configs, wl.threads[0])
        serial_s = primary_s
        if wl.threads[0] != 1:
            _, serial_s = run_all(configs, 1)
        with tracer.span("io_cli.write_metrics_csv"):
            write_metrics_csv(metrics, io.StringIO())
        stores, good, traced_s = [], 0, 0.0
        for cfg, m in zip(configs, metrics):
            t0 = time.perf_counter()
            with tracer.span("simulation.run"):
                store = _replicate(tracer, cfg)
            traced_s += time.perf_counter() - t0
            _theory_oracles(tracer, store.table, cfg.p_treat)
            stores.append(store)
            good += _compare(wl, i, store, m)
        return stores, good, primary_s, serial_s, traced_s

    done = repeat(seconds, block)
    attempted = sum(len(b[0]) for b in done)
    failed = attempted - sum(b[1] for b in done)
    total_reps = sum(len(s.truth) for b in done for s in b[0])
    out: dict = {}
    gen = sum(
        tracer.total_s(f"simulation.generate_{what}")
        for what in ("science_table", "random_strata", "concentration_table")
    )
    out["simulation.generate_ms"] = gen / total_reps * 1e3
    out["simulation.draw_ms"] = tracer.total_s("simulation.draw_assignment") / total_reps * 1e3
    engine = gen + sum(
        tracer.total_s(name)
        for name in (
            "simulation.draw_assignment",
            "data_model.science_to_observed",
            "data_model.stratum_moments",
            *(f"estimators.{t}" for t in TAGS),
        )
    )
    primary_s = sum(b[2] for b in done)
    out["simulation.driver_ms"] = (primary_s - engine) / total_reps * 1e3
    _per_call_ms(tracer, out, "data_model.", ("science_to_observed", "stratum_moments"))
    _per_call_ms(tracer, out, "estimators.", TAGS)
    _per_call_ms(tracer, out, "variance.", SE_FNS)
    out["io_cli.write_metrics_csv_ms"] = tracer.mean_s("io_cli.write_metrics_csv") * 1e3
    out["theory.moments_ms"] = tracer.mean_s("theory.moments") * 1e3
    out["theory.bias_one_sided_exact_ms"] = tracer.mean_s("theory.bias_one_sided_exact") * 1e3
    first = done[0][0]
    out["data_model.num_strata"] = float(np.mean([g for s in first for g in s.strata]))
    for tag in TAGS:
        reps = sum(len(s.truth) for s in first)
        ok = sum(int(np.isfinite(s.est[tag]).sum()) for s in first)
        dropped = sum(int(s.dropped[tag][np.isfinite(s.est[tag])].sum()) for s in first)
        out[f"estimators.{tag}.fail_frac"] = 1.0 - ok / reps
        out[f"estimators.{tag}.drop_rate"] = dropped / ok if ok else 0.0
    traced_s = sum(b[4] for b in done) - tracer.extra_top_s()
    serial_s = sum(b[3] for b in done)
    return _finish(tracer, out, traced_s, serial_s), attempted, failed


# --------------------------------------------------------------------------
# analyze


def trace_analyze(wl: Analyze, tracer, seconds: float) -> tuple[dict, int, int]:
    from ivstrat.data_model import EstimationError, stratum_moments, validate
    from ivstrat.estimators import estimate
    from ivstrat.io_cli import (
        DEFAULT_REPORT_ESTIMATORS,
        analyze,
        load_csv,
        report_csv,
        stratum_csv,
        stratum_report,
    )

    counts: dict[str, float] = {}

    def block(i: int):
        tracer.run_id = f"block{i}"
        t0 = time.perf_counter()
        untraced_text, _, _ = wl.analyze_once()
        untraced_s = time.perf_counter() - t0
        schema = wl.schema()
        t0 = time.perf_counter()
        raw = tracer.call("io_cli.load_csv", load_csv, str(wl.csv), schema)
        sample = tracer.call("data_model.validate", validate, raw)
        tracer.call("data_model.stratum_moments", stratum_moments, sample)
        table = tracer.call("io_cli.analyze", analyze, sample, se="both")
        rows = tracer.call("io_cli.stratum_report", stratum_report, sample)
        with tracer.span("io_cli.report_csv"):
            text = report_csv(table) + "\n" + stratum_csv(rows)
        traced_s = time.perf_counter() - t0
        for tag in DEFAULT_REPORT_ESTIMATORS:
            try:
                rep = tracer.call(f"estimators.{tag}", estimate, sample, tag, extra=True)
                failed, dropped = 0.0, float(len(rep.strata_kept) < sample.num_strata)
            except EstimationError:
                failed, dropped = 1.0, 0.0
            counts.setdefault(f"estimators.{tag}.fail_frac", failed)
            counts.setdefault(f"estimators.{tag}.drop_rate", dropped)
        _variance_probes(tracer, sample)
        good = wl.check_report(i, text, sample, table)
        if text != untraced_text:
            wl.fail(f"trace block {i}: traced report text differs from the untraced one")
            good = False
        return good, traced_s, untraced_s, sample.num_strata

    done = repeat(seconds, block)
    out: dict = dict(counts)
    load_s = tracer.mean_s("io_cli.load_csv")
    out["io_cli.load_csv_s"] = load_s
    out["io_cli.load_csv_us_per_row"] = load_s / ANALYZE_ROWS * 1e6
    out["io_cli.analyze_call_s"] = tracer.mean_s("io_cli.analyze")
    out["io_cli.stratum_report_ms"] = tracer.mean_s("io_cli.stratum_report") * 1e3
    out["io_cli.report_csv_ms"] = tracer.mean_s("io_cli.report_csv") * 1e3
    _per_call_ms(tracer, out, "data_model.", ("validate", "stratum_moments"))
    _per_call_ms(tracer, out, "estimators.", DEFAULT_REPORT_ESTIMATORS)
    _per_call_ms(tracer, out, "variance.", SE_FNS)
    out["data_model.num_strata"] = float(done[0][3])
    traced_s = sum(b[1] for b in done)
    untraced_s = sum(b[2] for b in done)
    attempted = len(done)
    failed = sum(1 for b in done if not b[0])
    return _finish(tracer, out, traced_s, untraced_s), attempted, failed


# --------------------------------------------------------------------------
# enumeration


def _enumerate_traced(tracer, table, tag: str):
    """The generic enumerate_expectation loop, spans per public call.
    Returns (mean, variance, undefined mass, dropped share of defined)."""
    from ivstrat.data_model import EstimationError, science_to_observed, stratum_moments
    from ivstrat.estimators import EstimatorConfig, estimate

    config = EstimatorConfig()
    n = table.n
    n1 = round(P_TREAT * n)
    total = math.comb(n, n1)
    values = np.empty(total)
    dropped = 0
    for i, treated in enumerate(itertools.combinations(range(n), n1)):
        z = np.zeros(n, dtype=np.int8)
        z[list(treated)] = 1
        sample = tracer.call("data_model.science_to_observed", science_to_observed, table, z)
        tracer.call("data_model.stratum_moments", stratum_moments, sample)
        try:
            with tracer.span(f"estimators.{tag}"):
                report = estimate(sample, tag, config)
        except EstimationError:
            values[i] = np.nan
            continue
        values[i] = report.estimate
        dropped += len(report.strata_kept) < sample.num_strata
    defined = np.isfinite(values)
    n_defined = int(defined.sum())
    kept = values[defined]
    mean = math.fsum(kept) / n_defined
    variance = math.fsum((kept - mean) ** 2) / n_defined
    return mean, variance, (total - n_defined) / total, dropped / n_defined


def trace_enum(wl: EnumExact, tracer, seconds: float) -> tuple[dict, int, int]:
    from ivstrat.theory import bias_one_sided_exact, moments

    counts: dict[str, float] = {}

    def block(i: int):
        tracer.run_id = f"block{i}"
        fast = tracer.call("theory.enumerate_fast.UNSTRAT", wl.enumerate, wl.fast_table, "UNSTRAT")
        tracer.call("theory.moments", moments, wl.fast_table, P_TREAT)
        tracer.call(
            "theory.bias_one_sided_exact",
            bias_one_sided_exact,
            wl.fast_table,
            P_TREAT,
            convention="condition",
        )
        good = wl.check_fast(i, fast)
        counts.setdefault("theory.undefined_mass.UNSTRAT", fast.undefined_mass)
        real_s = traced_s = 0.0
        for tag in GENERIC_TAGS:
            t0 = time.perf_counter()
            real = tracer.call(
                f"theory.enumerate_generic.{tag}", wl.enumerate, wl.generic_table, tag, extra=True
            )
            t1 = time.perf_counter()
            with tracer.span(f"theory.enumerate_loop.{tag}"):
                mean, var, undefined, drop = _enumerate_traced(tracer, wl.generic_table, tag)
            traced_s += time.perf_counter() - t1
            real_s += t1 - t0
            if (mean, var, undefined) != (real.mean, real.variance, real.undefined_mass):
                wl.fail(
                    f"trace block {i}: traced {tag} enumeration {(mean, var, undefined)!r} "
                    f"!= enumerate_expectation {(real.mean, real.variance, real.undefined_mass)!r}"
                )
                good = False
            counts.setdefault(f"theory.undefined_mass.{tag}", real.undefined_mass)
            counts.setdefault(f"estimators.{tag}.fail_frac", undefined)
            counts.setdefault(f"estimators.{tag}.drop_rate", drop)
        return good, traced_s, real_s

    done = repeat(seconds, block)
    out: dict = dict(counts)
    n_fast = math.comb(wl.fast_table.n, round(P_TREAT * wl.fast_table.n))
    n_generic = math.comb(wl.generic_table.n, round(P_TREAT * wl.generic_table.n))
    out["theory.enumerate_fast_ns"] = tracer.mean_s("theory.enumerate_fast.UNSTRAT") / n_fast * 1e9
    for tag in GENERIC_TAGS:
        out[f"theory.enumerate_generic_us.{tag}"] = (
            tracer.mean_s(f"theory.enumerate_generic.{tag}") / n_generic * 1e6
        )
    out["theory.moments_ms"] = tracer.mean_s("theory.moments") * 1e3
    out["theory.bias_one_sided_exact_ms"] = tracer.mean_s("theory.bias_one_sided_exact") * 1e3
    _per_call_ms(tracer, out, "data_model.", ("science_to_observed", "stratum_moments"))
    _per_call_ms(tracer, out, "estimators.", GENERIC_TAGS)
    out["data_model.num_strata"] = float(wl.generic_table.num_strata)
    traced_s = sum(b[1] for b in done)
    real_s = sum(b[2] for b in done)
    attempted = len(done)
    failed = sum(1 for b in done if not b[0])
    return _finish(tracer, out, traced_s, real_s), attempted, failed


def run_traced(wl, tracer, seconds: float) -> tuple[dict, int, int]:
    if isinstance(wl, SimWorkload):
        return trace_sim(wl, tracer, seconds)
    if isinstance(wl, Analyze):
        return trace_analyze(wl, tracer, seconds)
    return trace_enum(wl, tracer, seconds)
