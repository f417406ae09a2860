"""ivstrat benchmark: one workload per run, tracing off or on.

    python3 perfbench/run.py --workload sim_n2000 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

`all` runs the four workloads of workloads.py one after the other, the
three BENCHMARK.json lists and enum_exact (see workloads.py for why it is
not listed).

Run it from the root of a checkout: it imports the package from src/ of
that checkout and nothing else, and reads tests/golden/ for the cold-CLI
check. Workloads are defined in workloads.py, the traced runs in traced.py;
BENCHMARK.json names every metric and its unit.

With --trace 0 the run sets up its inputs three times (each set-up is a
fresh interpreter importing ivstrat plus the workload's input generation;
setup_s is their median), then repeats the workload's cycle of a primary
and a secondary operation for --seconds, checking every cycle's outputs.
A fixed calibration loop (common.calibration_s) runs before the first
operation and after each one:

  primary_per_ref    median over primary operations of work per second
                     times the mean calibration time around the operation
  secondary_per_ref  the same for the secondary operations
  peak_rss_mb        peak resident memory of this process or its children

Work per calibration time is a throughput with the host's current speed
divided out. On a shared 2-vCPU host the wall-clock rate of one workload
drifted by a quarter within minutes (sim_n2000: 221 to 273 reps/s over ten
consecutive 30 s runs) while its work per calibration time stayed within
4%. The program cannot move the calibration loop, so a change that makes
the program twice as fast doubles these numbers. The wall-clock rates
(reps/s, analyses/s) are printed beside them with their medians, tails
and sample counts. Each workload's `why` in BENCHMARK.json says what its
operations are and what their work counts. failed_frac (operations that
raised or failed their check over operations attempted) is `failed` /
`attempted` in the result line. With --trace 1 the run instead does the
traced reproduction of the workload and reports the per-layer metrics;
spans go to .perfbench_out/ in the checkout.

The last line of standard output is the result as one JSON object; the
lines before it are for people: the run manifest and every metric with
its unit, sample count and tail percentile.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import (
    IMPORT_PROBE,
    ROOT,
    SRC,
    THREAD_ENV,
    Tracer,
    calibration_s,
    manifest,
    peak_rss_mb,
    repeat,
    run_python,
    summarize,
)

REQUIRED = (
    SRC / "ivstrat" / "__init__.py",
    ROOT / "tests" / "golden" / "gotv_like.csv",
    ROOT / "tests" / "golden" / "gotv_like_schema.json",
    ROOT / "tests" / "golden" / "gotv_like_report.csv",
)
SETUPS = 3


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_package() -> None:
    """Import ivstrat from this checkout's src/, or stop."""
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not an ivstrat checkout, missing {', '.join(missing)}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import ivstrat

    if Path(ivstrat.__file__).resolve().parent != (SRC / "ivstrat").resolve():
        sys.exit(f"perfbench: ivstrat imported from {ivstrat.__file__}, not from {SRC}")


def setup(wl, workdir: Path, trace: bool) -> tuple[list[float], list[str]]:
    """Set the workload up SETUPS times; return the wall times and, when
    tracing, the `-X importtime` output of each fresh import."""
    from traced import importtime_run

    times, importtimes = [], []
    for k in range(SETUPS):
        wl.workdir = workdir / f"setup{k}"
        wl.workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        if trace:
            importtimes.append(importtime_run())
        else:
            _, proc = run_python(IMPORT_PROBE)
            if proc.returncode != 0:
                sys.exit(f"perfbench: import failed: {proc.stderr.decode()[-500:]}")
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times, importtimes


def measure(wl, seconds: float) -> list:
    """Repeat the workload's cycle for `seconds`; an exception fails the
    cycle's two operations and the run goes on."""
    from workloads import Op

    def cycle(i: int) -> list:
        try:
            return wl.cycle(i)
        except Exception as exc:
            wl.fail(f"cycle {i}: {type(exc).__name__}: {exc}")
            return [Op("primary", 0.0, 1.0, ok=False), Op("secondary", 0.0, 1.0, ok=False)]

    wl.ref_s = calibration_s()
    return [op for ops in repeat(seconds, cycle) for op in ops]


def declared(kind: str) -> dict[str, str]:
    """BENCHMARK.json's entries of one kind, name -> unit (or why)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "why" if kind == "workloads" else "unit"
    return {m["name"]: m[key] for m in bench[kind]}


def emit(values: dict[str, float], kind: str) -> dict:
    """Every metric BENCHMARK.json declares for this mode, with its unit.
    A per-layer metric the workload never exercises reads 0."""
    units = declared(kind)
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if kind == "end_to_end" and set(values) != set(units):
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(set(units) - set(values))}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def run_untraced(wl, args, setup_times) -> tuple[dict, int, int]:
    ops = measure(wl, args.seconds)
    values = {"setup_s": statistics.median(setup_times)}
    print(f"setup_s: {summarize(setup_times, 's')}")
    for kind, label in (("primary", wl.primary_label), ("secondary", wl.secondary_label)):
        done = [op for op in ops if op.kind == kind and op.ok]
        rates = [op.rate for op in done]
        per_ref = [op.per_ref for op in done]
        values[f"{kind}_per_ref"] = statistics.median(per_ref) if per_ref else 0.0
        print(f"{label}: {summarize(rates, '1/s', tail='low')}")
        print(f"{kind}_per_ref: {summarize(per_ref, '1/ref', tail='low')}")
    print(f"calibration: {summarize([op.ref_s for op in ops], 's')}")
    values["peak_rss_mb"] = peak_rss_mb()
    print(f"peak_rss_mb: {values['peak_rss_mb']:.6g} MB")
    failed = sum(1 for op in ops if not op.ok)
    print(f"failed_frac: {failed}/{len(ops)} = {failed / len(ops):.6g} ratio")
    return emit(values, "end_to_end"), len(ops), failed


def run_traced(wl, args, importtimes) -> tuple[dict, int, int]:
    from traced import import_metrics, run_traced as trace_workload

    tracer = Tracer()
    try:
        values, attempted, failed = trace_workload(wl, tracer, args.seconds)
    except Exception:  # e.g. a public function the trace calls changed
        wl.fail("traced run raised:\n" + traceback.format_exc())
        values, attempted, failed = {}, 1, 1
    values.update(import_metrics(importtimes))
    out = ROOT / ".perfbench_out" / f"spans-{wl.name}-seed{args.seed}.csv"
    tracer.write(out)
    metrics = emit(values, "per_layer")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    for layer, seconds in sorted(tracer.layer_self_s().items()):
        print(f"self time {layer}: {seconds:.6g} s")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6g} ratio")
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    return metrics, attempted, failed


def run_one(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        names = ", ".join(WORKLOADS)
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {names}, all")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setup_times, importtimes = setup(wl, workdir, bool(args.trace))
        why = declared("workloads").get(wl.name, "not listed in BENCHMARK.json")
        print(f"workload {wl.name}: {why}")
        if args.trace:
            metrics, attempted, failed = run_traced(wl, args, importtimes)
        else:
            metrics, attempted, failed = run_untraced(wl, args, setup_times)
        print("manifest " + json.dumps(manifest({wl.name: wl.seeds()})))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in wl.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0 and not wl.problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other; the last
    line combines their results with metrics named <workload>.<metric>."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [
            sys.executable,
            str(Path(__file__).resolve()),
            *("--workload", name, "--seed", str(args.seed)),
            *("--seconds", str(args.seconds), "--trace", str(args.trace)),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main() -> int:
    args = parse_args()
    load_package()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
