"""The four benchmark workloads: input generation from the seed, the
untraced timed operations, and the output check behind each operation.

Every workload runs a cycle of two timed operations, `primary` and
`secondary`, until the run's time is used up:

  sim_n2000     ivstrat simulate at 1 thread / the same config at 2 threads
  sim_n500_k12  ivstrat simulate at 2 threads / the same configs at 1 thread
  analyze       100k-row CSV -> report text in-process / cold `ivstrat analyze`
  enum_exact    fast UNSTRAT enumeration / generic IV_W + DSS enumeration

A cycle's check covers its operations; a failed check or an exception
fails them.

enum_exact is not listed in BENCHMARK.json. On a shared 2-vCPU host its
rates swing by a quarter or more between runs (the generic path moved from
2.9k to 4.9k assignments/s within one process), and the spread of its
per-run medians over ten runs reached 0.2 to 0.37 of the median, with and
without the calibration loop, above the largest bound a benchmark may set.
It still runs, traced or not, with --workload enum_exact or all; the
theory layer is also traced on the listed simulate workloads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import zlib
from pathlib import Path

import numpy as np

from common import ROOT, calibration_s, run_python

GOLDEN = ROOT / "tests" / "golden"


def derive_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed determined by the workload seed and the keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1, dtype=np.uint32)
    return int(state[0] >> 1)


def name_key(name: str) -> int:
    return zlib.crc32(name.encode())


@dataclasses.dataclass
class Op:
    kind: str  # "primary" or "secondary"
    units: float  # work done: replications, analyses or assignments
    seconds: float
    ok: bool = True
    ref_s: float = math.nan  # mean calibration time just before and after

    @property
    def rate(self) -> float:
        return self.units / self.seconds

    @property
    def per_ref(self) -> float:
        """Work per calibration time: the rate with the machine's current
        speed divided out."""
        return self.rate * self.ref_s


class Workload:
    """Base: a named workload with inputs made from one seed."""

    name = ""
    primary_label = ""
    secondary_label = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.key = name_key(self.name)
        self.problems: list[str] = []
        self.ref_s = math.nan  # the latest calibration time

    def timed(self, kind: str, units: float, fn, *args) -> tuple[Op, object]:
        """Run fn(*args) as one timed operation and calibrate right after
        it, so every operation sits between two calibrations; return (Op,
        its result)."""
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        before, self.ref_s = self.ref_s, calibration_s()
        return Op(kind, units, seconds, ref_s=(before + self.ref_s) / 2), result

    def setup(self) -> None:
        """Generate the inputs; timed as part of setup_s."""

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def seeds(self) -> dict:
        return {"seed": self.seed}

    def fail(self, message: str) -> None:
        self.problems.append(message)


# --------------------------------------------------------------------------
# simulate


class SimWorkload(Workload):
    """`ivstrat simulate` run in-process through cli_main. Each cycle uses
    fresh config seeds and runs the same configs at two thread counts; the
    determinism contract says both metrics CSVs are byte-identical."""

    threads: tuple[int, int]  # (primary, secondary)
    reps: int  # replications per config per operation

    def configs(self, i: int) -> list[dict]:
        raise NotImplementedError

    def config_seeds(self, i: int, count: int) -> list[int]:
        return [derive_seed(self.seed, self.key, i, j) for j in range(count)]

    def setup(self) -> None:
        self.used_seeds: list[int] = []
        self.write_config(0)

    def write_config(self, i: int) -> Path:
        path = self.workdir / f"config-{i}.json"
        configs = self.configs(i)
        self.used_seeds += [c["seed"] for c in configs]
        path.write_text(json.dumps(configs))
        return path

    def cycle(self, i: int) -> list[Op]:
        from ivstrat.io_cli import cli_main

        config = self.workdir / f"config-{i}.json"
        if i > 0:
            config = self.write_config(i)
        units = self.reps * len(self.configs(i))
        outs = [self.workdir / f"metrics-{t}.csv" for t in self.threads]
        ops = []
        codes = []
        for kind, threads, out in zip(("primary", "secondary"), self.threads, outs):
            argv = ["simulate", "--config", str(config), "--threads", str(threads)]
            op, code = self.timed(kind, units, cli_main, [*argv, "--out", str(out)])
            ops.append(op)
            codes.append(code)
        ok = self.check(i, codes, outs)
        for op in ops:
            op.ok = ok
        return ops

    def check(self, i: int, codes: list[int], outs: list[Path]) -> bool:
        if codes != [0, 0]:
            self.fail(f"cycle {i}: simulate exit codes {codes}")
            return False
        first, second = (p.read_bytes() for p in outs)
        if first != second:
            self.fail(
                f"cycle {i}: metrics CSV differs between {self.threads[0]} "
                f"and {self.threads[1]} threads"
            )
            return False
        rows = first.decode().splitlines()
        expected = 1 + 8 * len(self.configs(i))
        if len(rows) != expected:
            self.fail(f"cycle {i}: metrics CSV has {len(rows)} lines, expected {expected}")
            return False
        return True

    def seeds(self) -> dict:
        return {"seed": self.seed, "config_seeds": self.used_seeds}


class SimN2000(SimWorkload):
    name = "sim_n2000"
    primary_label = "reps_per_s (1 thread)"
    secondary_label = "reps_per_s (2 threads)"
    threads = (1, 2)
    reps = 100

    def configs(self, i: int) -> list[dict]:
        (seed,) = self.config_seeds(i, 1)
        return [
            {
                "n": 2000,
                "num_strata": 4,
                "target_pi_c": 0.05,
                "predicts_compliance": True,
                "predicts_outcome": True,
                "replications": self.reps,
                "seed": seed,
            }
        ]


class SimN500K12(SimWorkload):
    name = "sim_n500_k12"
    primary_label = "reps_per_s (2 threads)"
    secondary_label = "reps_per_s (1 thread)"
    threads = (2, 1)
    reps = 60

    def configs(self, i: int) -> list[dict]:
        k_seed, r_seed = self.config_seeds(i, 2)
        return [
            {
                "n": 500,
                "target_pi_c": 0.05,
                "random_strata_k": 12,
                "replications": self.reps,
                "seed": k_seed,
            },
            {"r": 0.25, "n": 500, "replications": self.reps, "seed": r_seed},
        ]


# --------------------------------------------------------------------------
# analyze

ANALYZE_ROWS = 100_000
REGIONS = ("north", "south", "east", "west", "central")
SCHEMA = {
    "z_col": "assigned",
    "d_col": "treated",
    "y_col": "outcome",
    "strata_cols": ["region", "age"],
    "binning": {"age": ["quantile", 4]},
}
# 5 regions x 4 age quartiles, plus a "missing" level in either column
# (a row never misses both)
ANALYZE_STRATA = 5 * 4 + 5 + 4


def write_analyze_csv(path: Path, seed: int, rows: int = ANALYZE_ROWS) -> None:
    """One-sided experiment: half the rows assigned, ~15% uptake among them,
    a 5-value region label crossed with quartiles of a numeric age, and ~1%
    of rows missing one of the two stratification values."""
    rng = np.random.default_rng(seed)
    region = rng.integers(0, len(REGIONS), rows)
    age = rng.gamma(4.0, 10.0, rows)
    z = np.zeros(rows, dtype=np.int64)
    z[rng.permutation(rows)[: rows // 2]] = 1
    complier = rng.random(rows) < 0.08 + 0.035 * region
    d = z * complier
    y = 0.25 * region + 0.01 * age + rng.normal(size=rows) + 0.4 * d
    missing = rng.random(rows) < 0.01
    miss_region = missing & (rng.random(rows) < 0.5)
    miss_age = missing & ~miss_region
    region_s = np.where(miss_region, "", np.asarray(REGIONS)[region])
    age_s = np.where(miss_age, "", np.char.mod("%.2f", age))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("assigned,treated,outcome,region,age\n")
        fh.writelines(
            f"{a},{b},{c!r},{r},{s}\n"
            for a, b, c, r, s in zip(
                z.tolist(), d.tolist(), y.tolist(), region_s.tolist(), age_s.tolist()
            )
        )


class Analyze(Workload):
    name = "analyze"
    primary_label = "1 / analyze_100k_s"
    secondary_label = "1 / cli_cold_s"

    def setup(self) -> None:
        self.csv = self.workdir / "data.csv"
        self.schema_path = self.workdir / "schema.json"
        self.data_seed = derive_seed(self.seed, self.key)
        write_analyze_csv(self.csv, self.data_seed)
        self.schema_path.write_text(json.dumps(SCHEMA))
        self.golden = (GOLDEN / "gotv_like_report.csv").read_bytes()
        self.first_report: str | None = None

    def schema(self):
        from ivstrat.io_cli import DatasetSchema

        return DatasetSchema.from_json_file(str(self.schema_path))

    def analyze_once(self):
        """The in-process path: CSV -> report text. Returns (text, sample, table)."""
        from ivstrat.data_model import validate
        from ivstrat.io_cli import analyze, load_csv, report_csv, stratum_csv, stratum_report

        sample = validate(load_csv(str(self.csv), self.schema()))
        table = analyze(sample, se="both")
        text = report_csv(table) + "\n" + stratum_csv(stratum_report(sample))
        return text, sample, table

    def check_report(self, i: int, text: str, sample, table) -> bool:
        from ivstrat import estimate

        if sample.num_strata != ANALYZE_STRATA:
            self.fail(f"cycle {i}: {sample.num_strata} strata, expected {ANALYZE_STRATA}")
            return False
        iv_a = next(r.estimate for r in table.rows if r.method == "IV_A")
        tsls_w = estimate(sample, "TSLS_WEIGHTED").estimate
        if iv_a is None or not abs(iv_a - tsls_w) <= 1e-10 * max(1.0, abs(tsls_w)):
            self.fail(f"cycle {i}: IV_A {iv_a!r} != TSLS_WEIGHTED {tsls_w!r}")
            return False
        if self.first_report is None:
            self.first_report = text
        elif text != self.first_report:
            self.fail(f"cycle {i}: report text changed between cycles")
            return False
        return True

    def cycle(self, i: int) -> list[Op]:
        first, (text, sample, table) = self.timed("primary", 1.0, self.analyze_once)
        ok = self.check_report(i, text, sample, table)
        cli = [
            *("-c", "from ivstrat.io_cli import main; main()", "analyze"),
            *("--data", str(GOLDEN / "gotv_like.csv")),
            *("--schema", str(GOLDEN / "gotv_like_schema.json")),
        ]
        second, (_, proc) = self.timed("secondary", 1.0, run_python, cli)
        cli_ok = proc.returncode == 0 and proc.stdout == self.golden
        if not cli_ok:
            self.fail(f"cycle {i}: cold CLI output differs from gotv_like_report.csv")
        first.ok = second.ok = ok and cli_ok
        return [first, second]

    def seeds(self) -> dict:
        return {"seed": self.seed, "data_seed": self.data_seed}


# --------------------------------------------------------------------------
# enumeration

P_TREAT = 0.5
GENERIC_TAGS = ("IV_W", "DSS")
FAST_PER_CYCLE = 3


def one_sided_table(rng: np.random.Generator, strata: np.ndarray, compliers: int):
    """A one-sided science table with exactly `compliers` compliers in each
    stratum, so every estimator is defined on most assignments."""
    from ivstrat import ScienceTable

    n = len(strata)
    is_c = np.zeros(n, dtype=np.int8)
    for g in np.unique(strata):
        is_c[rng.choice(np.flatnonzero(strata == g), compliers, replace=False)] = 1
    y0 = rng.normal(size=n)
    y1 = y0 + rng.normal(0.5, 0.5, size=n) * is_c
    return ScienceTable.from_arrays(y0=y0, y1=y1, d0=np.zeros(n), d1=is_c, strata=strata)


class EnumExact(Workload):
    name = "enum_exact"
    primary_label = "enum_fast_per_s"
    secondary_label = "enum_generic_per_s"

    def setup(self) -> None:
        from ivstrat import ScienceTable

        self.table_seed = derive_seed(self.seed, self.key)
        rng = np.random.default_rng(self.table_seed)
        self.fast_table = one_sided_table(rng, np.zeros(22, dtype=np.intp), 6)
        self.generic_table = one_sided_table(rng, np.repeat([0, 1], 8), 3)
        t = self.generic_table
        # single-stratum copy of the first 12 units, for the collapse check
        self.small_table = ScienceTable.from_arrays(
            y0=t.y0[:12], y1=t.y1[:12], d0=t.d0[:12], d1=t.d1[:12]
        )
        self.first_generic = None

    def enumerate(self, table, tag):
        from ivstrat import enumerate_expectation

        return enumerate_expectation(table, P_TREAT, tag, convention="condition")

    def check_fast(self, i: int, result) -> bool:
        from ivstrat import bias_one_sided_exact

        t = self.fast_table
        exact = bias_one_sided_exact(t, P_TREAT, convention="condition")
        gap = (result.mean - t.cace) - exact
        if result.n_assignments != math.comb(22, 11) or not abs(gap) <= 1e-12:
            self.fail(f"cycle {i}: fast enumeration bias off the exact bias by {gap!r}")
            return False
        return True

    def check_generic(self, i: int, results) -> bool:
        summary = [(r.mean, r.variance, r.undefined_mass, r.n_assignments) for r in results]
        if any(s[3] != math.comb(16, 8) or not math.isfinite(s[0]) for s in summary):
            self.fail(f"cycle {i}: generic enumeration summary {summary!r}")
            return False
        if self.first_generic is None:
            self.first_generic = summary
        elif summary != self.first_generic:
            self.fail(f"cycle {i}: generic enumeration changed between cycles")
            return False
        generic = self.enumerate(self.small_table, "IV_W").mean
        fast = self.enumerate(self.small_table, "UNSTRAT").mean
        if not abs(generic - fast) <= 1e-12:
            self.fail(f"cycle {i}: single-stratum IV_W {generic!r} != UNSTRAT {fast!r}")
            return False
        return True

    def generic(self) -> list:
        return [self.enumerate(self.generic_table, tag) for tag in GENERIC_TAGS]

    def cycle(self, i: int) -> list[Op]:
        ops = []
        # a fast enumeration takes about a sixth of the generic pair: three of
        # them spread the primary samples over the run like the secondary ones
        for _ in range(FAST_PER_CYCLE):
            op, fast = self.timed(
                "primary", math.comb(22, 11), self.enumerate, self.fast_table, "UNSTRAT"
            )
            op.ok = self.check_fast(i, fast)
            ops.append(op)
        op, generic = self.timed("secondary", 2 * math.comb(16, 8), self.generic)
        op.ok = self.check_generic(i, generic)
        return ops + [op]

    def seeds(self) -> dict:
        return {"seed": self.seed, "table_seed": self.table_seed}


WORKLOADS = {w.name: w for w in (SimN2000, SimN500K12, Analyze, EnumExact)}
