"""Shared pieces of the benchmark: timing statistics, the span tracer,
fresh-interpreter probes and the run manifest.

Nothing here imports ivstrat, so run.py can check where the package comes
from before anything loads it.
"""

from __future__ import annotations

import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Single-threaded BLAS keeps every thread of the measured process under the
# program's own --threads setting (at most nproc).
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SUBPROCESS_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that must import this checkout's
    src/ivstrat and nothing else."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def run_python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter from the checkout root; return (wall s, result)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - t0, proc


IMPORT_PROBE = ["-c", "import ivstrat.io_cli"]
_IMPORTTIME_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from `python -X importtime`."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME_LINE.match(line)
        if m:
            out[m.group(3)] = int(m.group(2)) / 1e6
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def calibration_s(runs: int = 3) -> float:
    """Median wall time of a fixed loop of interpreter and small-NumPy work,
    the mix ivstrat runs. It is the benchmark's own code, so no change to
    the program can move it; it measures how fast the machine is running
    right now."""
    import itertools

    import numpy as np

    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        y = rng.normal(size=2000)
        g = rng.integers(0, 4, 2000)
        for _ in range(40):
            combos = np.array(list(itertools.islice(itertools.combinations(range(16), 8), 300)))
            z = np.zeros((300, 16))
            z[np.arange(300)[:, None], combos] = 1.0
            float((z @ y[:16]).sum())
            np.bincount(g, weights=y, minlength=4)
            sum(v[1] for v in {i: (i, i * 0.5) for i in range(200)}.values())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def repeat(seconds: float, step) -> list:
    """Call step(0), step(1), ... until the next call would overrun
    `seconds` (at least once); return their results."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step(len(out)))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return out


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it,
    as (percentile, value); None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    q = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return q, ordered[min(n - 1, math.ceil(q * n / 100) - 1)]


def summarize(samples: list[float], unit: str, tail: str = "high") -> str:
    """Median and tail of per-operation values, with the count. For a rate
    the slow tail is the low one: tail="low" reports the percentile with
    ten samples below it."""
    if not samples:
        return "no samples"
    text = f"median {statistics.median(samples):.6g} {unit} over {len(samples)} samples"
    flip = -1.0 if tail == "low" else 1.0
    found = tail_percentile([flip * x for x in samples])
    if found is None:
        text += " (too few for a tail percentile)"
    else:
        q, value = found
        text += f", p{100 - q if flip < 0 else q} {flip * value:.6g} {unit}"
    return text


class Tracer:
    """In-memory spans (name, start, end, parent, run id, extra).

    A span marked extra repeats work that another span already covers (a
    standalone call made only to time one function); its children inherit
    the mark. Layer self time and tracing overhead leave extra spans out.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str, extra: bool = False):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and self.spans[parent][5]:
            extra = True
        idx = len(self.spans)
        record = [name, time.perf_counter_ns(), 0, parent, self.run_id, extra]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, extra: bool = False, **kwargs):
        with self.span(name, extra=extra):
            return fn(*args, **kwargs)

    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name) / 1e9

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def mean_s(self, name: str) -> float:
        k = self.count(name)
        return self.total_s(name) / k if k else 0.0

    def extra_top_s(self) -> float:
        """Time in extra spans whose parent is not itself extra."""
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[5] and (s[3] is None or not self.spans[s[3]][5])
        ) / 1e9

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (the name's first dotted part), extra spans
        left out: each span's duration minus its children's."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s[5]:
                continue
            layer = s[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s[2] - s[1] - child[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,run_id,extra\n")
            for name, start, end, parent, run_id, extra in self.spans:
                p = "" if parent is None else parent
                fh.write(f"{name},{start},{end},{p},{run_id},{int(extra)}\n")


def _git_commit() -> str:
    """HEAD of the checkout read straight from .git; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(seeds: dict) -> dict:
    import numpy
    import scipy

    from ivstrat.simulation import RNG_FAMILY

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rng_family": RNG_FAMILY,
        "seeds": seeds,
        "git_commit": _git_commit(),
    }
