"""Frozen simulation metrics: the engine must reproduce the committed
metrics CSVs at any thread count, for single configs and for the quick
grid, whose configs share blocks. Every failed replication in them has a
cause: a named failure code or the absence of compliers.

Every row must match byte for byte except TSLS_DUMMY's, whose floats may
differ from the frozen ones by at most 1e-12 relative: its closed-form
2SLS reduction sums in a different order than the least-squares solve
that produced the fixtures.
"""

import csv
import io
import math
import pathlib
import sys

import numpy as np
import pytest

from ivstrat import ConcentrationConfig, ScenarioConfig, run_concentration, run_scenario, simulation
from ivstrat.estimators import estimate_rows

sys.path.insert(0, str(pathlib.Path(__file__).parent / "golden"))
from make_sim_golden import CONFIGS, GRID_QUICK, grid_quick_text, metrics_text  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"
TOLERANT = "TSLS_DUMMY"


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0)


def _assert_matches(frozen: str, fresh: str) -> None:
    frozen_rows = list(csv.reader(io.StringIO(frozen)))
    fresh_rows = list(csv.reader(io.StringIO(fresh)))
    assert len(fresh_rows) == len(frozen_rows)
    col = frozen_rows[0].index("estimator")
    for old, new in zip(frozen_rows, fresh_rows):
        if old[col] != TOLERANT:
            assert new == old
        else:
            assert len(new) == len(old)
            assert all(_close(a, b) for a, b in zip(old, new)), (old, new)
    strict = [line for line in frozen.splitlines() if f",{TOLERANT}," not in line]
    assert [line for line in fresh.splitlines() if f",{TOLERANT}," not in line] == strict


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulation_metrics_match_frozen_bytes(name, threads):
    _assert_matches((GOLDEN / name).read_text(), metrics_text(CONFIGS[name], threads=threads))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_quick_grid_metrics_match_frozen_bytes(threads):
    _assert_matches((GOLDEN / GRID_QUICK).read_text(), grid_quick_text(threads=threads))


def _failures(config, monkeypatch) -> tuple[simulation.ScenarioMetrics, dict[str, int]]:
    """config's metrics, and for each tag one bincount of its failure codes
    over the replications with a complier plus the replications without
    one. A flush's rows have a complier where its returned truth is not
    nan, and every tag, ORACLE included, runs once per flush, on all of
    its rows."""
    calls, flushes = [], []

    def recording(block, tag):
        rows = estimate_rows(block, tag)
        calls.append((tag, rows))
        return rows

    def flushing(config, phases):
        calls.clear()
        out = flush(config, phases)
        flushes.append((list(calls), ~np.isnan(out.truth)))
        return out

    flush = simulation._flush
    with monkeypatch.context() as patch:
        patch.setattr(simulation, "estimate_rows", recording)
        patch.setattr(simulation, "_flush", flushing)
        run = run_concentration if isinstance(config, ConcentrationConfig) else run_scenario
        metrics = run(config)
    assert sum(len(live) for _, live in flushes) == config.replications
    failures = {}
    for tag in config.estimators:
        codes, no_complier = [], 0
        for flush_calls, live in flushes:
            (ran,) = [rows for t, rows in flush_calls if t == tag]
            code, est = ran.code, ran.est
            assert len(code) == len(live), tag
            assert np.isfinite(est[live & (code < 0)]).all(), tag
            codes.append(code[live])
            no_complier += int((~live).sum())
        codes = np.concatenate(codes)
        failures[tag] = int(np.bincount(codes[codes >= 0]).sum()) + no_complier
    return metrics, failures


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_failure_codes_count_every_failed_replication(name, monkeypatch):
    """For each frozen row, one bincount of the estimator's failure codes
    over the replications with a complier, plus the replications without
    one, is fail_rate * replications exactly."""
    frozen = {
        (row["scenario_id"], row["estimator"]): float(row["fail_rate"])
        for row in csv.DictReader(io.StringIO((GOLDEN / name).read_text()))
    }
    for config in CONFIGS[name]:
        metrics, failures = _failures(config, monkeypatch)
        reps = config.replications
        for tag in config.estimators:
            assert frozen[metrics.scenario_id, tag] == 1.0 - (reps - failures[tag]) / reps, tag


def test_failure_codes_count_estimates_that_overflowed(monkeypatch):
    """Effects so large that the moments' sums overflow: every estimate,
    ORACLE's included, fails with a cause, and the same count holds. A
    config refuses such a tau, so the test sets it past the check, to
    reach the kernels' NonFinite rule through the engine."""
    config = ScenarioConfig(n=40, replications=20, target_pi_c=0.5)
    object.__setattr__(config, "tau", 1.7e308)
    with np.errstate(over="ignore", invalid="ignore"):
        metrics, failures = _failures(config, monkeypatch)
    for row in metrics.rows:
        assert row.fail_rate == 1.0, row.estimator
        assert failures[row.estimator] == row.fail_rate * config.replications, row.estimator
