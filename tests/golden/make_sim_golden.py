"""Regenerate the frozen simulation-metrics fixtures in this directory.

Each file holds the metrics CSV of one group of small simulate configs, as
`ivstrat simulate` writes it. The configs cover the engine's edge paths:
four predictive strata with every default estimator, twelve random strata
(at n=60 some replications have fewer than twelve present strata and
arms with one unit or none), and a compliance-concentration point with
the ORACLE benchmark. grid_quick_metrics.csv is `ivstrat grid --quick
--seed 3`: 72 n=500 configs that the engine runs on shared blocks. Run
from the repository root:

    PYTHONPATH=src python3 tests/golden/make_sim_golden.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib

from ivstrat import (
    ConcentrationConfig,
    ScenarioConfig,
    cli_main,
    run_concentration,
    run_scenario,
)
from ivstrat.io_cli import write_metrics_csv

HERE = pathlib.Path(__file__).parent

CONFIGS = {
    "sim_g4_metrics.csv": (
        ScenarioConfig(
            n=1000,
            target_pi_c=0.05,
            predicts_compliance=True,
            predicts_outcome=True,
            never_taker_shift=0.5,
            replications=150,
            seed=11,
        ),
    ),
    "sim_k12_metrics.csv": (
        ScenarioConfig(n=500, target_pi_c=0.05, random_strata_k=12, replications=150, seed=12),
        ScenarioConfig(
            n=60, target_pi_c=0.3, heterogeneous_tau=True, random_strata_k=12,
            replications=150, seed=13,
        ),
    ),
    "sim_r025_metrics.csv": (
        ConcentrationConfig(r=0.25, n=500, replications=150, seed=14),
    ),
}


def metrics_text(configs, threads: int = 1) -> str:
    metrics = [
        (run_concentration if isinstance(c, ConcentrationConfig) else run_scenario)(
            c, threads=threads
        )
        for c in configs
    ]
    buf = io.StringIO()
    write_metrics_csv(metrics, buf)
    return buf.getvalue()


GRID_QUICK = "grid_quick_metrics.csv"


def grid_quick_text(threads: int = 1) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["grid", "--quick", "--seed", "3", "--threads", str(threads)])
    assert code == 0, code
    return buf.getvalue()


def main() -> None:
    for name, configs in CONFIGS.items():
        (HERE / name).write_text(metrics_text(configs))
    (HERE / GRID_QUICK).write_text(grid_quick_text())


if __name__ == "__main__":
    main()
