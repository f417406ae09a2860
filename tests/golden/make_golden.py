"""Regenerate the golden fixtures in this directory.

Byte-stable by construction: fixed seeds, fixed-order writes, repr/4g
formatting. Besides the datasets and their reports, CLI_CASES freezes what
`ivstrat` prints for a JSON and a CSV report and for small sweep-r and
random-strata runs. Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import numpy as np

from ivstrat import DatasetSchema, ObservedSample, analyze, cli_main, load_csv, stratum_report
from ivstrat.io_cli import report_csv, stratum_csv

HERE = pathlib.Path(__file__).parent

GOTV_SCHEMA = {
    "z_col": "assigned",
    "d_col": "contacted",
    "y_col": "voted",
    "strata_cols": ["site"],
}


def draw_assignment(rng: np.random.Generator, n: int) -> np.ndarray:
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[: n // 2]] = 1
    return z


def make_gotv() -> str:
    """Door-knocking style data: one-sided contact, binary turnout,
    four sites with different contact rates."""
    rng = np.random.default_rng(20240531)
    sites = ("city", "suburb", "rural", "campus")
    contact = {"city": 0.45, "suburb": 0.30, "rural": 0.15, "campus": 0.60}
    base = {"city": 0.38, "suburb": 0.42, "rural": 0.35, "campus": 0.25}
    n = 1200
    site = rng.choice(len(sites), size=n, p=(0.4, 0.3, 0.2, 0.1))
    z = draw_assignment(rng, n)
    reachable = rng.random(n) < np.array([contact[sites[s]] for s in site])
    d = (z == 1) & reachable
    p_vote = np.array([base[sites[s]] for s in site]) + 0.10 * reachable + 0.08 * d
    y = (rng.random(n) < p_vote).astype(int)
    lines = ["assigned,contacted,voted,site"]
    for i in range(n):
        lines.append(f"{z[i]},{int(d[i])},{y[i]},{sites[site[i]]}")
    return "\n".join(lines) + "\n"


def make_spotlight() -> str:
    """Continuous-outcome data with a near-dead stratum: west's realized
    uptake sits strictly between 0 and the 2% screening threshold."""
    rng = np.random.default_rng(20240607)
    regions = ("north", "east", "south", "west")
    take = {"north": 0.30, "east": 0.18, "south": 0.08, "west": 0.004}
    mu = {"north": 1.2, "east": 0.8, "south": 0.5, "west": 0.1}
    n = 1000
    region = np.repeat(np.arange(4), n // 4)
    z = draw_assignment(rng, n)
    willing = rng.random(n) < np.array([take[regions[g]] for g in region])
    d = (z == 1) & willing
    y = (
        np.array([mu[regions[g]] for g in region])
        + 0.9 * d
        + rng.normal(0.0, 1.0, n)
    )
    lines = ["z,d,y,stratum"]
    for i in range(n):
        lines.append(f"{z[i]},{int(d[i])},{repr(float(y[i]))},{regions[region[i]]}")
    return "\n".join(lines) + "\n"


# output file -> the argv that prints it, given the directory of the datasets
CLI_CASES = {
    "gotv_like_analyze.json": lambda here: [
        "analyze",
        "--data", str(here / "gotv_like.csv"),
        "--schema", str(here / "gotv_like_schema.json"),
        "--out", "json", "--by-stratum", "--se", "both",
    ],
    "spotlight_like_analyze_delta.csv": lambda here: [
        "analyze", "--data", str(here / "spotlight_like.csv"), "--se", "delta", "--by-stratum",
    ],
    "sweep_r_metrics.csv": lambda here: [
        "sweep-r", "--r", "0.25,1", "--target-p", "0.2", "--n", "200",
        "--replications", "30", "--seed", "7", "--het-tau", "--nt-shift", "0.5",
    ],
    "random_strata_metrics.csv": lambda here: [
        "random-strata", "--k", "1,3", "--n", "100", "--pi-c", "0.2",
        "--replications", "30", "--seed", "4",
    ],
}


def cli_text(name: str, here: pathlib.Path) -> str:
    """What `ivstrat` prints for CLI_CASES[name], reading datasets in here."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(CLI_CASES[name](here))
    assert code == 0, code
    return buf.getvalue()


def main() -> None:
    gotv = make_gotv()
    (HERE / "gotv_like.csv").write_text(gotv)
    (HERE / "gotv_like_schema.json").write_text(
        json.dumps(GOTV_SCHEMA, indent=2) + "\n"
    )
    schema = DatasetSchema.from_json(GOTV_SCHEMA)
    sample = load_csv(str(HERE / "gotv_like.csv"), schema)
    (HERE / "gotv_like_report.csv").write_text(report_csv(analyze(sample)))

    spotlight = make_spotlight()
    (HERE / "spotlight_like.csv").write_text(spotlight)
    sample = load_csv(str(HERE / "spotlight_like.csv"), DatasetSchema())
    (HERE / "spotlight_like_report.csv").write_text(report_csv(analyze(sample)))
    (HERE / "spotlight_like_strata.csv").write_text(
        stratum_csv(stratum_report(sample))
    )

    for name in CLI_CASES:
        (HERE / name).write_text(cli_text(name, HERE))


if __name__ == "__main__":
    main()
