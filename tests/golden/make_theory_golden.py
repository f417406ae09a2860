"""Regenerate the frozen `ivstrat theory` fixtures in this directory.

Each case is a small potential-outcome CSV (n <= 20, so the exact
enumeration runs) and the JSON that `ivstrat theory` prints for it:

- theory_one_sided: 16 units without strata, compliers and never-takers;
- theory_two_sided: 20 units in three strata, with always-takers in two of
  them, treated at p = 0.4 so that the arms differ in size.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/make_theory_golden.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import numpy as np

from ivstrat import cli_main

HERE = pathlib.Path(__file__).parent


def _rows(rng: np.random.Generator, ctypes, stratum: str | None) -> list[str]:
    """One CSV line per unit: 0 never-taker, 1 complier, 2 always-taker.
    Compliers get a unit-level effect; the others satisfy the exclusion
    restriction (y1 == y0)."""
    lines = []
    for c in ctypes:
        y0 = rng.normal(1.0 + 0.5 * (c == 1) - 0.4 * (c == 2), 1.0)
        y1 = y0 + (rng.normal(0.8, 0.6) if c == 1 else 0.0)
        d0, d1 = int(c == 2), int(c >= 1)
        cells = [f"{y0:.3f}", f"{y1:.3f}", str(d0), str(d1)]
        lines.append(",".join(cells + ([stratum] if stratum is not None else [])))
    return lines


def one_sided_csv() -> str:
    rng = np.random.default_rng(20261018)
    ctypes = [1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0]
    return "\n".join(["y0,y1,d0,d1", *_rows(rng, ctypes, None)]) + "\n"


def two_sided_csv() -> str:
    rng = np.random.default_rng(20261019)
    strata = {
        "north": [1, 2, 0, 1, 0, 2, 1, 0],
        "south": [1, 0, 0, 1, 0, 0],  # no always-takers
        "east": [2, 1, 2, 0, 1, 0],
    }
    lines = ["y0,y1,d0,d1,stratum"]
    for name, ctypes in strata.items():
        lines += _rows(rng, ctypes, name)
    return "\n".join(lines) + "\n"


CASES = {
    "theory_one_sided": (one_sided_csv, 0.5),
    "theory_two_sided": (two_sided_csv, 0.4),
}


def theory_json(csv_path: pathlib.Path, p: float) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["theory", "--science-table", str(csv_path), "--p", str(p)])
    assert code == 0, code
    return buf.getvalue()


def main() -> None:
    for name, (make_csv, p) in CASES.items():
        csv_path = HERE / f"{name}.csv"
        csv_path.write_text(make_csv())
        (HERE / f"{name}.json").write_text(theory_json(csv_path, p))


if __name__ == "__main__":
    main()
