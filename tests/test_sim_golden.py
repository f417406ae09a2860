"""Frozen simulation metrics: the engine must reproduce the committed
metrics CSVs at any thread count, for single configs and for the quick
grid, whose configs share blocks.

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

import pytest

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
