"""Full-scale claims read from the committed ``results/all.txt``.

``results/all.txt`` is the stdout of ``runner all --jobs 2 --no-cache``;
CI regenerates it and fails on any difference, so these checks hold for
the code's own full-scale output without running the grid here.
"""

from pathlib import Path

import pytest

ALL = Path(__file__).resolve().parents[2] / "results" / "all.txt"


def _table(title: str) -> dict:
    """The rows of the block whose first line starts with *title*, as
    ``{application: {COLUMN: value}}``."""
    lines = ALL.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    header = lines[start + 2].split()  # title, ====, header, ----
    rows = {}
    for line in lines[start + 4 :]:
        if not line.strip():
            break
        label, *values = line.split()
        rows[label] = dict(zip(header[1:], map(float, values)))
    return rows


def test_no_shape_check_misses():
    assert "[MISS]" not in ALL.read_text()


@pytest.mark.parametrize("label", ["tsp-12", "nqueens-12"])
def test_loosely_coupled_apps_are_among_indeps_wins(label):
    row = _table("Table 1:")[label]
    assert row["INDEP"] <= 1.05 * row["COORD_NB"]


def test_every_checkpointed_run_is_slower_than_normal():
    rows = _table("Table 2:")
    assert len(rows) == 9
    for label, row in rows.items():
        normal = row.pop("NORMAL")
        for scheme, seconds in row.items():
            assert seconds >= normal, (label, scheme)
