"""Every report of a 64-rank hierarchical scale sweep, to the last bit.

The printed scale table rounds to two decimals, so a change that moves a
``sim_time`` in its last bits (a reordered event, a different route cost)
still prints the same table. This test compares each cell's full
``RunReport.to_dict()`` with ``tests/golden/scale64_reports.json``, field
for field, floats exactly, and then the file's text byte for byte.

Re-record the fixture only for a change that is meant to alter the
simulation, and say so where the change is described::

    PYTHONPATH=src python tests/experiments/test_scale64_golden.py
"""

import json
from pathlib import Path

from repro.experiments import GridExecutor, cell_key, scale_spec

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "scale64_reports.json"


def _reports():
    """``{cell_key: report dict}`` for every cell, baselines first."""
    spec = scale_spec(ns=(64,), scale=0.2, seed=0)
    executor = GridExecutor(jobs=1, use_cache=False)
    results = executor.run_cells(spec.baselines)
    cells = list(spec.baselines) + list(spec.plan(results))
    results = executor.run_cells(cells)
    # through JSON, as the fixture was written: tuples read back as lists
    return {
        cell_key(cell): json.loads(json.dumps(results[cell].to_dict()))
        for cell in cells
    }


def _render(reports):
    """The fixture's text, as ``__main__`` writes it."""
    return json.dumps(reports, indent=1) + "\n"


def test_every_scale64_report_matches_the_fixture():
    want = json.loads(GOLDEN.read_text())
    got = _reports()
    assert list(got) == list(want)  # the same cells, in the same order
    for key, report in want.items():
        # the same keys in the same order: to_dict's layout is the cache's
        assert list(got[key]) == list(report), key
        for name, value in report.items():
            assert got[key][name] == value, (key, report["scheme"], name)
    # the file itself, byte for byte: a key-order drift fails here
    assert GOLDEN.read_text() == _render(got)


if __name__ == "__main__":
    GOLDEN.write_text(_render(_reports()))
