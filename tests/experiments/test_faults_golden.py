"""Every report of the crash and replay path, to the last bit.

``runner failure-rates --quick`` prints completion times to two decimals,
so a change that moves an event on the crash, recovery or log-replay path
in its last bits still prints the same table. This test runs the quick
F1 baseline and its three schemes at MTBF = T and at MTBF = 0.33 T
(trial 0, seed 0), and compares each cell's full ``RunReport.to_dict()``
with ``tests/golden/faults_quick_reports.json``, field for field, floats
exactly, and then the file's text byte for byte. Cells are keyed by
what they are in the experiment (scheme, MTBF factor, trial), not by
``cell_key``.

Re-record the fixture only for a change that is meant to alter the
simulation, and say so where the change is described::

    PYTHONPATH=src python tests/experiments/test_faults_golden.py
"""

import json
from pathlib import Path

from repro.experiments import GridExecutor, failure_rates_spec

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "faults_quick_reports.json"

#: ``runner --quick``'s scale
QUICK = 0.2
FACTORS = (1.0, 0.33)
#: the F1 schemes, in the experiment's plan order
SCHEMES = ("coord_nbms", "indep_m_log", "indep_m_nolog")


def _reports():
    """``{spec-level id: report dict}``, the baseline first."""
    spec = failure_rates_spec(mtbf_factors=FACTORS, trials=1, seed=0, scale=QUICK)
    executor = GridExecutor(jobs=1, use_cache=False)
    (baseline,) = spec.baselines
    results = executor.run_cells(spec.baselines)
    cells = spec.plan(results)
    results = executor.run_cells([baseline] + list(cells))
    # plan order: scheme-major, then MTBF factors from the largest
    ids = ["baseline"] + [f"{s}@mtbf={f}T#0" for s in SCHEMES for f in FACTORS]
    assert len(ids) == 1 + len(cells)
    # through JSON, as the fixture was written: tuples read back as lists
    return {
        cid: json.loads(json.dumps(results[cell].to_dict()))
        for cid, cell in zip(ids, [baseline] + list(cells))
    }


def _render(reports):
    """The fixture's text, as ``__main__`` writes it."""
    return json.dumps(reports, indent=1) + "\n"


def test_every_faults_report_matches_the_fixture():
    want = json.loads(GOLDEN.read_text())
    got = _reports()
    assert list(got) == list(want)  # the same cells, in the same order
    for cid, report in want.items():
        # the same keys in the same order: to_dict's layout is the cache's
        assert list(got[cid]) == list(report), cid
        for name, value in report.items():
            assert got[cid][name] == value, (cid, name)
    # the file itself, byte for byte: a key-order drift fails here
    assert GOLDEN.read_text() == _render(got)


if __name__ == "__main__":
    GOLDEN.write_text(_render(_reports()))
