"""Table 1: overhead per checkpoint, 21 configurations x 5 schemes.

Regenerates the paper's central comparison. The quantities are per-
checkpoint overheads in (simulated) seconds:

    overhead_per_ckpt = (T_scheme - T_normal) / checkpoint_rounds

Headline shapes, printed as the runner's shape checks:
  * ``Indep`` does *not* beat ``Coord_NB`` overall (paper: 15 of 21 worse);
  * ``Indep_M`` beats ``Coord_NBM`` in a clear majority (paper: 12 of 15);
  * ``Coord_NBMS`` is the best column nearly everywhere.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis import SchemeComparison, TableResult, TableView, fmt_seconds
from ..machine import MachineParams
from .grid import ExperimentSpec, GridResults, WorkloadSpec
from .harness import SCHEMES_TABLE1, overhead_grid
from .workloads import table1_workloads

__all__ = ["table1_spec"]


def table1_spec(
    workloads: Optional[List[WorkloadSpec]] = None,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 2,
    scale: float = 1.0,
) -> ExperimentSpec:
    """Every Table 1 cell as a declarative grid (126 runs at full scale)."""
    workloads = workloads if workloads is not None else table1_workloads(scale)
    machine = machine or MachineParams.xplorer8()
    baselines, plan, measure = overhead_grid(
        [(w, machine) for w in workloads], SCHEMES_TABLE1, rounds, seed
    )

    def reduce(results: GridResults) -> TableResult:
        wrs = measure(results)
        rows = [{s: wr.per_checkpoint(s) for s in SCHEMES_TABLE1} for wr in wrs]
        view = TableView(
            name="table1",
            title="Table 1: overhead per checkpoint (seconds)",
            headers=["application"] + [s.upper() for s in SCHEMES_TABLE1],
            rows=[
                [wr.label] + [wr.per_checkpoint(s) for s in SCHEMES_TABLE1]
                for wr in wrs
            ],
            fmt=fmt_seconds,
        )
        c1 = SchemeComparison.over(rows, "coord_nb", "indep")
        c2 = SchemeComparison.over(rows, "indep_m", "coord_nbm")
        c3 = SchemeComparison.over(rows, "coord_nbms", "indep_m")
        return TableResult(
            name="table1",
            views=[view],
            shapes={
                "nb_beats_indep_majority": c1.a_wins > c1.b_wins,
                "indep_m_beats_nbm_majority": c2.a_wins > c2.b_wins,
                "nbms_beats_indep_m_majority": c3.a_wins > c3.b_wins,
            },
            summary_lines=[
                f"Coord_NB vs Indep       : {c1}",
                f"Indep_M  vs Coord_NBM   : {c2}",
                f"Coord_NBMS vs Indep_M   : {c3}",
            ],
            data={
                "results": wrs,
                "rows": rows,
                "labels": [wr.label for wr in wrs],
                "schemes": SCHEMES_TABLE1,
            },
        )

    return ExperimentSpec(
        name="table1", baselines=baselines, plan=plan, reduce=reduce
    )
