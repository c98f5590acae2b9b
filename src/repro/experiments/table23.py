"""Tables 2 and 3: execution times and overhead percentages.

One set of runs feeds both tables (as in the paper): every application is
run uncheckpointed (NORMAL) and under ``Coord_NB``, ``Indep``,
``Coord_NBMS`` and ``Indep_M``, with exactly three checkpoints.  The
single grid result carries both tables as views (``table2``/``table3``),
so the runner needs no adapter classes.

* **Table 2** reports the execution times (seconds).
* **Table 3** reports the checkpoint interval and the overhead as a
  percentage of NORMAL, and carries the paper's headline: staggering +
  main-memory checkpointing reduces the Coord_NB overhead by a factor of
  4-17, and ``Coord_NBMS`` beats ``Indep_M`` in the tightly-coupled apps.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..analysis import (
    SchemeComparison,
    TableResult,
    TableView,
    fmt_percent,
    fmt_seconds,
    reduction_factor,
)
from ..machine import MachineParams
from .grid import ExperimentSpec, GridResults, WorkloadSpec
from .harness import SCHEMES_TABLE23, overhead_grid
from .workloads import table23_workloads

__all__ = ["table23_spec"]


def table23_spec(
    workloads: Optional[List[WorkloadSpec]] = None,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 3,
    scale: float = 1.0,
) -> ExperimentSpec:
    """The shared Table 2/3 grid (45 runs at full scale)."""
    workloads = workloads if workloads is not None else table23_workloads(scale)
    machine = machine or MachineParams.xplorer8()
    baselines, plan, measure = overhead_grid(
        [(w, machine) for w in workloads], SCHEMES_TABLE23, rounds, seed
    )

    def reduce(results: GridResults) -> TableResult:
        wrs = measure(results)
        overhead_rows = [
            {s: wr.overhead_percent(s) for s in SCHEMES_TABLE23} for wr in wrs
        ]
        table2 = TableView(
            name="table2",
            title="Table 2: execution times (seconds, 3 checkpoints)",
            headers=["application", "NORMAL"]
            + [s.upper() for s in SCHEMES_TABLE23],
            rows=[
                [wr.label, wr.normal_time]
                + [wr.reports[s].sim_time for s in SCHEMES_TABLE23]
                for wr in wrs
            ],
            fmt=fmt_seconds,
        )
        table3 = TableView(
            name="table3",
            title="Table 3: performance overhead (percent)",
            headers=["application", "interval(s)"]
            + [s.upper() for s in SCHEMES_TABLE23],
            rows=[
                [wr.label, f"{wr.interval:.0f}"]
                + [fmt_percent(wr.overhead_percent(s)) for s in SCHEMES_TABLE23]
                for wr in wrs
            ],
        )
        red = reduction_factor(overhead_rows, "coord_nb", "coord_nbms")
        cmps: Dict[str, SchemeComparison] = {
            "nb_vs_indep": SchemeComparison.over(
                overhead_rows, "coord_nb", "indep"
            ),
            "nbms_vs_indep_m": SchemeComparison.over(
                overhead_rows, "coord_nbms", "indep_m"
            ),
        }
        tight = [
            row
            for wr, row in zip(wrs, overhead_rows)
            if not wr.label.startswith(("tsp", "nqueens"))
        ]
        loose = [
            row
            for wr, row in zip(wrs, overhead_rows)
            if wr.label.startswith(("tsp", "nqueens"))
        ]
        return TableResult(
            name="table23",
            views=[table2, table3],
            shapes={
                # staggering + memory gives a large reduction over plain NB
                "nbms_reduction_large": red["min"] >= 2.0 and red["max"] >= 6.0,
                # coordinated wins overall in both pairings
                "nb_beats_indep_overall": (
                    cmps["nb_vs_indep"].a_wins >= cmps["nb_vs_indep"].b_wins
                ),
                "nbms_beats_indep_m_overall": (
                    cmps["nbms_vs_indep_m"].a_wins
                    > cmps["nbms_vs_indep_m"].b_wins
                ),
                # loosely-coupled apps have tiny overheads under the best
                # schemes
                "loose_apps_sub_percent": all(
                    row["coord_nbms"] < 1.0 for row in loose
                ),
                # tightly-coupled apps dominate the overhead ranking under NB
                "tight_apps_heavier": (
                    max(r["coord_nb"] for r in tight)
                    > max((r["coord_nb"] for r in loose), default=0.0)
                ),
            },
            summary_lines=[
                f"NB -> NBMS overhead reduction factor: "
                f"min {red['min']:.1f}x, max {red['max']:.1f}x, "
                f"mean {red['mean']:.1f}x",
                f"Coord_NB   vs Indep   : {cmps['nb_vs_indep']}",
                f"Coord_NBMS vs Indep_M : {cmps['nbms_vs_indep_m']}",
            ],
            data={
                "results": wrs,
                "overhead_rows": overhead_rows,
                "reduction": red,
                "comparisons": cmps,
                "schemes": SCHEMES_TABLE23,
            },
        )

    return ExperimentSpec(
        name="table23", baselines=baselines, plan=plan, reduce=reduce
    )
