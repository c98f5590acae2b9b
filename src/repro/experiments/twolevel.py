"""E3 extension: two-level stable storage.

The authors' own follow-up technique ("Using two-level stable storage for
efficient checkpointing", Silva & Silva): the capture write goes to the
node's private local disk — fast, contention-free, outside the interconnect
— and a background "trickle" copies it to the global server afterwards.

Measured effects:

* the blocking write of ``Coord_NB`` becomes cheap (no queueing at the
  global server, no interconnect crossing), collapsing most of the gap to
  the memory-buffered variants without needing a spare memory buffer;
* recovery reads restore from the local disks in parallel instead of
  queueing at the global server;
* the global server still receives every byte (the trickle), so the
  safety level against losing a node's disk is retained, just delayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis import TableResult, TableView, fmt_seconds
from ..fault.model import FaultModel
from ..machine import MachineParams
from .grid import Cell, ExperimentSpec, GridResults, SchemeSpec, WorkloadSpec, interval_times
from .workloads import table23_workloads

__all__ = ["TwoLevelRow", "two_level_spec"]

_VARIANTS = ("coord_nb", "coord_nb_2l", "coord_nbms", "coord_nbms_2l")


@dataclass
class TwoLevelRow:
    label: str
    scheme: str
    overhead_pct: float
    blocked_s: float
    recovery_s: float
    global_bytes: float


def two_level_spec(
    workloads: Optional[List[WorkloadSpec]] = None,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 3,
    scale: float = 1.0,
) -> ExperimentSpec:
    """E3: NB and NBMS with and without the two-level storage path."""
    if workloads is None:
        wanted = ("ising-288", "sor-320")
        workloads = [w for w in table23_workloads(scale) if w.label in wanted]
    machine = machine or MachineParams.xplorer8()
    baselines = tuple(
        Cell(workload=w, machine=machine, seed=seed) for w in workloads
    )

    def cells_for(results: GridResults):
        grid = []
        for w, base in zip(workloads, baselines):
            T = results[base].sim_time
            _, times = interval_times(T, rounds)
            crash = FaultModel.machine_crash(0.9 * T)
            row = []
            for alias in _VARIANTS:
                spec = SchemeSpec.of(alias, times)
                ff = Cell(workload=w, scheme=spec, machine=machine, seed=seed)
                crashed = Cell(
                    workload=w,
                    scheme=spec,
                    machine=machine,
                    seed=seed,
                    fault=crash,
                )
                row.append((alias, ff, crashed))
            grid.append((w, base, row))
        return grid

    def plan(results: GridResults):
        return [
            c
            for _, _, row in cells_for(results)
            for _, ff, crashed in row
            for c in (ff, crashed)
        ]

    def reduce(results: GridResults) -> TableResult:
        rows: List[TwoLevelRow] = []
        for w, base, row in cells_for(results):
            T = results[base].sim_time
            for _, ff, crashed in row:
                report = results[ff]
                rows.append(
                    TwoLevelRow(
                        label=w.label,
                        scheme=report.scheme,
                        overhead_pct=100 * (report.sim_time - T) / T,
                        blocked_s=report.blocked_time,
                        recovery_s=results[crashed].recoveries[0].duration,
                        global_bytes=report.storage_bytes_written,
                    )
                )
        view = TableView(
            name="two-level",
            title="E3: two-level stable storage",
            headers=[
                "application",
                "scheme",
                "overhead",
                "blocked(s)",
                "recovery(s)",
                "global MB",
            ],
            rows=[
                [
                    r.label,
                    r.scheme,
                    f"{r.overhead_pct:.2f} %",
                    fmt_seconds(r.blocked_s),
                    f"{r.recovery_s:.3f}",
                    f"{r.global_bytes / 1e6:.2f}",
                ]
                for r in rows
            ],
        )
        by: Dict[str, Dict[str, TwoLevelRow]] = {}
        for r in rows:
            by.setdefault(r.label, {})[r.scheme] = r
        checks = {
            "nb_overhead_collapses": True,
            "recovery_faster": True,
            "global_still_receives_everything": True,
        }
        for label, schemes in by.items():
            nb, nb2 = schemes["coord_nb"], schemes["coord_nb_2l"]
            # the blocking cost collapses; what remains is the (NBM-like)
            # background interference of the unstaggered trickle
            checks["nb_overhead_collapses"] &= (
                nb2.overhead_pct < 0.55 * nb.overhead_pct
                and nb2.blocked_s < 0.1 * nb.blocked_s
            )
            checks["recovery_faster"] &= nb2.recovery_s < nb.recovery_s
            checks["global_still_receives_everything"] &= (
                nb2.global_bytes >= 0.95 * nb.global_bytes
            )
        return TableResult(
            name="two-level",
            views=[view],
            shapes=checks,
            summary_lines=[
                f"{len(by)} workloads x {len(_VARIANTS)} variants",
            ],
            data={"rows": rows, "by_label": by},
        )

    return ExperimentSpec(
        name="two-level",
        baselines=baselines,
        plan=plan,
        reduce=reduce,
    )
