"""Ablation experiments for the design choices the paper calls out.

A1 — *staggering only pays with main-memory checkpointing*: compare the
four coordinated variants NB / NBS / NBM / NBMS on the same workloads.
NBS (staggered blocking writes) serialises the blocked windows and should
be the worst column; NBMS the best — the paper's prose claim.

A2 — *synchronisation is negligible; saving dominates*: decompose the
coordinated overhead into protocol traffic (markers/acks/commits, bytes
and wire time) versus checkpoint-saving time, per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis import TableResult, TableView, fmt_seconds
from ..machine import MachineParams
from .grid import ExperimentSpec, GridResults, WorkloadSpec
from .harness import overhead_grid
from .workloads import table23_workloads

__all__ = ["staggering_spec", "SyncCostRow", "sync_cost_spec"]

_VARIANTS = ("coord_nb", "coord_nbs", "coord_nbm", "coord_nbms")


def staggering_spec(
    workloads: Optional[List[WorkloadSpec]] = None,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 2,
    scale: float = 1.0,
) -> ExperimentSpec:
    """A1: the four coordinated variants on the same workloads."""
    workloads = (
        workloads if workloads is not None else table23_workloads(scale)[:4]
    )
    machine = machine or MachineParams.xplorer8()
    baselines, plan, measure = overhead_grid(
        [(w, machine) for w in workloads], _VARIANTS, rounds, seed
    )

    def reduce(results: GridResults) -> TableResult:
        wrs = measure(results)
        rows = [{v: wr.per_checkpoint(v) for v in _VARIANTS} for wr in wrs]
        view = TableView(
            name="ablation-staggering",
            title="A1: staggering ablation, overhead per checkpoint (s)",
            headers=["application"] + [v.upper() for v in _VARIANTS],
            rows=[
                [wr.label] + [wr.per_checkpoint(v) for v in _VARIANTS]
                for wr in wrs
            ],
            fmt=fmt_seconds,
        )
        nbs_never_best = all(
            row["coord_nbs"] >= min(row.values()) for row in rows
        )
        nbms_wins = sum(
            1 for row in rows if row["coord_nbms"] == min(row.values())
        )
        stagger_helps_memory = sum(
            1 for row in rows if row["coord_nbms"] <= row["coord_nbm"]
        )
        return TableResult(
            name="ablation-staggering",
            views=[view],
            shapes={
                # staggering alone must not help; with memory ckpt it must.
                "nbs_never_best": nbs_never_best,
                "nbms_best_majority": nbms_wins > len(rows) / 2,
                "stagger_helps_with_memory": stagger_helps_memory
                > len(rows) / 2,
            },
            summary_lines=[
                f"NBMS best in {nbms_wins}/{len(rows)} workloads; "
                f"NBS never best: {nbs_never_best}",
            ],
            data={"results": wrs, "rows": rows, "variants": _VARIANTS},
        )

    return ExperimentSpec(
        name="ablation-staggering", baselines=baselines, plan=plan, reduce=reduce
    )


@dataclass
class SyncCostRow:
    """Protocol-vs-saving decomposition for one workload under Coord_NB."""

    label: str
    overhead_s: float
    blocked_time_s: float  #: app time lost to state saving (all ranks)
    control_messages: int
    control_bytes: int
    control_wire_s: float  #: total wire time of all protocol messages

    @property
    def sync_fraction(self) -> float:
        """Share of the overhead attributable to protocol traffic."""
        if self.overhead_s <= 0:
            return 0.0
        return min(1.0, self.control_wire_s / self.overhead_s)


def sync_cost_spec(
    workloads: Optional[List[WorkloadSpec]] = None,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 3,
    scale: float = 1.0,
) -> ExperimentSpec:
    """A2: the Coord_NB overhead decomposed into sync vs saving cost."""
    workloads = (
        workloads if workloads is not None else table23_workloads(scale)[:4]
    )
    machine = machine or MachineParams.xplorer8()
    baselines, plan, measure = overhead_grid(
        [(w, machine) for w in workloads], ("coord_nb",), rounds, seed
    )

    def reduce(results: GridResults) -> TableResult:
        link = machine.link
        rows: List[SyncCostRow] = []
        for wr in measure(results):
            report = wr.reports["coord_nb"]
            per_msg = report.control_bytes / max(1, report.control_messages)
            wire = (
                link.latency + per_msg / link.bandwidth
            ) * report.control_messages
            rows.append(
                SyncCostRow(
                    label=wr.label,
                    overhead_s=wr.overhead_seconds("coord_nb"),
                    blocked_time_s=report.blocked_time,
                    control_messages=report.control_messages,
                    control_bytes=report.control_bytes,
                    control_wire_s=wire,
                )
            )
        view = TableView(
            name="ablation-sync",
            title="A2: synchronisation cost vs saving cost",
            headers=[
                "application",
                "overhead(s)",
                "saving-blocked(s)",
                "ctl msgs",
                "ctl bytes",
                "ctl wire(s)",
                "sync share",
            ],
            rows=[
                [
                    r.label,
                    fmt_seconds(r.overhead_s),
                    fmt_seconds(r.blocked_time_s),
                    r.control_messages,
                    r.control_bytes,
                    f"{r.control_wire_s:.4f}",
                    f"{100 * r.sync_fraction:.2f} %",
                ]
                for r in rows
            ],
        )
        return TableResult(
            name="ablation-sync",
            views=[view],
            shapes={
                # the paper: "the cost of synchronisation is actually
                # insignificant" — protocol wire time is a tiny share.
                "sync_cost_negligible": all(
                    r.sync_fraction < 0.05 for r in rows
                ),
                "saving_dominates": all(
                    r.blocked_time_s > 10 * r.control_wire_s for r in rows
                ),
            },
            summary_lines=[
                "max sync share: "
                f"{100 * max(r.sync_fraction for r in rows):.2f} %",
            ],
            data={"rows": rows},
        )

    return ExperimentSpec(
        name="ablation-sync", baselines=baselines, plan=plan, reduce=reduce
    )
