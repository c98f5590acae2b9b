"""Recovery-side experiments (R1/R2): domino effect and storage overhead.

The paper asserts — without a table — that independent checkpointing
(a) risks the domino effect and unpredictable rollback, and (b) needs much
more stable storage even with garbage collection, while coordinated
checkpointing bounds both. These experiments measure exactly that.

R1 — crash each workload under ``Coord_NBMS`` and under ``Indep_M`` (with
and without timer skew) and report rollback distance and domino extent.
The third protocol family rides along at the same unfavourable skew:
communication-induced checkpointing (``cic``) and sender-based message
logging (``indep_m_mlog``) must both eliminate the domino effect the
skewed unlogged independent column exhibits.

R2 — run ``Indep_M`` with and without garbage collection and ``Coord_NBMS``
and report peak checkpoints and peak stable-storage bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis import TableResult, TableView
from ..fault.model import FaultModel
from ..machine import MachineParams
from .grid import Cell, ExperimentSpec, GridResults, SchemeSpec, WorkloadSpec, interval_times
from .workloads import table23_workloads

__all__ = ["DominoRow", "domino_spec", "StorageRow", "storage_overhead_spec"]


@dataclass
class DominoRow:
    label: str
    scheme: str
    checkpoints_before_crash: int
    rollback_checkpoints: float  #: mean over ranks
    domino_extent: float
    lost_time_mean: float
    recovered_exactly: bool


def _result_scalar(report) -> object:
    r = report.result
    for key in ("sum", "magnetisation", "distsum", "pos_sum", "x_sum",
                "optimum", "solutions"):
        if key in r:
            return r[key]
    raise AssertionError(f"no scalar in {r}")


def _default_recovery_workloads(scale: float) -> List[WorkloadSpec]:
    return [
        w for w in table23_workloads(scale) if w.label in ("sor-320", "ising-288")
    ]


def domino_spec(
    workloads: Optional[List[WorkloadSpec]] = None,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 3,
    scale: float = 1.0,
) -> ExperimentSpec:
    """R1: rollback behaviour when a crash hits late in the run."""
    workloads = (
        workloads
        if workloads is not None
        else _default_recovery_workloads(scale)
    )
    machine = machine or MachineParams.xplorer8()
    baselines = tuple(
        Cell(workload=w, machine=machine, seed=seed) for w in workloads
    )

    def cells_for(results: GridResults):
        grid = []
        for w, base in zip(workloads, baselines):
            t = results[base].sim_time
            interval, times = interval_times(t, rounds)
            crash = FaultModel.machine_crash(0.9 * t)
            variants = (
                ("coord_nbms", SchemeSpec.of("coord_nbms", times)),
                (
                    "indep_m(aligned)",
                    SchemeSpec.of("indep_m", times, skew=interval / 500),
                ),
                (
                    "indep_m(skew)",
                    SchemeSpec.of("indep_m", times, skew=interval / 2),
                ),
                # the third family, at the same unfavourable skew: forced
                # checkpoints (cic) / stable message logs (mlog) bound the
                # rollback that dominos in the unlogged column above.
                ("cic(skew)", SchemeSpec.of("cic", times, skew=interval / 2)),
                (
                    "mlog(skew)",
                    SchemeSpec.of(
                        "indep_m_mlog", times, skew=interval / 2
                    ),
                ),
            )
            row = [
                (
                    name,
                    Cell(
                        workload=w,
                        scheme=spec,
                        machine=machine,
                        seed=seed,
                        fault=crash,
                    ),
                )
                for name, spec in variants
            ]
            grid.append((w, base, row))
        return grid

    def plan(results: GridResults):
        return [c for _, _, row in cells_for(results) for _, c in row]

    def reduce(results: GridResults) -> TableResult:
        rows: List[DominoRow] = []
        for w, base, row in cells_for(results):
            expected = _result_scalar(results[base])
            for scheme_name, cell in row:
                report = results[cell]
                rec = report.recoveries[0]
                n = report.n_nodes
                rows.append(
                    DominoRow(
                        label=w.label,
                        scheme=scheme_name,
                        checkpoints_before_crash=rounds,
                        rollback_checkpoints=(
                            sum(rec.rollback_checkpoints.values()) / n
                        ),
                        domino_extent=rec.domino_extent,
                        lost_time_mean=sum(rec.lost_time.values()) / n,
                        recovered_exactly=_result_scalar(report) == expected,
                    )
                )
        view = TableView(
            name="domino",
            title="R1: rollback behaviour at a crash",
            headers=[
                "application",
                "scheme",
                "ckpts",
                "rollback (ckpts)",
                "domino extent",
                "lost time (s)",
                "exact",
            ],
            rows=[
                [
                    r.label,
                    r.scheme,
                    r.checkpoints_before_crash,
                    f"{r.rollback_checkpoints:.2f}",
                    f"{r.domino_extent:.2f}",
                    f"{r.lost_time_mean:.1f}",
                    "yes" if r.recovered_exactly else "NO",
                ]
                for r in rows
            ],
        )
        coord = [r for r in rows if r.scheme.startswith("coord")]
        indep_skewed = [r for r in rows if r.scheme == "indep_m(skew)"]
        third_family = [
            r for r in rows if r.scheme in ("cic(skew)", "mlog(skew)")
        ]
        return TableResult(
            name="domino",
            views=[view],
            shapes={
                "all_recoveries_exact": all(
                    r.recovered_exactly for r in rows
                ),
                # coordinated: predictable, bounded rollback (≤ 1 interval)
                "coordinated_bounded_rollback": all(
                    r.rollback_checkpoints <= 1.0 and r.domino_extent == 0.0
                    for r in coord
                ),
                # skewed independent without logging dominos somewhere
                "independent_domino_occurs": any(
                    r.domino_extent == 1.0 for r in indep_skewed
                ),
                # the third family kills the domino at the same skew:
                # forced checkpoints / stable logs keep every rank off
                # index 0 however the timers drift.
                "third_family_no_domino": bool(third_family)
                and all(r.domino_extent == 0.0 for r in third_family),
            },
            summary_lines=[
                f"{len(rows)} crash recoveries, all exact: "
                f"{all(r.recovered_exactly for r in rows)}",
            ],
            data={"rows": rows},
        )

    return ExperimentSpec(
        name="domino",
        baselines=baselines,
        plan=plan,
        reduce=reduce,
    )



@dataclass
class StorageRow:
    label: str
    scheme: str
    peak_checkpoints: int
    peak_bytes: float
    final_bytes: float
    bytes_written: float


_STORAGE_VARIANTS = ("coord_nbms", "indep_m", "indep_m+gc", "indep_m+log+gc")


def storage_overhead_spec(
    workloads: Optional[List[WorkloadSpec]] = None,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 4,
    scale: float = 1.0,
) -> ExperimentSpec:
    """R2: peak stable-storage footprint per scheme."""
    workloads = (
        workloads
        if workloads is not None
        else _default_recovery_workloads(scale)
    )
    machine = machine or MachineParams.xplorer8()
    baselines = tuple(
        Cell(workload=w, machine=machine, seed=seed) for w in workloads
    )

    def cells_for(results: GridResults):
        grid = []
        for w, base in zip(workloads, baselines):
            interval, times = interval_times(results[base].sim_time, rounds)
            skew = 0.08 * interval
            variants = (
                ("coord_nbms", SchemeSpec.of("coord_nbms", times)),
                ("indep_m", SchemeSpec.of("indep_m", times, skew=skew)),
                (
                    "indep_m+gc",
                    SchemeSpec.of("indep_m", times, skew=skew, gc=True),
                ),
                (
                    "indep_m+log+gc",
                    SchemeSpec.of(
                        "indep_m", times, skew=skew, logging=True, gc=True
                    ),
                ),
            )
            row = [
                (
                    name,
                    Cell(workload=w, scheme=spec, machine=machine, seed=seed),
                )
                for name, spec in variants
            ]
            grid.append((w, row))
        return grid

    def plan(results: GridResults):
        return [c for _, row in cells_for(results) for _, c in row]

    def reduce(results: GridResults) -> TableResult:
        rows: List[StorageRow] = []
        for w, row in cells_for(results):
            for scheme_name, cell in row:
                report = results[cell]
                rows.append(
                    StorageRow(
                        label=w.label,
                        scheme=scheme_name,
                        peak_checkpoints=report.storage_peak_checkpoints,
                        peak_bytes=report.storage_peak_bytes,
                        final_bytes=report.storage_final_bytes,
                        bytes_written=report.storage_bytes_written,
                    )
                )
        view = TableView(
            name="storage-overhead",
            title="R2: stable-storage overhead",
            headers=[
                "application",
                "scheme",
                "peak ckpts",
                "peak MB",
                "final MB",
                "written MB",
            ],
            rows=[
                [
                    r.label,
                    r.scheme,
                    r.peak_checkpoints,
                    f"{r.peak_bytes / 1e6:.2f}",
                    f"{r.final_bytes / 1e6:.2f}",
                    f"{r.bytes_written / 1e6:.2f}",
                ]
                for r in rows
            ],
        )
        by_scheme: Dict[str, List[StorageRow]] = {}
        for r in rows:
            by_scheme.setdefault(r.scheme, []).append(r)
        coord = by_scheme.get("coord_nbms", [])
        indep = by_scheme.get("indep_m", [])
        indep_gc = by_scheme.get("indep_m+gc", [])
        log_gc = by_scheme.get("indep_m+log+gc", [])
        n = 8
        return TableResult(
            name="storage-overhead",
            views=[view],
            shapes={
                # coordinated holds at most two checkpoints per process
                "coordinated_bounded": all(
                    r.peak_checkpoints <= 2 * n for r in coord
                ),
                # uncollected independent chains grow with every round
                "independent_accumulates": all(
                    ri.peak_checkpoints > rc.peak_checkpoints
                    for ri, rc in zip(indep, coord)
                ),
                # the paper's claim: without message logging, GC cannot
                # advance past the (domino-prone) transitless line —
                # several checkpoints stay in stable storage anyway.
                "gc_without_logs_ineffective": all(
                    rg.peak_checkpoints >= rc.peak_checkpoints
                    and rg.peak_bytes >= rc.peak_bytes
                    for rg, rc in zip(indep_gc, coord)
                ),
                # extension finding: logging-based (orphan-tolerant)
                # recovery lets GC keep essentially one checkpoint per
                # process — the modern fix the paper's citations
                # anticipate.
                "logging_gc_collects": all(
                    rl.peak_checkpoints < ri.peak_checkpoints
                    for rl, ri in zip(log_gc, indep)
                ),
            },
            summary_lines=[
                "peak checkpoints by scheme: "
                + ", ".join(
                    f"{s}={max((r.peak_checkpoints for r in by_scheme.get(s, [])), default=0)}"
                    for s in _STORAGE_VARIANTS
                ),
            ],
            data={"rows": rows, "by_scheme": by_scheme},
        )

    return ExperimentSpec(
        name="storage-overhead",
        baselines=baselines,
        plan=plan,
        reduce=reduce,
    )
