"""R3: recovery under faulty stable storage — the self-healing claims.

The paper assumes stable storage is *stable*. The fault-injection
subsystem drops that assumption: writes and reads fail transiently with a
configurable probability, and completed checkpoint images rot silently
(caught only by checksum validation at recovery time). This experiment
runs all five headline schemes under increasing storage-fault rates, each
run facing a machine crash, and checks the defensive machinery end to end:

* every run still finishes with the **exact** undisturbed result —
  retries, round aborts, quarantine and line fallback degrade performance,
  never correctness;
* every recovery restores a line satisfying the scheme's own
  recoverability requirement (``RecoveryEvent.line_consistent``);
* the fault-free column stays byte-for-byte clean (no retries, no aborts,
  no quarantines), so the machinery costs nothing when storage behaves.

A second, *targeted* pass forces the rare paths deterministically: a
scheduled write failure with a zero-retry budget (coordinated must abort
the 2PC round; independent drops the local checkpoint), and scheduled
silent corruption of a committed checkpoint (recovery must quarantine it
and fall back to an older line).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..analysis import TableResult, TableView
from ..chklib import RunReport
from ..fault import FaultModel, StorageFaultSpec
from ..machine import MachineParams
from ..chklib.schemes.registry import skewed
from .grid import Cell, ExperimentSpec, GridResults, SchemeSpec, WorkloadSpec
from .workloads import fault_workload

__all__ = ["resilience_spec", "RESILIENCE_SCHEMES"]

#: the five headline schemes of the sweep (paper naming), plus the third
#: protocol family (communication-induced + sender-based message logging).
RESILIENCE_SCHEMES = (
    "coord_nb",
    "coord_nbm",
    "coord_nbms",
    "indep_m_log",
    "indep_m_nolog",
    "cic",
    "indep_m_mlog",
)

#: schemes whose storage writes are checkpoint images, so a scheduled
#: unretryable write failure drops a local checkpoint (coordinated rounds
#: abort instead; msglog's early writes are message-log records, which
#: degrade to optimistic logging without touching any checkpoint).
_LOCAL_DROP_SCHEMES = ("indep_m_log", "indep_m_nolog", "cic")


def _result_key(report: RunReport) -> Any:
    return report.result["sum"]


def resilience_spec(
    fault_rates: Sequence[float] = (0.0, 0.02, 0.10),
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    workload: Optional[WorkloadSpec] = None,
    scale: float = 1.0,
) -> ExperimentSpec:
    """The full resilience sweep (deterministic per *seed*)."""
    machine = machine or MachineParams(n_nodes=4)
    workload = workload or fault_workload(scale)
    rates = sorted(fault_rates)
    baseline = Cell(workload=workload, machine=machine, seed=seed)

    def cells_for(results: GridResults):
        T = results[baseline].sim_time
        times = (T / 4, T / 2)
        skew = T / 50

        def scheme(name: str) -> SchemeSpec:
            if skewed(name):
                return SchemeSpec.of(name, times, skew=skew)
            return SchemeSpec.of(name, times)

        def cell(name: str, model: FaultModel) -> Cell:
            return Cell(
                workload=workload,
                scheme=scheme(name),
                machine=machine,
                seed=seed,
                fault=model,
            )

        sweep = {
            (name, p): cell(
                name,
                FaultModel(
                    machine_crash_times=(0.8 * T,),
                    storage=StorageFaultSpec(
                        write_fail_p=p, read_fail_p=p, corrupt_p=p / 2
                    ),
                ),
            )
            for name in RESILIENCE_SCHEMES
            for p in rates
        }
        # targeted: the second storage write fails with no retry budget —
        # the cleanest way to force an abort (coordinated) / a drop
        # (independent)
        write_failure = {
            name: cell(
                name,
                FaultModel(
                    machine_crash_times=(0.8 * T,),
                    storage=StorageFaultSpec(fail_writes_at=(2,)),
                    max_retries=0,
                ),
            )
            for name in RESILIENCE_SCHEMES
        }
        # targeted: rank 1's second checkpoint rots after commit; the
        # crash then forces quarantine + fallback to an older line
        corruption = {
            name: cell(
                name,
                FaultModel(
                    machine_crash_times=(0.9 * T,),
                    storage=StorageFaultSpec(corrupt_ckpts=((1, 2),)),
                ),
            )
            for name in RESILIENCE_SCHEMES
        }
        return sweep, write_failure, corruption

    def plan(results: GridResults):
        sweep, write_failure, corruption = cells_for(results)
        return (
            list(sweep.values())
            + list(write_failure.values())
            + list(corruption.values())
        )

    def reduce(results: GridResults) -> TableResult:
        T = results[baseline].sim_time
        expected = _result_key(results[baseline])
        sweep_cells, wf_cells, corr_cells = cells_for(results)
        sweep: Dict[str, Dict[float, RunReport]] = {}
        for (name, p), c in sweep_cells.items():
            sweep.setdefault(name, {})[p] = results[c]
        write_failure = {n: results[c] for n, c in wf_cells.items()}
        corruption = {n: results[c] for n, c in corr_cells.items()}

        headers = [
            "scheme",
            "fault rate",
            "time",
            "faults w/r",
            "retries w/r",
            "aborted",
            "dropped",
            "quarantined",
            "recoveries",
        ]

        def row(name: str, label: str, rep: RunReport) -> List[str]:
            sound = all(ev.line_consistent for ev in rep.recoveries)
            return [
                name,
                label,
                f"{rep.sim_time / T:.2f}x",
                f"{rep.storage_write_faults}/{rep.storage_read_faults}",
                f"{rep.storage_write_retries}/{rep.storage_read_retries}",
                str(rep.rounds_aborted),
                str(rep.ckpt_writes_failed),
                str(rep.checkpoints_quarantined),
                f"{len(rep.recoveries)}{'' if sound else ' UNSOUND'}",
            ]

        view_sweep = TableView(
            name="resilience",
            title="R3: resilience under faulty stable storage (crash at 0.8 T)",
            headers=headers,
            rows=[
                row(name, f"p={p:g}", sweep[name][p])
                for name in RESILIENCE_SCHEMES
                for p in rates
            ],
        )
        view_targeted = TableView(
            name="resilience-targeted",
            title="R3b: targeted faults (scheduled write failure / corruption)",
            headers=headers,
            rows=[
                row(name, "write-fail", write_failure[name])
                for name in RESILIENCE_SCHEMES
            ]
            + [
                row(name, "corrupt", corruption[name])
                for name in RESILIENCE_SCHEMES
            ],
        )

        reports = (
            [r for per in sweep.values() for r in per.values()]
            + list(write_failure.values())
            + list(corruption.values())
        )
        clean = [sweep[s][0.0] for s in RESILIENCE_SCHEMES] if 0.0 in rates else []
        high = max(rates)
        hot = [sweep[s][high] for s in RESILIENCE_SCHEMES]
        coord = [
            write_failure[s]
            for s in RESILIENCE_SCHEMES
            if s.startswith("coord")
        ]
        indep = [write_failure[s] for s in _LOCAL_DROP_SCHEMES]
        mlog = write_failure["indep_m_mlog"]
        shapes = {
            # retries/aborts/quarantine degrade time, never correctness
            "all_results_exact": all(
                _result_key(r) == expected for r in reports
            ),
            # every recovery happened and restored a sound line
            "all_recoveries_sound": all(
                r.recoveries
                and all(ev.line_consistent for ev in r.recoveries)
                for r in reports
            ),
            # the machinery is free when storage behaves
            "fault_free_is_clean": all(
                r.storage_write_faults == 0
                and r.storage_read_faults == 0
                and r.storage_write_retries == 0
                and r.storage_read_retries == 0
                and r.rounds_aborted == 0
                and r.ckpt_writes_failed == 0
                and r.checkpoints_quarantined == 0
                for r in clean
            ),
            # the high-rate column actually exercised the injector ...
            "faults_injected": sum(
                r.storage_write_faults + r.storage_read_faults for r in hot
            )
            > 0,
            # ... and retries absorbed (most of) them
            "retries_absorb_faults": sum(
                r.storage_write_retries for r in hot
            )
            > 0,
            # an unretryable write failure aborts the coordinated round ...
            "coordinated_aborts_cleanly": all(
                r.rounds_aborted >= 1 for r in coord
            ),
            # ... while independent-family schemes drop the local checkpoint
            "independent_drops_locally": all(
                r.ckpt_writes_failed >= 1 and r.rounds_aborted == 0
                for r in indep
            ),
            # msglog's failed write is a message-log record: it degrades
            # to optimistic logging — no abort, no dropped checkpoint
            "mlog_degrades_to_optimistic": (
                mlog.rounds_aborted == 0 and mlog.ckpt_writes_failed == 0
            ),
            # silent corruption is caught and quarantined at recovery
            "corruption_quarantined": all(
                r.checkpoints_quarantined >= 1 for r in corruption.values()
            ),
        }
        return TableResult(
            name="resilience",
            views=[view_sweep, view_targeted],
            shapes=shapes,
            summary_lines=[
                f"{len(reports)} faulted runs, all exact: "
                f"{shapes['all_results_exact']}",
            ],
            data={
                "fault_rates": rates,
                "normal_time": T,
                "expected": expected,
                "sweep": sweep,
                "write_failure": write_failure,
                "corruption": corruption,
            },
        )

    return ExperimentSpec(
        name="resilience",
        baselines=(baseline,),
        plan=plan,
        reduce=reduce,
    )
