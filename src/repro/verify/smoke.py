"""Traced smoke runs: exercise every scheme end-to-end and audit the trace.

One small workload runs uncheckpointed to size the interval, then once per
scheme with three checkpoint rounds and a mid-run machine crash, so the
audited traces cover cuts, background writes, commits, rollback, message
replay and (for the GC variant) space reclamation. The trace invariant
engine replays every recorded event stream afterwards.
"""

from __future__ import annotations

from typing import List, Tuple

from .trace_check import TraceReport, check_runtime

__all__ = ["SMOKE_SCHEMES", "make_smoke_scheme", "run_smoke"]

#: the paper's five measured schemes plus the coverage extras: the logged
#: independent variant (message replay from stable logs), a GC-enabled
#: one (gc.run / gc.discard events), and the third protocol family —
#: CIC under both index rules (proto.cic.* events, forced-index audit)
#: and sender-based message logging (proto.mlog.logged, replay bounds).
SMOKE_SCHEMES = (
    "coord_nb",
    "indep",
    "coord_nbm",
    "indep_m",
    "coord_nbms",
    "indep_log",
    "indep_m_log_gc",
    "cic",
    "cic_fdas",
    "indep_m_mlog",
)


def make_smoke_scheme(name: str, times, interval: float):
    """The smoke scheme *name*, checkpointing at *times*."""
    from ..chklib import IndependentScheme
    from ..experiments.harness import INDEP_SKEW_FRACTION, make_scheme

    if name == "indep_m_log_gc":
        return IndependentScheme.IndepM(
            times, skew=INDEP_SKEW_FRACTION * interval, logging=True, gc=True
        )
    return make_scheme(name, times, interval)


def run_smoke(
    seed: int = 0, crash: bool = True, verbose: bool = False
) -> List[Tuple[str, TraceReport]]:
    """Run the smoke battery; returns ``[(scheme, TraceReport), ...]``."""
    from ..chklib.runtime import CheckpointRuntime
    from ..experiments.grid import interval_times
    from ..experiments.workloads import quick_workloads
    from ..fault.model import FaultModel

    workload = quick_workloads()[0]
    normal = CheckpointRuntime(workload.build(), seed=seed).run()
    interval, times = interval_times(normal.sim_time, 3)
    results: List[Tuple[str, TraceReport]] = []
    for name in SMOKE_SCHEMES:
        scheme = make_smoke_scheme(name, times, interval)
        fault = (
            FaultModel.machine_crash(interval * 2.5) if crash else None
        )
        runtime = CheckpointRuntime(
            workload.build(), scheme=scheme, seed=seed, fault_model=fault
        )
        runtime.run()
        report = check_runtime(runtime)
        if verbose:
            print(f"  {name:<16} {report.summary()}")
        results.append((name, report))
    return results
