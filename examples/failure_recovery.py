#!/usr/bin/env python
"""Recovery cost anatomy: what a crash actually costs under each scheme.

Crashes the ASP benchmark at several points in its run under coordinated
and independent (logging) checkpointing, and reports for each: the restore
line, work lost, recovery I/O time, replayed channel messages, and whether
the final answer survived intact.

    python examples/failure_recovery.py
"""

from repro.apps import ASP
from repro.chklib import (
    CheckpointRuntime,
    CoordinatedScheme,
    FaultModel,
    IndependentScheme,
)
from repro.machine import MachineParams


def main() -> None:
    machine = MachineParams.xplorer8()
    make_app = lambda: ASP(n=288, flops_per_cell=24.0)
    baseline = CheckpointRuntime(make_app(), machine=machine, seed=4).run()
    T = baseline.sim_time
    times = [T * f for f in (0.2, 0.4, 0.6)]
    print(f"ASP n=288: baseline {T:.1f} s, checkpoints at "
          f"{[f'{t:.0f}s' for t in times]}\n")

    header = (
        f"{'scheme':<14} {'crash@':>7} {'line':>6} {'lost(s)':>8} "
        f"{'recovery(s)':>12} {'replayed':>9} {'exact':>6}"
    )
    print(header)
    print("-" * len(header))
    for crash_frac in (0.3, 0.55, 0.9):
        for name, scheme_factory in (
            ("coord_nbms", lambda: CoordinatedScheme.NBMS(times)),
            (
                "indep_m+log",
                lambda: IndependentScheme.IndepM(
                    times, skew=T / 40, logging=True
                ),
            ),
        ):
            report = CheckpointRuntime(
                make_app(),
                scheme=scheme_factory(),
                machine=machine,
                seed=4,
                fault_model=FaultModel.machine_crash(crash_frac * T),
            ).run()
            rec = report.recoveries[0]
            line = sorted(set(rec.line_indices.values()))
            exact = report.result["distsum"] == baseline.result["distsum"]
            print(
                f"{name:<14} {crash_frac * T:>6.0f}s {str(line):>6} "
                f"{max(rec.lost_time.values()):>8.1f} "
                f"{rec.duration:>12.3f} {rec.replayed_messages:>9} "
                f"{'yes' if exact else 'NO':>6}"
            )


if __name__ == "__main__":
    main()
