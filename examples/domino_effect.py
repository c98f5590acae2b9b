#!/usr/bin/env python
"""The domino effect, live.

Runs the ISING spin glass under independent checkpointing and crashes it:

* with *aligned* timers, all ranks cut at the same iteration boundary —
  halo-exchange apps are naturally transitless there, so recovery finds a
  recent consistent line;
* with *skewed* timers (more realistic for autonomous clocks), cuts land on
  different iteration boundaries; without message logging no consistent
  transitless line exists above the start and the rollback cascades all
  the way — the domino effect;
* sender-based message logging breaks the cascade: any consistent line is
  recoverable because in-transit messages replay from the logs.

    python examples/domino_effect.py
"""

from repro.apps import Ising
from repro.chklib import CheckpointRuntime, FaultModel, IndependentScheme
from repro.machine import MachineParams


def run_case(label, scheme, baseline, machine):
    report = CheckpointRuntime(
        Ising(n=128, iters=400),
        scheme=scheme,
        machine=machine,
        seed=3,
        fault_model=FaultModel.machine_crash(0.9 * baseline.sim_time),
    ).run()
    rec = report.recoveries[0]
    restored = sorted(rec.line_indices.values())
    print(
        f"{label:<28} restored checkpoints {restored}  "
        f"domino extent {rec.domino_extent:4.0%}  "
        f"lost {max(rec.lost_time.values()):6.1f} s  "
        f"exact={report.result['magnetisation'] == baseline.result['magnetisation']}"
    )


def main() -> None:
    machine = MachineParams.xplorer8()
    baseline = CheckpointRuntime(
        Ising(n=128, iters=400), machine=machine, seed=3
    ).run()
    print(f"baseline run: {baseline.sim_time:.1f} s\n")

    interval = baseline.sim_time / 4.5
    times = [interval * (i + 1) for i in range(3)]

    run_case(
        "aligned timers, no logs",
        IndependentScheme.IndepM(times, skew=interval / 1000),
        baseline,
        machine,
    )
    run_case(
        "skewed timers, no logs",
        IndependentScheme.IndepM(times, skew=interval / 2),
        baseline,
        machine,
    )
    run_case(
        "skewed timers + logging",
        IndependentScheme.IndepM(times, skew=interval / 2, logging=True),
        baseline,
        machine,
    )


if __name__ == "__main__":
    main()
