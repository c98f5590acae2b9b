#!/usr/bin/env python
"""Extension techniques: incremental and copy-on-write checkpointing.

The paper's related work credits Elnozahy et al. with reducing checkpoint
overhead through incremental and copy-on-write checkpointing; this library
implements both on top of the reproduced schemes. The demo runs the ISING
spin glass — whose random bond couplings (the bulk of the state) never
change after initialisation — and shows dirty-page increments shrinking
the shipped volume by ~3x, with recovery still exact across a crash.

    python examples/incremental_and_cow.py
"""

from repro.apps import Ising
from repro.chklib import CheckpointRuntime, CoordinatedScheme, FaultModel
from repro.machine import MachineParams


def run(scheme, fault=None, machine=None, seed=21):
    return CheckpointRuntime(
        Ising(n=192, iters=160),
        scheme=scheme,
        machine=machine or MachineParams.xplorer8(),
        seed=seed,
        fault_model=fault,
    ).run()


def main() -> None:
    baseline = run(None)
    T = baseline.sim_time
    times = [T * f for f in (0.2, 0.4, 0.6)]
    print(f"ISING n=192: baseline {T:.1f} s, 3 checkpoints\n")

    print(f"{'variant':<26} {'overhead':>9} {'blocked(s)':>11} "
          f"{'written MB':>11}")
    for label, scheme in (
        ("NBMS (memcopy, full)", CoordinatedScheme.NBMS(times)),
        ("NBMS + incremental", CoordinatedScheme.NBMS(times, incremental=True)),
        ("NBC  (copy-on-write)", CoordinatedScheme.NBC(times)),
        ("NBCS + incremental", CoordinatedScheme.NBCS(times, incremental=True)),
    ):
        report = run(scheme)
        overhead = 100 * (report.sim_time - T) / T
        print(
            f"{label:<26} {overhead:>8.2f}% {report.blocked_time:>11.3f} "
            f"{report.storage_bytes_written / 1e6:>11.2f}"
        )

    # recovery through an incremental chain is exact
    crashed = run(
        CoordinatedScheme.NBMS(times, incremental=True, full_every=8),
        fault=FaultModel.machine_crash(0.8 * T),
    )
    rec = crashed.recoveries[0]
    print(
        f"\ncrash at 80%: restored checkpoint "
        f"{max(rec.line_indices.values())} (chain read), result identical: "
        f"{crashed.result['magnetisation'] == baseline.result['magnetisation']}"
    )


if __name__ == "__main__":
    main()
