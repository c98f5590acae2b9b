#!/usr/bin/env python
"""Fault injection v2: faulty stable storage and self-healing recovery.

The paper's model assumes stable storage never fails. This example drops
that assumption and walks through the defensive machinery:

1. transient write faults absorbed by bounded retry-with-backoff;
2. an unretryable write failure — coordinated aborts the 2PC round
   cleanly, independent drops the local checkpoint and carries on;
3. silent corruption of a committed checkpoint, detected by checksum at
   recovery time, quarantined, with fallback to an older committed line.

Every run still produces the exact fault-free answer — the machinery
degrades performance, never correctness.

    python examples/fault_injection.py
"""

from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme, IndependentScheme
from repro.fault import FaultModel, StorageFaultSpec
from repro.machine import MachineParams

MACHINE = MachineParams(n_nodes=4)
SEED = 4


def make_app():
    app = SOR(n=26, iters=10, flops_per_cell=3000.0)
    app.image_bytes = 32 * 1024
    return app


def run(scheme, model):
    return CheckpointRuntime(
        make_app(), scheme=scheme, machine=MACHINE, seed=SEED, fault_model=model
    ).run()


def show(label, report, expected):
    ev = report.recoveries[0] if report.recoveries else None
    line = sorted(set(ev.line_indices.values())) if ev else "-"
    print(
        f"{label:<26} time={report.sim_time:8.1f}s  "
        f"faults w/r={report.storage_write_faults}/{report.storage_read_faults}  "
        f"retries={report.storage_write_retries + report.storage_read_retries}  "
        f"aborted={report.rounds_aborted}  "
        f"quarantined={report.checkpoints_quarantined}  "
        f"line={line}  "
        f"exact={'yes' if report.result['sum'] == expected else 'NO'}"
    )


def main() -> None:
    baseline = CheckpointRuntime(make_app(), machine=MACHINE, seed=SEED).run()
    T = baseline.sim_time
    expected = baseline.result["sum"]
    times = [T / 4, T / 2]
    print(f"SOR baseline: {T:.1f} s fault-free; checkpoints at T/4 and T/2\n")

    # 1. probabilistic storage faults, absorbed by retries
    flaky = FaultModel.machine_crash(
        0.8 * T,
        storage=StorageFaultSpec(write_fail_p=0.30, read_fail_p=0.15),
        max_retries=4,
    )
    show("flaky storage + crash", run(CoordinatedScheme.NBM(times), flaky), expected)

    # 2. unretryable write failure: abort vs. local drop
    hard_fail = FaultModel.machine_crash(
        0.8 * T,
        storage=StorageFaultSpec(fail_writes_at=(2,)),
        max_retries=0,
    )
    show("write fails -> 2PC abort", run(CoordinatedScheme.NBM(times), hard_fail), expected)
    show(
        "write fails -> local drop",
        run(IndependentScheme.IndepM(times, skew=T / 50, logging=True), hard_fail),
        expected,
    )

    # 3. silent corruption: quarantine + fallback to an older line
    rot = FaultModel.machine_crash(
        0.9 * T, storage=StorageFaultSpec(corrupt_ckpts=((1, 2),))
    )
    show(
        "rank 1 ckpt #2 corrupted",
        run(IndependentScheme.IndepM(times, skew=T / 50, logging=True), rot),
        expected,
    )


if __name__ == "__main__":
    main()
