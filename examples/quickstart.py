#!/usr/bin/env python
"""Quickstart: run a parallel application under coordinated checkpointing,
crash the machine, and watch it recover to the exact same answer.

    python examples/quickstart.py
"""

from repro.apps import SOR
from repro.chklib import CheckpointRuntime, CoordinatedScheme, FaultModel
from repro.machine import MachineParams


def main() -> None:
    machine = MachineParams.xplorer8()  # 8 transputers, shared stable storage

    # 1. Uncheckpointed baseline: red-black SOR on a 256x256 grid.
    app = SOR(n=256, iters=200, flops_per_cell=40.0)
    baseline = CheckpointRuntime(app, machine=machine, seed=42).run()
    print(f"baseline:   {baseline.sim_time:8.2f} s   sum={baseline.result['sum']:.6f}")

    # 2. Same run under Coord_NBMS (main-memory checkpointing + staggered
    #    background writes), three checkpoints.
    times = [baseline.sim_time * f for f in (0.22, 0.44, 0.66)]
    ckpt = CheckpointRuntime(
        SOR(n=256, iters=200, flops_per_cell=40.0),
        scheme=CoordinatedScheme.NBMS(times),
        machine=machine,
        seed=42,
    ).run()
    overhead = 100 * (ckpt.sim_time - baseline.sim_time) / baseline.sim_time
    print(
        f"checkpointed: {ckpt.sim_time:6.2f} s   overhead={overhead:.2f} %   "
        f"({ckpt.checkpoints_committed} checkpoints committed)"
    )

    # 3. Crash at 80% of the run: everyone rolls back to the last committed
    #    global checkpoint, channel state replays, execution resumes.
    crashed = CheckpointRuntime(
        SOR(n=256, iters=200, flops_per_cell=40.0),
        scheme=CoordinatedScheme.NBMS(times),
        machine=machine,
        seed=42,
        fault_model=FaultModel.machine_crash(0.8 * baseline.sim_time),
    ).run()
    rec = crashed.recoveries[0]
    print(
        f"crashed run:  {crashed.sim_time:6.2f} s   "
        f"rolled back to checkpoint {max(rec.line_indices.values())}, "
        f"lost {max(rec.lost_time.values()):.1f} s of work"
    )
    print(
        "recovered result identical:",
        crashed.result["sum"] == baseline.result["sum"],
    )


if __name__ == "__main__":
    main()
