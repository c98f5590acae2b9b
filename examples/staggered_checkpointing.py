#!/usr/bin/env python
"""Why Coord_NBMS wins: contention at the stable storage, dissected.

Runs one workload under all four coordinated variants plus the two
independent schemes and prints the per-checkpoint overhead next to the
storage server's peak concurrency — making the paper's mechanism visible:
the overhead tracks how many checkpoint streams hit the storage at once,
and staggering only pays once the application no longer blocks on the
write (main-memory checkpointing).

    python examples/staggered_checkpointing.py
"""

from repro.analysis import render_timeline
from repro.apps import Gauss
from repro.chklib import CheckpointRuntime
from repro.experiments import make_scheme
from repro.machine import MachineParams

SCHEMES = (
    "coord_nb",  # blocking write, all at once
    "coord_nbs",  # blocking write, staggered   (ablation: the bad combo)
    "coord_nbm",  # memory copy, concurrent background writes
    "coord_nbms",  # memory copy, staggered background writes
    "indep",  # blocking write, autonomous timers
    "indep_m",  # memory copy, autonomous timers
)


def main() -> None:
    machine = MachineParams.xplorer8()
    make_app = lambda: Gauss(n=512, flops_per_cell=32.0)

    baseline = CheckpointRuntime(make_app(), machine=machine, seed=1).run()
    rounds = 3
    interval = baseline.sim_time / (rounds + 1.5)
    times = [interval * (i + 1) for i in range(rounds)]
    print(
        f"GAUSS n=512: baseline {baseline.sim_time:.1f} s, "
        f"{rounds} checkpoints every {interval:.0f} s\n"
    )
    print(f"{'scheme':<12} {'overhead/ckpt':>14} {'blocked(s)':>11} "
          f"{'peak streams':>13}")
    timelines = {}
    for name in SCHEMES:
        rt = CheckpointRuntime(
            make_app(),
            scheme=make_scheme(name, times, interval),
            machine=machine,
            seed=1,
        )
        report = rt.run()
        per_ckpt = (report.sim_time - baseline.sim_time) / rounds
        peak = rt.storage.servers[0].server.peak_concurrency
        print(
            f"{name:<12} {per_ckpt:>12.2f} s {report.blocked_time:>11.2f} "
            f"{peak:>13}"
        )
        timelines[name] = render_timeline(
            rt.tracer, t_end=report.sim_time, n_ranks=machine.n_nodes
        )

    # the second checkpoint round, zoomed: where the schemes differ
    print("\ncheckpoint activity timelines (# blocked, ~ writing):")
    for name in ("coord_nb", "coord_nbms", "indep"):
        print(f"\n--- {name}")
        print(timelines[name])


if __name__ == "__main__":
    main()
