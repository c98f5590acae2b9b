#!/usr/bin/env python
"""Writing your own application against the CHK-LIB API.

A miniature parallel histogram equalisation: every rank owns a shard of
data, sums the local histograms on every rank (reduce, then broadcast),
then remaps its shard.
Demonstrates the full SPMD contract:

* all state (including the RNG) in one dict, resumable at ``iter``;
* one ``checkpoint_point()`` per outer iteration;
* collectives and point-to-point from :mod:`repro.net`;
* transparent checkpointing + crash recovery with zero app changes.

    python examples/custom_application.py
"""

import numpy as np

from repro.apps.base import Application
from repro.chklib import CheckpointRuntime, CoordinatedScheme, FaultModel
from repro.core.rng import derive_seed
from repro.machine import MachineParams
from repro.net.collectives import bcast, reduce


class ParallelHistogram(Application):
    """Iteratively sharpen a shared histogram over ranked data shards."""

    name = "histogram"

    def __init__(self, shard: int = 50_000, bins: int = 64, iters: int = 40):
        self.shard = shard
        self.bins = bins
        self.iters = iters

    def make_state(self, rank, size, seed):
        rng = np.random.default_rng(derive_seed(seed, f"hist.r{rank}"))
        return {
            "iter": 0,
            "data": rng.normal(0.0, 1.0, size=self.shard),
            "rng": rng,
        }

    def run(self, ctx, state):
        flops_per_pass = 20.0 * self.shard
        while state["iter"] < self.iters:
            data = state["data"]
            local, edges = np.histogram(data, bins=self.bins, range=(-4, 4))
            partial = yield from reduce(ctx.comm, local, np.add)
            total = yield from bcast(ctx.comm, partial)
            # push samples toward under-populated bins (toy equalisation)
            weights = 1.0 / (1.0 + total)
            centres = (edges[:-1] + edges[1:]) / 2
            target = centres[np.argmax(weights)]
            data += 0.05 * (target - data) * state["rng"].random(data.size)
            yield from ctx.compute(flops_per_pass)
            state["iter"] += 1
            yield from ctx.checkpoint_point()
        final = np.histogram(state["data"], bins=self.bins, range=(-4, 4))[0]
        partial = yield from reduce(ctx.comm, final, np.add)
        grand = yield from bcast(ctx.comm, partial)
        if ctx.rank == 0:
            return {"spread": float(grand.std()), "total": int(grand.sum())}
        return None

    def serial_result(self, size, seed):  # pragma: no cover - illustrative
        raise NotImplementedError("left as an exercise")


def main() -> None:
    machine = MachineParams.xplorer8()
    baseline = CheckpointRuntime(ParallelHistogram(), machine=machine, seed=9).run()
    print(f"baseline: {baseline.sim_time:.2f} s  result={baseline.result}")

    times = [baseline.sim_time * f for f in (0.3, 0.6)]
    crashed = CheckpointRuntime(
        ParallelHistogram(),
        scheme=CoordinatedScheme.NBMS(times),
        machine=machine,
        seed=9,
        fault_model=FaultModel.machine_crash(0.85 * baseline.sim_time),
    ).run()
    print(
        f"with crash+recovery: {crashed.sim_time:.2f} s  "
        f"result={crashed.result}  identical="
        f"{crashed.result == baseline.result}"
    )


if __name__ == "__main__":
    main()
