"""Parameter sweeps supporting the paper's contention analysis (A3).

S1 — *writer-count sweep*: the per-checkpoint cost of ``Coord_NB`` as the
node count grows: near-simultaneous writes queue at the single stable
storage, so the blocked window scales superlinearly in the writer count.

S2 — *storage-bandwidth sweep*: overhead of ``Coord_NB`` vs ``Coord_NBMS``
as the storage path speeds up: staggering matters most when storage is
slow; the curves converge as the bottleneck disappears.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..analysis import TableResult, TableView, fmt_seconds
from ..machine import MachineParams
from .grid import ExperimentSpec, GridResults, WorkloadSpec
from .harness import overhead_grid
from .workloads import scaled_iters

__all__ = ["writer_sweep_spec", "bandwidth_sweep_spec"]


def writer_sweep_spec(
    node_counts: Sequence[int] = (2, 4, 8),
    seed: int = 0,
    rounds: int = 2,
    base_grid: int = 128,
    scale: float = 1.0,
) -> ExperimentSpec:
    """S1, weak scaling: the SOR grid grows with the node count so each
    rank's checkpoint stays the same size; total volume scales linearly in
    the writer count."""
    node_counts = list(node_counts)
    points = []
    for n in node_counts:
        grid = int(round(base_grid * (n / node_counts[0]) ** 0.5 / 2)) * 2
        points.append(
            (
                WorkloadSpec.of(
                    f"sor{grid}@{n}",
                    "sor",
                    n=grid,
                    iters=scaled_iters(200, scale),
                    flops_per_cell=40.0,
                ),
                MachineParams.xplorer(n),
            )
        )
    baselines, plan, measure = overhead_grid(
        points, ("coord_nb",), rounds, seed
    )

    def reduce(results: GridResults) -> TableResult:
        per_ckpt: Dict[int, float] = {
            n: wr.per_checkpoint("coord_nb")
            for n, wr in zip(node_counts, measure(results))
        }
        n0 = node_counts[0]
        base_cost = per_ckpt[n0]
        view = TableView(
            name="sweep-writers",
            title="S1: Coord_NB cost vs number of writers",
            headers=["nodes", "NB overhead/ckpt (s)", "vs fewest", "volume x"],
            rows=[
                [
                    n,
                    fmt_seconds(per_ckpt[n]),
                    f"{per_ckpt[n] / base_cost:.1f}x",
                    f"{n / n0:.1f}x",
                ]
                for n in node_counts
            ],
        )
        xs = [per_ckpt[n] for n in node_counts]
        nl = node_counts[-1]
        return TableResult(
            name="sweep-writers",
            views=[view],
            shapes={
                "cost_grows_with_writers": all(
                    b > a for a, b in zip(xs, xs[1:])
                ),
                # superlinear in the checkpoint volume: with k writers the
                # volume grows k-fold, the cost more (queueing + thrash +
                # lost quiescence window alignment).
                "superlinear_in_volume": xs[-1] / xs[0] > (nl / n0),
            },
            summary_lines=[
                f"{n0}->{nl} nodes: cost x{xs[-1] / xs[0]:.1f} "
                f"for volume x{nl / n0:.1f}",
            ],
            data={"node_counts": node_counts, "per_checkpoint": per_ckpt},
        )

    return ExperimentSpec(
        name="sweep-writers", baselines=baselines, plan=plan, reduce=reduce
    )


def bandwidth_sweep_spec(
    bandwidths: Sequence[float] = (400e3, 800e3, 1.6e6, 3.2e6),
    seed: int = 0,
    rounds: int = 2,
    workload: Optional[WorkloadSpec] = None,
    scale: float = 1.0,
    machine: Optional[MachineParams] = None,
) -> ExperimentSpec:
    """S2: Coord_NB vs Coord_NBMS overhead as storage bandwidth grows.
    ``machine`` overrides the base machine the bandwidths are applied to
    (default: the paper's 8-node Xplorer)."""
    bandwidths = list(bandwidths)
    workload = workload or WorkloadSpec.of(
        "sor-256",
        "sor",
        n=256,
        iters=scaled_iters(200, scale),
        flops_per_cell=40.0,
    )
    base_machine = machine or MachineParams.xplorer8()
    schemes = ("coord_nb", "coord_nbms")
    baselines, plan, measure = overhead_grid(
        [(workload, base_machine.with_storage(bandwidth=bw)) for bw in bandwidths],
        schemes,
        rounds,
        seed,
    )

    def reduce(results: GridResults) -> TableResult:
        overhead_pct: Dict[float, Dict[str, float]] = {
            bw: {s: wr.overhead_percent(s) for s in schemes}
            for bw, wr in zip(bandwidths, measure(results))
        }
        body = []
        for bw in bandwidths:
            row = overhead_pct[bw]
            ratio = (
                row["coord_nb"] / row["coord_nbms"] if row["coord_nbms"] else 0
            )
            body.append(
                [
                    f"{bw / 1e3:.0f}",
                    f"{row['coord_nb']:.2f}",
                    f"{row['coord_nbms']:.2f}",
                    f"{ratio:.1f}x",
                ]
            )
        view = TableView(
            name="sweep-storage",
            title="S2: overhead vs stable-storage bandwidth",
            headers=["storage B/W (KB/s)", "NB %", "NBMS %", "NB/NBMS"],
            rows=body,
        )
        slowest = overhead_pct[min(bandwidths)]
        fastest = overhead_pct[max(bandwidths)]
        gap_slow = slowest["coord_nb"] - slowest["coord_nbms"]
        gap_fast = fastest["coord_nb"] - fastest["coord_nbms"]
        return TableResult(
            name="sweep-storage",
            views=[view],
            shapes={
                "overhead_falls_with_bandwidth": (
                    fastest["coord_nb"] < slowest["coord_nb"]
                    and fastest["coord_nbms"] < slowest["coord_nbms"]
                ),
                # the *absolute* advantage of staggering (percentage
                # points) shrinks as the storage bottleneck disappears; the
                # multiplicative ratio is roughly scale-invariant.
                "staggering_matters_most_when_slow": gap_slow > 2 * gap_fast,
            },
            summary_lines=[
                f"NB-NBMS gap: {gap_slow:.2f} pp at slowest, "
                f"{gap_fast:.2f} pp at fastest",
            ],
            data={"bandwidths": bandwidths, "overhead_pct": overhead_pct},
        )

    return ExperimentSpec(
        name="sweep-storage", baselines=baselines, plan=plan, reduce=reduce
    )
