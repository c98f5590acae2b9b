"""Workload definitions for the paper's tables.

Sizes and iteration counts are calibrated so uncheckpointed runs last
roughly 50-200 simulated seconds on the 8-node Xplorer model — the range
the paper's Tables 2/3 imply (checkpoint intervals of 1-7 minutes, three
checkpoints per run). The per-cell "flop" constants fold in the memory and
loop overheads of the original 30 MHz transputers; they are calibration,
documented in DESIGN.md.

Table 1 uses 21 configurations (ISING at 8 lattice sizes, SOR at 6 grid
sizes, GAUSS and ASP at 2 sizes each, NBODY, TSP, NQUEENS) — the paper's
table lists 20 rows but reports 21 comparisons; we side with the count.

The catalogues return :class:`~repro.experiments.grid.WorkloadSpec`s —
declarative (registry name + parameters) so experiment cells can be
pickled to worker processes and content-hashed for the result cache.
"""

from __future__ import annotations

from typing import List

from ..core.errors import InvariantViolation
from .grid import WorkloadSpec

__all__ = [
    "WorkloadSpec",
    "table1_workloads",
    "table23_workloads",
    "quick_workloads",
    "fault_workload",
    "scaled_iters",
]


def scaled_iters(iters: int, scale: float, floor: int = 8) -> int:
    """Scale an iteration count (``--quick``), never below *floor*."""
    return max(floor, int(round(iters * scale)))


def table1_workloads(scale: float = 1.0) -> List[WorkloadSpec]:
    """The 21 configurations of Table 1. ``scale`` shrinks iteration counts
    (and hence run durations) for quick runs; sizes are kept so checkpoint
    volumes stay representative."""
    ws: List[WorkloadSpec] = []
    ising_sizes = [128, 160, 192, 224, 256, 320, 384, 448]
    ising_iters = [1200, 840, 580, 430, 330, 210, 146, 107]
    for n, iters in zip(ising_sizes, ising_iters):
        ws.append(
            WorkloadSpec.of(
                f"ising-{n}", "ising", n=n, iters=scaled_iters(iters, scale)
            )
        )
    sor_sizes = [128, 192, 256, 320, 384, 512]
    sor_iters = [1200, 730, 410, 264, 183, 103]
    for n, iters in zip(sor_sizes, sor_iters):
        ws.append(
            WorkloadSpec.of(
                f"sor-{n}",
                "sor",
                n=n,
                iters=scaled_iters(iters, scale),
                flops_per_cell=40.0,
            )
        )
    for n in (384, 512):
        ws.append(WorkloadSpec.of(f"gauss-{n}", "gauss", n=n, flops_per_cell=32.0))
    for n in (288, 352):
        ws.append(WorkloadSpec.of(f"asp-{n}", "asp", n=n, flops_per_cell=24.0))
    ws.append(
        WorkloadSpec.of(
            "nbody-1536",
            "nbody",
            n=1536,
            iters=scaled_iters(12, scale, floor=4),
        )
    )
    ws.append(WorkloadSpec.of("tsp-12", "tsp", n_cities=12, flops_per_node=4000.0))
    ws.append(WorkloadSpec.of("nqueens-12", "nqueens", n=12, flops_per_node=2000.0))
    if len(ws) != 21:
        raise InvariantViolation(
            "Table 1 workload list drifted from the paper's 21 rows",
            got=len(ws),
        )
    return ws


def table23_workloads(scale: float = 1.0) -> List[WorkloadSpec]:
    """The 9 rows of Tables 2 and 3 (ISINGx2, SORx2, GAUSS, ASP, NBODY,
    TSP, NQUEENS)."""
    return [
        WorkloadSpec.of(
            "ising-448", "ising", n=448, iters=scaled_iters(110, scale)
        ),
        WorkloadSpec.of(
            "ising-288", "ising", n=288, iters=scaled_iters(260, scale)
        ),
        WorkloadSpec.of(
            "sor-512",
            "sor",
            n=512,
            iters=scaled_iters(100, scale),
            flops_per_cell=40.0,
        ),
        WorkloadSpec.of(
            "sor-320",
            "sor",
            n=320,
            iters=scaled_iters(250, scale),
            flops_per_cell=40.0,
        ),
        WorkloadSpec.of("gauss-512", "gauss", n=512, flops_per_cell=32.0),
        WorkloadSpec.of("asp-352", "asp", n=352, flops_per_cell=24.0),
        WorkloadSpec.of(
            "nbody-1536",
            "nbody",
            n=1536,
            iters=scaled_iters(12, scale, floor=4),
        ),
        WorkloadSpec.of("tsp-12", "tsp", n_cities=12, flops_per_node=4000.0),
        WorkloadSpec.of("nqueens-12", "nqueens", n=12, flops_per_node=2000.0),
    ]


def quick_workloads() -> List[WorkloadSpec]:
    """A tiny cross-section for smoke tests and examples."""
    return [
        WorkloadSpec.of("sor-96", "sor", n=96, iters=120, flops_per_cell=40.0),
        WorkloadSpec.of("ising-96", "ising", n=96, iters=120),
        WorkloadSpec.of("nqueens-10", "nqueens", n=10, flops_per_node=2000.0),
    ]


def fault_workload(scale: float = 1.0) -> WorkloadSpec:
    """The small 4-rank SOR the storage-fault experiment (``resilience``)
    runs: short enough for dozens of faulted cells."""
    return WorkloadSpec.of(
        "sor-26",
        "sor",
        image_bytes=32 * 1024,
        n=26,
        iters=scaled_iters(10, scale),
        flops_per_cell=3000.0,
    )
