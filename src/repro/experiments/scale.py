"""Scale sweep: per-scheme checkpoint overhead as the machine grows.

The paper measured 8 transputers behind one host file system. This
experiment re-runs its central comparison on the hierarchical machine
model (racks × nodes, multi-server storage plane) at N ∈ {8, 64, 256,
1024, 4096} ranks — the 8-rank point is the paper's flat testbed, every
larger point a racks machine built by
:meth:`MachineParams.hierarchical`.

The workload is weak-scaled SOR: the grid gains exactly four interior
rows per rank (``n = 4N + 2``) and the per-cell flop constant is chosen
so each rank performs the same simulated work per iteration regardless
of N. Checkpoint volume per rank is likewise fixed (32 KiB image), so
what changes with N is only what the paper's analysis says should
change: storage fan-in per server, marker fan-out, and synchronisation
depth.

Coordinated schemes run with ``marker_scope="peers"`` — markers travel
only along SOR's declared communication graph (±1 halo neighbours plus
the final reduce tree), O(N·deg) messages per round instead of the
all-pairs O(N²) flood that stops being simulable around a thousand
ranks.

Headline shape: per-server fan-in is N/S and S grows only as √N/4, so
concurrent-write thrash on the storage plane worsens with N — and the
staggered scheme (Coord_NBMS), which serialises writers per server,
pulls further ahead of plain Coord_NB the larger the machine gets.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from ..analysis import SchemeComparison, TableResult, TableView, fmt_seconds
from ..machine import MachineParams
from .grid import ExperimentSpec, GridResults, WorkloadSpec
from .harness import SCHEMES_TABLE1, overhead_grid, scheme_spec
from .workloads import scaled_iters

__all__ = ["SCALE_NS", "scale_workload", "scale_machine", "scale_spec"]

#: default rank counts of the sweep (8 = the paper's machine).
SCALE_NS: Tuple[int, ...] = (8, 64, 256, 1024, 4096)

#: per-rank simulated work per iteration (flops) — constant across N.
_FLOPS_PER_RANK_ITER = 600_000.0
#: interior grid rows per rank (weak scaling).
_ROWS_PER_RANK = 4
#: fixed checkpoint image per rank (bytes); keeps per-rank checkpoint
#: volume constant so storage fan-in is the only thing that scales.
_IMAGE_BYTES = 32 * 1024


def scale_workload(n_ranks: int, scale: float = 1.0) -> WorkloadSpec:
    """Weak-scaled SOR at *n_ranks*: 4 interior rows and a fixed flop
    budget per rank per iteration, 32 KiB checkpoint image."""
    n = _ROWS_PER_RANK * n_ranks + 2
    return WorkloadSpec.of(
        f"sor-weak-{n_ranks}",
        "sor",
        image_bytes=_IMAGE_BYTES,
        n=n,
        iters=scaled_iters(60, scale, floor=10),
        flops_per_cell=_FLOPS_PER_RANK_ITER / (_ROWS_PER_RANK * n),
    )


def scale_machine(n_ranks: int) -> MachineParams:
    """The machine for one sweep point: the paper's flat Xplorer up to its
    native 8 ranks, a hierarchical racks machine beyond that."""
    if n_ranks <= 8:
        return MachineParams.xplorer(n_ranks)
    return MachineParams.hierarchical(n_ranks)


def _scale_scheme(name: str, times, interval: float):
    """The standard measured scheme, with peers-scoped markers on the
    coordinated variants (identical wire protocol, restricted fan-out)."""
    spec = scheme_spec(name, times, interval)
    if name.startswith("coord"):
        spec = dataclasses.replace(spec, marker_scope="peers")
    return spec


def scale_spec(
    ns: Optional[Sequence[int]] = None,
    seed: int = 0,
    rounds: int = 2,
    scale: float = 1.0,
) -> ExperimentSpec:
    """The scale sweep as a declarative grid (len(ns) × 6 runs)."""
    ns = tuple(int(n) for n in (ns if ns is not None else SCALE_NS))
    if not ns:
        raise ValueError("scale sweep needs at least one rank count")
    baselines, plan, measure = overhead_grid(
        [(scale_workload(n, scale), scale_machine(n)) for n in ns],
        SCHEMES_TABLE1,
        rounds,
        seed,
        scheme_of=_scale_scheme,
    )

    def reduce(results: GridResults) -> TableResult:
        wrs = measure(results)
        labels = [f"N={n}" for n in ns]
        rows = [{s: wr.per_checkpoint(s) for s in SCHEMES_TABLE1} for wr in wrs]

        def win(row) -> float:
            """Coord_NB's overhead as a multiple of Coord_NBMS's — the
            staggering payoff at this machine size."""
            return row["coord_nb"] / row["coord_nbms"]

        view = TableView(
            name="scale",
            title="Scale — overhead per checkpoint (seconds) vs machine size",
            headers=["ranks"] + [s.upper() for s in SCHEMES_TABLE1],
            rows=[
                [label] + [wr.per_checkpoint(s) for s in SCHEMES_TABLE1]
                for label, wr in zip(labels, wrs)
            ],
            fmt=fmt_seconds,
        )
        c1 = SchemeComparison.over(rows, "coord_nbms", "coord_nb")
        c2 = SchemeComparison.over(rows, "coord_nbms", "indep_m")
        shapes = {
            "nbms_beats_nb_everywhere": c1.a_wins == len(rows),
            "nbms_best_at_largest": min(
                rows[-1], key=rows[-1].__getitem__
            ) == "coord_nbms",
        }
        if len(rows) > 1:
            shapes["nbms_win_grows_with_scale"] = win(rows[-1]) > win(rows[0])
        summary_lines = [
            f"Coord_NBMS vs Coord_NB  : {c1}",
            f"Coord_NBMS vs Indep_M   : {c2}",
        ] + [
            f"staggering payoff at {label:<7}: NB/NBMS overhead x{win(row):.2f}"
            for label, row in zip(labels, rows)
        ]
        return TableResult(
            name="scale",
            views=[view],
            shapes=shapes,
            summary_lines=summary_lines,
            data={
                "ns": list(ns),
                "results": wrs,
                "rows": rows,
                "labels": labels,
                "schemes": SCHEMES_TABLE1,
            },
        )

    return ExperimentSpec(
        name="scale", baselines=baselines, plan=plan, reduce=reduce
    )
