"""E1 extension: capture-mode and incremental-checkpointing ablation.

The paper's related work ([13], Elnozahy et al.) reduces checkpoint
overhead with *incremental* and *copy-on-write* checkpointing. We add both
to the reproduced library and measure them against the paper's best scheme
(``Coord_NBMS``):

* capture axis — what the application blocks on at the cut: full blocking
  write / main-memory copy / copy-on-write page protection;
* volume axis — full images vs dirty-page increments (measured from the
  real serialized states, not modelled).

Expected shape: incremental wins big where the state is mostly read-only
(ISING's bond couplings, TSP's distance map) and much less on
every-page-dirty stencils (SOR); CoW trades the copy block for a small
interference window.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis import TableResult, TableView, fmt_seconds
from ..machine import MachineParams
from .grid import ExperimentSpec, GridResults, WorkloadSpec
from .harness import overhead_grid
from .workloads import table23_workloads

__all__ = ["capture_spec"]

_SCHEMES = ("coord_nbms", "coord_nbcs", "coord_nbms_inc", "coord_nbcs_inc")
_LABELS = {
    "coord_nbms": "memcopy/full",
    "coord_nbcs": "cow/full",
    "coord_nbms_inc": "memcopy/incr",
    "coord_nbcs_inc": "cow/incr",
}


def capture_spec(
    workloads: Optional[List[WorkloadSpec]] = None,
    seed: int = 0,
    machine: Optional[MachineParams] = None,
    rounds: int = 3,
    scale: float = 1.0,
) -> ExperimentSpec:
    """E1: capture mode x incremental, against the paper's best scheme."""
    if workloads is None:
        wanted = ("ising-288", "sor-320", "nqueens-12")
        workloads = [w for w in table23_workloads(scale) if w.label in wanted]
    machine = machine or MachineParams.xplorer8()
    baselines, plan, measure = overhead_grid(
        [(w, machine) for w in workloads], _SCHEMES, rounds, seed
    )

    def reduce(results: GridResults) -> TableResult:
        wrs = measure(results)
        body = []
        for wr in wrs:
            row = [wr.label] + [wr.per_checkpoint(s) for s in _SCHEMES]
            row.append(
                f"{wr.reports['coord_nbms'].storage_bytes_written / 1e6:.2f}"
            )
            row.append(
                f"{wr.reports['coord_nbms_inc'].storage_bytes_written / 1e6:.2f}"
            )
            body.append(row)
        view = TableView(
            name="capture",
            title="E1: capture mode x incremental (overhead per ckpt, s)",
            headers=["application"]
            + [_LABELS[s] for s in _SCHEMES]
            + ["bytes full (MB)", "bytes incr (MB)"],
            rows=body,
            fmt=fmt_seconds,
        )
        rows = {
            wr.label: {s: wr.per_checkpoint(s) for s in _SCHEMES} for wr in wrs
        }
        bytes_ratio = {
            wr.label: (
                wr.reports["coord_nbms_inc"].storage_bytes_written
                / max(1.0, wr.reports["coord_nbms"].storage_bytes_written)
            )
            for wr in wrs
        }
        ising = [k for k in rows if k.startswith("ising")]
        sor = [k for k in rows if k.startswith("sor")]
        return TableResult(
            name="capture",
            views=[view],
            shapes={
                # incremental never increases the shipped volume
                "incremental_writes_less": all(
                    v <= 1.01 for v in bytes_ratio.values()
                ),
                # and shines on mostly-read-only state (ISING couplings)
                "incremental_big_win_on_ising": all(
                    bytes_ratio[k] < 0.5 for k in ising
                ),
                # SOR dirties every page: the saving there is just the pad
                "incremental_small_win_on_sor": all(
                    bytes_ratio[k] > bytes_ratio[i] for k in sor for i in ising
                ),
                # incremental overhead never worse than full for the same
                # capture mode
                "incremental_overhead_not_worse": all(
                    r["coord_nbms_inc"] <= r["coord_nbms"] * 1.05
                    for r in rows.values()
                ),
            },
            summary_lines=[
                "incremental/full byte ratio: "
                + ", ".join(
                    f"{k}={v:.2f}" for k, v in sorted(bytes_ratio.items())
                ),
            ],
            data={"results": wrs, "rows": rows, "bytes_ratio": bytes_ratio},
        )

    return ExperimentSpec(
        name="capture", baselines=baselines, plan=plan, reduce=reduce
    )
