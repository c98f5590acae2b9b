"""ASP: all-pairs shortest paths by Floyd's algorithm.

The distance matrix is row-block partitioned; iteration *k* broadcasts
pivot row *k* from its owner to everyone (a rotating one-to-all pattern,
unlike the neighbour exchanges of SOR/ISING), then every rank relaxes its
rows. Integer weights keep all results exactly comparable.
"""

from __future__ import annotations

import bisect
import functools
import operator
from typing import Any, Dict, Generator, Sequence, Tuple

import numpy as np

from ..core.rng import derive_seed
from ..net.collectives import bcast, reduce
from .base import Application, partition

__all__ = ["ASP"]

#: "no edge" distance — big but far from overflow under repeated addition.
_INF = np.int64(1) << 40


@functools.lru_cache(maxsize=1)
def _make_graph(n: int, seed: int, density: float) -> np.ndarray:
    """Random directed graph with integer weights (deterministic); one
    read-only instance per ``(n, seed, density)`` — copy before relaxing."""
    rng = np.random.default_rng(derive_seed(seed, "asp.graph"))
    weights = rng.integers(1, 100, size=(n, n)).astype(np.int64)
    present = rng.random(size=(n, n)) < density
    dist = np.where(present, weights, _INF)
    np.fill_diagonal(dist, 0)
    dist.setflags(write=False)
    return dist


def _owner_of(row: int, parts: Sequence[Tuple[int, int]]) -> int:
    """Rank whose ``(lo, hi)`` range of the ascending *parts* holds *row*."""
    rank = bisect.bisect_right(parts, row, key=operator.itemgetter(0)) - 1
    if rank < 0 or not parts[rank][0] <= row < parts[rank][1]:
        raise ValueError(f"row {row} not owned by anyone")
    return rank


class ASP(Application):
    """Floyd's algorithm on ``n`` nodes (one pivot broadcast per iteration)."""

    name = "asp"

    def __init__(self, n: int = 128, density: float = 0.2,
                 flops_per_cell: float = 3.0) -> None:
        if n < 2:
            raise ValueError(f"graph too small: {n}")
        self.n = int(n)
        self.density = float(density)
        self.flops_per_cell = float(flops_per_cell)

    def describe(self) -> str:
        return f"asp(n={self.n})"

    # -- SPMD -------------------------------------------------------------------

    def make_state(self, rank: int, size: int, seed: int) -> Dict[str, Any]:
        if self.n < size:
            raise ValueError(f"graph n={self.n} smaller than ranks ({size})")
        parts = partition(self.n, size)
        lo, hi = parts[rank]
        full = _make_graph(self.n, seed, self.density)
        return {"iter": 0, "lo": lo, "hi": hi, "rows": full[lo:hi].copy()}

    def run(self, ctx, state: Dict[str, Any]) -> Generator[Any, Any, Any]:
        comm = ctx.comm
        parts = partition(self.n, ctx.size)
        lo = state["lo"]
        my_rows = state["rows"].shape[0]
        step_flops = self.flops_per_cell * my_rows * self.n

        while state["iter"] < self.n:
            k = state["iter"]
            rows = state["rows"]
            owner = _owner_of(k, parts)
            pivot = rows[k - lo].copy() if owner == ctx.rank else None
            pivot = yield from bcast(comm, pivot, root=owner)
            if my_rows > 0:
                # min-plus relaxation of all local rows through pivot k
                via = rows[:, k][:, None] + pivot[None, :]
                np.minimum(rows, via, out=rows)
            yield from ctx.compute(step_flops)
            state["iter"] += 1
            yield from ctx.checkpoint_point()

        local_sum = int(np.minimum(state["rows"], _INF).sum())
        total = yield from reduce(comm, local_sum, operator.add, root=0)
        if ctx.rank == 0:
            return {"distsum": total, "n": self.n}
        return None

    # -- reference ------------------------------------------------------------------

    def serial_result(self, size: int, seed: int) -> Any:
        dist = _make_graph(self.n, seed, self.density).copy()
        for k in range(self.n):
            via = dist[:, k][:, None] + dist[k][None, :]
            np.minimum(dist, via, out=dist)
        return {"distsum": int(np.minimum(dist, _INF).sum()), "n": self.n}
