"""GAUSS: dense linear solve by Gaussian elimination.

Rows are distributed cyclically (row *i* on rank ``i % P``) so the work per
pivot stays balanced as elimination proceeds. Every pivot step broadcasts
the pivot row from its owner; everyone eliminates its remaining local rows.
The matrix is made strictly diagonally dominant so elimination without
pivoting is numerically safe (a row-swap pivot search would add an
allreduce per step but no new checkpointing behaviour).

After elimination the triangular system is gathered to rank 0 and
back-substituted there (charged as compute).
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator

import numpy as np

from ..core.rng import derive_seed
from ..net.collectives import bcast, gather
from .base import Application

__all__ = ["Gauss"]


@functools.lru_cache(maxsize=1)
def _make_system(n: int, seed: int) -> np.ndarray:
    """Augmented matrix [A | b], A strictly diagonally dominant; one
    read-only instance per ``(n, seed)`` — copy before eliminating."""
    rng = np.random.default_rng(derive_seed(seed, "gauss.system"))
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    a[np.arange(n), np.arange(n)] = n + rng.uniform(1.0, 2.0, size=n)
    b = rng.uniform(-1.0, 1.0, size=(n, 1))
    aug = np.concatenate([a, b], axis=1)
    aug.setflags(write=False)
    return aug


def _eliminate(rows: np.ndarray, ids: np.ndarray, pivot: np.ndarray, k: int) -> int:
    """Eliminate column *k* from the rows whose global id exceeds *k*, in
    place; returns how many rows that was. ``ids`` ascends (the cyclic
    distribution, or all rows), so they are a suffix of *rows*."""
    below = rows[int(np.searchsorted(ids, k, side="right")) :]
    if below.shape[0] > 0:
        factors = below[:, k] / pivot[k]
        below[:, k:] -= factors[:, None] * pivot[k:]
    return below.shape[0]


class Gauss(Application):
    """Solve an ``n x n`` dense system, row-cyclic over the ranks."""

    name = "gauss"

    def __init__(self, n: int = 128, flops_per_cell: float = 2.0) -> None:
        if n < 2:
            raise ValueError(f"system too small: {n}")
        self.n = int(n)
        self.flops_per_cell = float(flops_per_cell)

    def describe(self) -> str:
        return f"gauss(n={self.n})"

    # -- SPMD -------------------------------------------------------------------

    def make_state(self, rank: int, size: int, seed: int) -> Dict[str, Any]:
        full = _make_system(self.n, seed)
        mine = np.arange(rank, self.n, size)
        return {"iter": 0, "rows": full[mine].copy(), "row_ids": mine}

    def run(self, ctx, state: Dict[str, Any]) -> Generator[Any, Any, Any]:
        comm = ctx.comm
        n = self.n

        while state["iter"] < n:
            k = state["iter"]
            rows, ids = state["rows"], state["row_ids"]
            owner = k % ctx.size
            if owner == ctx.rank:
                local_k = int(np.searchsorted(ids, k))
                pivot = rows[local_k].copy()
            else:
                pivot = None
            pivot = yield from bcast(comm, pivot, root=owner)
            m = _eliminate(rows, ids, pivot, k)
            yield from ctx.compute(self.flops_per_cell * m * (n + 1 - k))
            state["iter"] += 1
            yield from ctx.checkpoint_point()

        # gather the triangular system at rank 0 and back-substitute
        blocks = yield from gather(comm, (state["row_ids"], state["rows"]), root=0)
        if ctx.rank != 0:
            return None
        tri = np.empty((n, n + 1), dtype=np.float64)
        for ids, rows in blocks:
            tri[ids] = rows
        yield from ctx.compute(self.flops_per_cell * n * n / 2)
        x = _back_substitute(tri)
        return {"x_sum": float(x.sum()), "x": x, "n": n}

    # -- reference -------------------------------------------------------------------

    def serial_result(self, size: int, seed: int) -> Any:
        aug = _make_system(self.n, seed).copy()
        n = self.n
        ids = np.arange(n)
        for k in range(n):
            _eliminate(aug, ids, aug[k].copy(), k)
        x = _back_substitute(aug)
        return {"x_sum": float(x.sum()), "x": x, "n": n}

    def reference_solution(self, seed: int) -> np.ndarray:
        """Direct NumPy solve, independent of the elimination code path."""
        aug = _make_system(self.n, seed)
        return np.linalg.solve(aug[:, :-1], aug[:, -1])


def _back_substitute(tri: np.ndarray) -> np.ndarray:
    n = tri.shape[0]
    x = np.zeros(n, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        x[i] = (tri[i, -1] - tri[i, i + 1 : n] @ x[i + 1 :]) / tri[i, i]
    return x
