"""SOR: red-black successive over-relaxation for Laplace's equation.

The classic tightly-coupled stencil benchmark from the paper: the grid is
row-block partitioned; every iteration does two halo exchanges (one per
colour) with the up/down neighbours, then relaxes the interior. A blocked
neighbour stalls the whole chain within one iteration — the communication
structure that penalises unsynchronised checkpoint blocking.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..net.collectives import reduce
from .base import Application, partition

__all__ = ["SOR"]

_TAG_UP = 1  #: row sent to the lower-index neighbour
_TAG_DOWN = 2  #: row sent to the higher-index neighbour


def _boundary_value(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Deterministic Dirichlet boundary (smooth, non-trivial)."""
    return np.sin(2.0 * np.pi * i / n) + np.cos(2.0 * np.pi * j / n)


def _init_block(lo: int, hi: int, n: int) -> np.ndarray:
    """Rows ``lo-1 .. hi`` of the initial grid (halos included).

    Vectorised over rows (the per-row loop cost O(rows) numpy round-trips
    per rank, i.e. O(n) across a build at scale); the elementwise sin/cos
    arithmetic is unchanged, so the floats are bit-identical.
    """
    rows = np.arange(lo - 1, hi + 1)
    block = np.zeros((rows.size, n), dtype=np.float64)
    cols = np.arange(n)
    # fixed boundary: global rows 0 and n-1, columns 0 and n-1
    edge = (rows == 0) | (rows == n - 1)
    if edge.any():
        block[edge] = (
            np.sin(2.0 * np.pi * rows[edge] / n)[:, None]
            + np.cos(2.0 * np.pi * cols / n)[None, :]
        )
    inner = ~edge
    if inner.any():
        s = np.sin(2.0 * np.pi * rows[inner] / n)
        block[inner, 0] = s + np.cos(2.0 * np.pi * cols[0] / n)
        block[inner, -1] = s + np.cos(2.0 * np.pi * cols[n - 1] / n)
    return block


#: per-shape scratch buffers for _sweep (keyed by interior rows, row width).
_SCRATCH: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _sweep(block: np.ndarray, row_offset: int, omega: float, phase: int) -> None:
    """Relax one colour of the interior of *block* in place.

    ``block`` has one halo row on each side; its row 1 is global row
    ``row_offset``. Same-colour cells are independent, so the vectorised
    simultaneous update is exact red-black Gauss–Seidel.

    The arithmetic runs over contiguous 1-D views of the row-major block:
    interior cell ``(i, j)`` sits at flat index ``i*n + j``, so its four
    neighbours are the same run shifted by ``-n``, ``+n``, ``-1`` and
    ``+1``. The run from ``(1, 1)`` to ``(m, n-2)`` also covers the
    boundary pairs where one row wraps into the next; those results are
    computed and never written back. Every cell sees the same operations
    on the same operands in the same order as a 2-D stencil, so the floats
    are bit-identical. The write-back is two strided slice copies, one per
    row parity (the colour is a checkerboard over global ``(i + j)``).
    A block that is not C-contiguous is read through a flat copy and still
    written through its ``interior`` view.
    """
    m, n = block.shape[0] - 2, block.shape[1]
    if m <= 0:
        return
    bufs = _SCRATCH.get((m, n))
    if bufs is None:
        bufs = _SCRATCH[(m, n)] = (
            np.empty(m * n - 2, dtype=np.float64),
            np.empty(m * n, dtype=np.float64),
        )
    neighbours, updated = bufs
    flat = block.ravel()
    run = m * n - 2  # flat indices n+1 .. (m+1)*n - 2
    np.add(flat[1 : 1 + run], flat[2 * n + 1 : 2 * n + 1 + run], out=neighbours)
    neighbours += flat[n : n + run]
    neighbours += flat[n + 2 : n + 2 + run]
    centre = updated[:run]
    np.multiply(flat[n + 1 : n + 1 + run], 1.0 - omega, out=centre)
    neighbours *= omega * 0.25
    centre += neighbours
    # updated[di*n + jj] is interior cell (di, jj), global (row_offset + di,
    # jj + 1): its colour matches ``phase`` when (di + jj) % 2 == q
    grid = updated.reshape(m, n)
    interior = block[1:-1, 1:-1]
    q = (phase + row_offset + 1) % 2
    interior[0::2, q::2] = grid[0::2, q : n - 2 : 2]
    interior[1::2, 1 - q :: 2] = grid[1::2, 1 - q : n - 2 : 2]


class SOR(Application):
    """Red-black SOR on an ``n x n`` grid for ``iters`` iterations."""

    name = "sor"

    def __init__(self, n: int = 256, iters: int = 100, omega: float = 1.5,
                 flops_per_cell: float = 8.0) -> None:
        if n < 4:
            raise ValueError(f"grid too small: {n}")
        self.n = int(n)
        self.iters = int(iters)
        self.omega = float(omega)
        self.flops_per_cell = float(flops_per_cell)

    def describe(self) -> str:
        return f"sor(n={self.n}, iters={self.iters})"

    def comm_peers(self, rank: int, size: int) -> List[int]:
        """±1 halo neighbours plus this rank's partners in the final
        root-0 binomial reduce (the only collective SOR issues). The
        binomial relation is symmetric: a rank lists its parent, the
        parent lists it back as a child."""
        peers = set()
        if rank > 0:
            peers.add(rank - 1)
        if rank < size - 1:
            peers.add(rank + 1)
        mask = 1
        while mask < size:
            if rank & mask:
                peers.add(rank - mask)  # reduce parent
                break
            if rank + mask < size:
                peers.add(rank + mask)  # reduce child
            mask <<= 1
        return sorted(peers)

    # -- SPMD ------------------------------------------------------------------

    def make_state(self, rank: int, size: int, seed: int) -> Dict[str, Any]:
        if self.n - 2 < size:
            raise ValueError(
                f"grid n={self.n} has fewer interior rows than ranks ({size})"
            )
        lo, hi = partition(self.n - 2, size)[rank]
        lo, hi = lo + 1, hi + 1  # the interior starts at global row 1
        return {"iter": 0, "lo": lo, "hi": hi, "grid": _init_block(lo, hi, self.n)}

    def run(self, ctx, state: Dict[str, Any]) -> Generator[Any, Any, Any]:
        comm = ctx.comm
        lo, hi = state["lo"], state["hi"]
        up = ctx.rank - 1 if ctx.rank > 0 else None
        down = ctx.rank + 1 if ctx.rank < ctx.size - 1 else None
        my_rows = hi - lo
        phase_flops = self.flops_per_cell * my_rows * self.n / 2.0

        while state["iter"] < self.iters:
            grid = state["grid"]
            for phase in (0, 1):
                # halo exchange: push our border rows, pull the neighbours'
                if up is not None:
                    yield from comm.send(up, grid[1].copy(), tag=_TAG_DOWN)
                if down is not None:
                    yield from comm.send(down, grid[-2].copy(), tag=_TAG_UP)
                if up is not None:
                    msg = yield comm.recv(source=up, tag=_TAG_UP)
                    grid[0, :] = msg.payload
                if down is not None:
                    msg = yield comm.recv(source=down, tag=_TAG_DOWN)
                    grid[-1, :] = msg.payload
                if my_rows > 0:
                    _sweep(grid, lo, self.omega, phase)
                yield from ctx.compute(phase_flops)
            state["iter"] += 1
            yield from ctx.checkpoint_point()

        local_sum = float(state["grid"][1:-1, :].sum()) if my_rows > 0 else 0.0
        total = yield from reduce(comm, local_sum, operator.add, root=0)
        if ctx.rank == 0:
            return {"sum": total, "n": self.n, "iters": self.iters}
        return None

    # -- reference ----------------------------------------------------------------

    def serial_result(self, size: int, seed: int) -> Any:
        grid = _init_block(1, self.n - 1, self.n)  # whole interior + halos
        for _ in range(self.iters):
            for phase in (0, 1):
                _sweep(grid, 1, self.omega, phase)
        return {"sum": float(grid[1:-1, :].sum()), "n": self.n, "iters": self.iters}
