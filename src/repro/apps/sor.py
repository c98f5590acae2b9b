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

from ..core.errors import InvariantViolation
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


#: scratch shared by every plan of one block shape ``(m, n)`` (interior rows,
#: row width): the neighbour-sum buffer, the run the relaxed values land in,
#: and that run's write-back sources for each colour parity ``q``. A
#: half-sweep never yields, so the ranks of one process take turns on them.
_SCRATCH: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray, tuple]] = {}


def _scratch(m: int, n: int) -> Tuple[np.ndarray, np.ndarray, tuple]:
    bufs = _SCRATCH.get((m, n))
    if bufs is None:
        run = m * n - 2
        neighbours = np.empty(run, dtype=np.float64)
        updated = np.empty(m * n, dtype=np.float64)
        # updated[di*n + jj] is interior cell (di, jj); the last two cells
        # of the last row are never computed and never read
        grid = updated.reshape(m, n)
        sources = tuple(
            (grid[0::2, q : n - 2 : 2], grid[1::2, 1 - q : n - 2 : 2]) for q in (0, 1)
        )
        bufs = _SCRATCH[(m, n)] = (neighbours, updated[:run], sources)
    return bufs


class _SweepPlan:
    """One rank's red-black half-sweep with every operand built once.

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

    The plan holds views of *block* and of the shared :data:`_SCRATCH`,
    never buffers of its own, so it stays valid exactly as long as *block*
    is the rank's grid. The flat views alias the block only when it is
    C-contiguous (``ravel`` of any other layout is a copy), so any other
    layout is refused. ``top``/``bottom`` are the border rows a rank sends,
    ``halo_up``/``halo_down`` the halo rows its neighbours' rows land in.
    """

    __slots__ = ("grid", "top", "bottom", "halo_up", "halo_down", "_keep",
                 "_relax", "_north", "_south", "_west", "_east", "_centre",
                 "_neighbours", "_updated", "_writes")

    def __init__(self, block: np.ndarray, row_offset: int, omega: float) -> None:
        if not block.flags.c_contiguous:
            raise InvariantViolation(
                "an SOR sweep plan needs a C-contiguous block",
                shape=block.shape, strides=block.strides,
            )
        self.grid = block
        self.top, self.bottom = block[1], block[-2]
        self.halo_up, self.halo_down = block[0], block[-1]
        m, n = block.shape[0] - 2, block.shape[1]
        self._writes = None
        if m <= 0:
            return
        # 0-d float64 operands: the same products as the Python floats,
        # without converting a scalar on every call
        self._keep = np.array(1.0 - omega)
        self._relax = np.array(omega * 0.25)
        flat = block.ravel()
        run = m * n - 2  # flat indices n+1 .. (m+1)*n - 2
        self._north = flat[1 : 1 + run]
        self._south = flat[2 * n + 1 : 2 * n + 1 + run]
        self._west = flat[n : n + run]
        self._east = flat[n + 2 : n + 2 + run]
        self._centre = flat[n + 1 : n + 1 + run]
        self._neighbours, self._updated, sources = _scratch(m, n)
        interior = block[1:-1, 1:-1]
        writes = []
        for phase in (0, 1):
            # interior cell (di, jj) is global (row_offset + di, jj + 1): its
            # colour matches ``phase`` when (di + jj) % 2 == q
            q = (phase + row_offset + 1) % 2
            even, odd = sources[q]
            writes.append((interior[0::2, q::2], even, interior[1::2, 1 - q :: 2], odd))
        self._writes = tuple(writes)

    def sweep(self, phase: int) -> None:
        """Relax colour *phase* of the interior in place."""
        if self._writes is None:
            return
        neighbours, updated = self._neighbours, self._updated
        np.add(self._north, self._south, neighbours)
        neighbours += self._west
        neighbours += self._east
        np.multiply(self._centre, self._keep, updated)
        neighbours *= self._relax
        updated += neighbours
        even_dst, even_src, odd_dst, odd_src = self._writes[phase]
        even_dst[...] = even_src
        odd_dst[...] = odd_src


def _sweep(block: np.ndarray, row_offset: int, omega: float, phase: int) -> None:
    """Relax one colour of the interior of *block* in place, once.

    Goes through a :class:`_SweepPlan`; a block that is not C-contiguous is
    swept as a C-ordered copy whose interior is then written back.
    """
    if block.flags.c_contiguous:
        _SweepPlan(block, row_offset, omega).sweep(phase)
        return
    work = np.ascontiguousarray(block)
    _SweepPlan(work, row_offset, omega).sweep(phase)
    block[1:-1, 1:-1] = work[1:-1, 1:-1]


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

        plan = None
        while state["iter"] < self.iters:
            if plan is None or plan.grid is not state["grid"]:
                plan = _SweepPlan(state["grid"], lo, self.omega)
            for phase in (0, 1):
                # halo exchange: push our border rows, pull the neighbours'
                if up is not None:
                    yield from comm.send(up, plan.top.copy(), tag=_TAG_DOWN)
                if down is not None:
                    yield from comm.send(down, plan.bottom.copy(), tag=_TAG_UP)
                if up is not None:
                    msg = yield comm.recv(source=up, tag=_TAG_UP)
                    plan.halo_up[...] = msg.payload
                if down is not None:
                    msg = yield comm.recv(source=down, tag=_TAG_DOWN)
                    plan.halo_down[...] = msg.payload
                plan.sweep(phase)
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
        plan = _SweepPlan(grid, 1, self.omega)
        for _ in range(self.iters):
            for phase in (0, 1):
                plan.sweep(phase)
        return {"sum": float(grid[1:-1, :].sum()), "n": self.n, "iters": self.iters}
