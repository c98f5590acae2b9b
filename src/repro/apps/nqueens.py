"""NQUEENS: count the solutions of the N-queens problem.

Tasks are the valid placements of the first two rows, split round-robin
over the ranks; each task is counted by a bitmask depth-first search. Like
TSP, this is the loosely-coupled regime: ranks only talk at the final
sum-reduction.

What is memoised process-wide is the *task root*: ``_count_from`` is an
``lru_cache`` over the 110-odd prefix placements, and the search below a
root recurses through the uncached ``_dfs`` (a cache on the recursion
itself is evicted by its own ~10^6 inner nodes per pass and never hits).
The same board is counted by every scheme cell of a table row and again by
every post-crash replay; all but the first look the task up. Simulated time
is charged from the returned node count, never from host time, so a hit and
a miss charge the same flops and memoisation cannot move an overhead.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Dict, Generator, List, Tuple

from ..net.collectives import reduce
from .base import Application

__all__ = ["NQueens"]


def _dfs(n: int, cols: int, diag1: int, diag2: int, row: int) -> Tuple[int, int]:
    """Solutions and explored nodes below a partial placement (bitmasks)."""
    if row == n:
        return 1, 1
    full = (1 << n) - 1
    free = full & ~(cols | diag1 | diag2)
    solutions = 0
    nodes = 1
    while free:
        bit = free & -free
        free ^= bit
        s, m = _dfs(
            n, cols | bit, ((diag1 | bit) << 1) & full, (diag2 | bit) >> 1, row + 1
        )
        solutions += s
        nodes += m
    return solutions, nodes


@functools.lru_cache(maxsize=4096)
def _count_from(n: int, cols: int, diag1: int, diag2: int, row: int) -> Tuple[int, int]:
    """``_dfs`` memoised at the root it is called with (one entry per task)."""
    return _dfs(n, cols, diag1, diag2, row)


class NQueens(Application):
    """Count N-queens solutions for board size ``n``."""

    name = "nqueens"

    def __init__(self, n: int = 11, flops_per_node: float = 40.0) -> None:
        if n < 4:
            raise ValueError(f"board too small for prefix tasks: {n}")
        self.n = int(n)
        self.flops_per_node = float(flops_per_node)

    def describe(self) -> str:
        return f"nqueens(n={self.n})"

    def _tasks(self) -> List[Tuple[int, int]]:
        """Non-attacking placements (c0, c1) of the first two rows."""
        n = self.n
        return [
            (c0, c1)
            for c0 in range(n)
            for c1 in range(n)
            if c1 != c0 and abs(c1 - c0) != 1
        ]

    # -- SPMD -------------------------------------------------------------------

    def make_state(self, rank: int, size: int, seed: int) -> Dict[str, Any]:
        return {"iter": 0, "count": 0}

    def run(self, ctx, state: Dict[str, Any]) -> Generator[Any, Any, Any]:
        n = self.n
        full = (1 << n) - 1
        tasks = self._tasks()
        mine = tasks[ctx.rank :: ctx.size]

        while state["iter"] < len(mine):
            c0, c1 = mine[state["iter"]]
            b0, b1 = 1 << c0, 1 << c1
            cols = b0 | b1
            diag1 = (((b0 << 1) | b1) << 1) & full
            diag2 = ((b0 >> 1) | b1) >> 1
            solutions, nodes = _count_from(n, cols, diag1, diag2, 2)
            state["count"] += solutions
            yield from ctx.compute(self.flops_per_node * nodes)
            state["iter"] += 1
            yield from ctx.checkpoint_point()

        total = yield from reduce(ctx.comm, state["count"], operator.add, root=0)
        if ctx.rank == 0:
            return {"solutions": int(total), "n": n}
        return None

    # -- reference -----------------------------------------------------------------

    def serial_result(self, size: int, seed: int) -> Any:
        total, _nodes = _count_from(self.n, 0, 0, 0, 0)
        return {"solutions": total, "n": self.n}
