"""TSP: branch-and-bound over a dense city map.

Work is split into fixed tasks (all ``(first, second)`` city pairs after
the start city), distributed round-robin over the ranks; every rank solves
its tasks with depth-first branch-and-bound seeded by a greedy tour bound.
Ranks only communicate at the end (min-reduction of the best tours) —
the *loosely-coupled* extreme among the benchmarks: a rank blocked inside
a checkpoint stalls nobody else.

Determinism note: the paper's TSP was a task farm with dynamic scheduling,
which is not piecewise deterministic (assignment depends on timing). The
static split preserves the performance-relevant structure (independent
workers, tiny communication) while satisfying the replay contract; the
optimum is identical either way. Recorded in DESIGN.md.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..core.rng import derive_seed
from ..net.collectives import reduce
from .base import Application

__all__ = ["TSP"]


@functools.lru_cache(maxsize=1)
def _make_map(n_cities: int, seed: int) -> np.ndarray:
    """Symmetric integer distance map (dense); one read-only instance per
    ``(n_cities, seed)``, so ``make_state`` takes a copy."""
    rng = np.random.default_rng(derive_seed(seed, "tsp.map"))
    d = rng.integers(10, 100, size=(n_cities, n_cities)).astype(np.int64)
    d = (d + d.T) // 2
    np.fill_diagonal(d, 0)
    d.setflags(write=False)
    return d


def _greedy_bound(dist: np.ndarray) -> int:
    """Nearest-neighbour tour cost: the initial upper bound."""
    n = dist.shape[0]
    visited = [0]
    total = 0
    current = 0
    remaining = set(range(1, n))
    while remaining:
        nxt = min(remaining, key=lambda c: (int(dist[current, c]), c))
        total += int(dist[current, nxt])
        remaining.discard(nxt)
        visited.append(nxt)
        current = nxt
    total += int(dist[current, 0])
    return total


@functools.lru_cache(maxsize=1)
def _prepare(
    dist_bytes: bytes, n: int
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    """Per-map search tables as plain ints: the distance rows and every
    city's cheapest outgoing edge (the admissible bound's terms)."""
    d = np.frombuffer(dist_bytes, dtype=np.int64).reshape(n, n)
    min_out = d + np.where(np.eye(n, dtype=bool), np.int64(1) << 30, 0)
    return tuple(map(tuple, d.tolist())), tuple(min_out.min(axis=1).tolist())


@functools.lru_cache(maxsize=1024)
def _search(
    dist_bytes: bytes, n: int, first: int, second: int, best: int
) -> Tuple[int, int]:
    """:func:`_solve_task` on hashable arguments, memoised per task.

    The key is the complete input — map, task and incoming incumbent — so a
    hit returns exactly what the search would: the scheme cells after a
    workload's baseline and every post-crash replay look their tasks up.
    """
    rows, cheapest = _prepare(dist_bytes, n)
    nodes = 0
    used = [False] * n
    used[0] = used[first] = used[second] = True
    start_cost = rows[0][first] + rows[first][second]
    best_cost = best

    def dfs(last: int, cost: int, depth: int, unvisited_bound: int) -> None:
        nonlocal nodes, best_cost
        nodes += 1
        row = rows[last]
        if depth == n:
            total = cost + row[0]
            if total < best_cost:
                best_cost = total
            return
        # admissible bound: cheapest outgoing edge of every unvisited city
        if cost + unvisited_bound >= best_cost:
            return
        for c in range(1, n):
            if not used[c]:
                nc = cost + row[c]
                if nc < best_cost:
                    used[c] = True
                    dfs(c, nc, depth + 1, unvisited_bound - cheapest[c])
                    used[c] = False

    if start_cost < best_cost:
        dfs(second, start_cost, 3, sum(cheapest[c] for c in range(n) if not used[c]))
    return best_cost, nodes


def _solve_task(
    dist: np.ndarray, first: int, second: int, best: int
) -> Tuple[int, int]:
    """Branch-and-bound all tours starting ``0 -> first -> second``.

    Returns ``(best_cost, nodes_explored)``; ``best`` is the incoming
    incumbent (tours >= best are pruned).
    """
    return _search(dist.tobytes(), dist.shape[0], first, second, int(best))


class TSP(Application):
    """Branch-and-bound TSP over ``n_cities`` (paper: 16-city dense map)."""

    name = "tsp"

    def __init__(self, n_cities: int = 12, flops_per_node: float = 60.0) -> None:
        if n_cities < 4:
            raise ValueError(f"too few cities: {n_cities}")
        self.n_cities = int(n_cities)
        self.flops_per_node = float(flops_per_node)

    def describe(self) -> str:
        return f"tsp(cities={self.n_cities})"

    def _tasks(self) -> List[Tuple[int, int]]:
        n = self.n_cities
        return [
            (f, s) for f in range(1, n) for s in range(1, n) if s != f
        ]

    # -- SPMD ---------------------------------------------------------------------

    def make_state(self, rank: int, size: int, seed: int) -> Dict[str, Any]:
        dist = _make_map(self.n_cities, seed).copy()
        return {"iter": 0, "dist": dist, "best": _greedy_bound(dist)}

    def run(self, ctx, state: Dict[str, Any]) -> Generator[Any, Any, Any]:
        tasks = self._tasks()
        mine = tasks[ctx.rank :: ctx.size]

        while state["iter"] < len(mine):
            first, second = mine[state["iter"]]
            best, nodes = _solve_task(state["dist"], first, second, state["best"])
            state["best"] = min(state["best"], best)
            yield from ctx.compute(self.flops_per_node * nodes)
            state["iter"] += 1
            yield from ctx.checkpoint_point()

        total_best = yield from reduce(ctx.comm, state["best"], min, root=0)
        if ctx.rank == 0:
            return {"optimum": int(total_best), "cities": self.n_cities}
        return None

    # -- reference -------------------------------------------------------------------

    def serial_result(self, size: int, seed: int) -> Any:
        dist = _make_map(self.n_cities, seed)
        best = _greedy_bound(dist)
        for first, second in self._tasks():
            best, _ = _solve_task(dist, first, second, best)
        return {"optimum": int(best), "cities": self.n_cities}
