"""The kernels of ``repro.apps`` in their original, slower spellings.

The application layer computes these five in rewritten forms that claim the
*same arithmetic*: the same floating-point operations on the same operands
in the same order, hence bit-identical results. These are the oracles that
claim is tested against (``test_kernel_exactness.py``); nothing under
``src/`` imports them.
"""

from typing import Tuple

import numpy as np

from repro.apps.nbody import _EPS2, _G


def solve_task(dist: np.ndarray, first: int, second: int, best: int) -> Tuple[int, int]:
    """TSP branch-and-bound below ``0 -> first -> second``: numpy-scalar
    reads and the admissible bound re-summed at every node."""
    n = dist.shape[0]
    d = dist
    min_out = d + np.where(np.eye(n, dtype=bool), np.int64(1) << 30, 0)
    cheapest = min_out.min(axis=1)

    nodes = 0
    used = [False] * n
    used[0] = used[first] = used[second] = True
    start_cost = int(d[0, first] + d[first, second])
    best_cost = best

    def dfs(last: int, cost: int, depth: int) -> None:
        nonlocal nodes, best_cost
        nodes += 1
        if depth == n:
            total = cost + int(d[last, 0])
            if total < best_cost:
                best_cost = total
            return
        remaining_bound = cost + int(
            sum(int(cheapest[c]) for c in range(n) if not used[c])
        )
        if remaining_bound >= best_cost:
            return
        for c in range(1, n):
            if not used[c]:
                nc = cost + int(d[last, c])
                if nc < best_cost:
                    used[c] = True
                    dfs(c, nc, depth + 1)
                    used[c] = False

    if start_cost < best_cost:
        dfs(second, start_cost, 3)
    return best_cost, nodes


def sweep_colour(
    block: np.ndarray,
    jh_rows: np.ndarray,
    jv_rows: np.ndarray,
    row_offset: int,
    colour: int,
    beta: float,
    rng: np.random.Generator,
) -> None:
    """ISING half-sweep evaluated on every site, the colour picked by a
    boolean mask."""
    m, n = block.shape[0] - 2, block.shape[1]
    if m <= 0:
        return
    interior = block[1:-1]
    up = block[0:-2]
    down = block[2:]
    left = np.roll(interior, 1, axis=1)
    right = np.roll(interior, -1, axis=1)
    j_up = jv_rows[:-1]
    j_down = jv_rows[1:]
    j_right = jh_rows
    j_left = np.roll(jh_rows, 1, axis=1)
    field = j_up * up + j_down * down + j_left * left + j_right * right
    d_e = 2.0 * interior * field
    gi = (row_offset + np.arange(m))[:, None]
    gj = np.arange(n)[None, :]
    mask = (gi + gj) % 2 == colour
    u = rng.random(size=interior.shape)
    flip = mask & (u < np.exp(-beta * np.maximum(d_e, 0.0)))
    interior[flip] = -interior[flip]


def block_forces(tpos: np.ndarray, spos: np.ndarray, smass: np.ndarray) -> np.ndarray:
    """NBODY block force on a ``(t, s, 3)`` displacement cube."""
    if tpos.size == 0 or spos.size == 0:
        return np.zeros_like(tpos)
    dr = spos[None, :, :] - tpos[:, None, :]
    r2 = (dr * dr).sum(axis=2) + _EPS2
    inv_r3 = r2 ** -1.5
    return _G * (dr * (smass[None, :] * inv_r3)[:, :, None]).sum(axis=1)


def eliminate(rows: np.ndarray, ids: np.ndarray, pivot: np.ndarray, k: int) -> int:
    """GAUSS: eliminate column *k* from the local rows below the pivot,
    selected by a boolean mask; returns how many rows that was."""
    below = ids > k
    m = int(below.sum())
    if m > 0:
        factors = rows[below, k] / pivot[k]
        rows[below, k:] -= factors[:, None] * pivot[k:]
    return m


def sor_sweep(block: np.ndarray, row_offset: int, omega: float, phase: int) -> None:
    """SOR red-black half-sweep as 2-D strided arithmetic over the
    interior, written back through two strided colour slices."""
    m, n = block.shape[0] - 2, block.shape[1]
    if m <= 0:
        return
    neighbours = np.empty((m, n - 2), dtype=np.float64)
    updated = np.empty((m, n - 2), dtype=np.float64)
    np.add(block[0:-2, 1:-1], block[2:, 1:-1], out=neighbours)
    neighbours += block[1:-1, 0:-2]
    neighbours += block[1:-1, 2:]
    interior = block[1:-1, 1:-1]
    np.multiply(interior, 1.0 - omega, out=updated)
    neighbours *= omega * 0.25
    updated += neighbours
    q = (phase + row_offset + 1) % 2
    interior[0::2, q::2] = updated[0::2, q::2]
    interior[1::2, 1 - q :: 2] = updated[1::2, 1 - q :: 2]
