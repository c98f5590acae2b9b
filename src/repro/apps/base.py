"""Application framework: the SPMD contract the checkpointing layer needs.

An :class:`Application` is an SPMD program written against the MPI-like
:class:`~repro.net.api.Comm`, driven per rank as a simulation coroutine.
The contract that makes transparent checkpoint/restart work:

1. **Single state dict** — everything needed to resume (arrays, counters,
   the RNG generator) lives in the dict returned by :meth:`make_state`,
   mutated in place. The top-level dict object identity must not change.
2. **Iteration structure** — ``state["iter"]`` counts completed outer
   iterations; :meth:`run` must resume correctly from any value of it (the
   canonical loop is ``while state["iter"] < n: ...; state["iter"] += 1;
   yield from ctx.checkpoint_point()``).
3. **Checkpoint points** — ``ctx.checkpoint_point()`` is yielded once per
   outer iteration, at a moment where the state dict fully describes the
   process (no half-applied updates).
4. **Piecewise determinism** — re-running from a restored state reproduces
   the execution exactly: same sends (bit-identical payloads, same order),
   same receives consumed per channel in the same order. Randomness must
   come from the generator stored in the state dict.
5. **Immutable payloads** — a received payload is never mutated in place
   (copy it into local arrays); recorded channel state shares payloads.

Simulated computation time is charged explicitly via ``ctx.compute(flops)``
with analytically-derived work; the *data* computation itself is real NumPy
so that checkpoints have genuine content and results can be validated
against a serial reference.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Generator, Tuple

__all__ = ["Application", "partition"]


@functools.lru_cache(maxsize=32)
def partition(n: int, size: int) -> Tuple[Tuple[int, int], ...]:
    """Split ``0 .. n-1`` into ``size`` contiguous balanced ``(lo, hi)`` ranges.

    Cached: every rank asks for the same table, which would otherwise
    cost O(size) per rank — O(size^2) per run at scale.
    """
    base, extra = divmod(n, size)
    ranges = []
    lo = 0
    for r in range(size):
        cnt = base + (1 if r < extra else 0)
        ranges.append((lo, lo + cnt))
        lo += cnt
    return tuple(ranges)


class Application:
    """Base class for the benchmark applications."""

    #: short identifier used in tables and reports.
    name = "app"
    #: fixed process-image bytes saved with every checkpoint on top of the
    #: application data (code + stack + heap of a system-level checkpoint).
    image_bytes = 128 * 1024

    # -- SPMD interface ---------------------------------------------------

    def make_state(self, rank: int, size: int, seed: int) -> Dict[str, Any]:
        """Fresh rank-local state (must include ``iter``)."""
        raise NotImplementedError

    def run(self, ctx, state: Dict[str, Any]) -> Generator[Any, Any, Any]:
        """The SPMD program; returns the global result on rank 0."""
        raise NotImplementedError

    def comm_peers(self, rank: int, size: int):
        """Ranks that *rank* may exchange application messages with, or
        ``None`` when the communication graph is unknown/dense.

        Used by coordinated schemes with ``marker_scope="peers"`` to send
        Chandy-Lamport markers only along channels that can actually carry
        messages — O(N·degree) markers instead of O(N²), which is what
        makes marker rounds tractable at thousands of ranks. The returned
        relation must be symmetric (if s can message r, r's peers include
        s and vice versa) and must cover every send the application can
        issue, collectives included; ``None`` (the default) keeps the
        all-pairs marker flood.
        """
        return None

    # -- validation interface -----------------------------------------------

    def serial_result(self, size: int, seed: int) -> Any:
        """Reference result computed without the simulator (same numerics)."""
        raise NotImplementedError

    # -- reporting -----------------------------------------------------------

    def describe(self) -> str:
        """One-line parameter summary for table rows."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"
