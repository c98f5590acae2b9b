"""Deterministic named random streams.

Every stochastic element of a run (application data, checkpoint timer skew,
fault times) draws from its own named substream derived from one master
seed, so adding a new consumer never perturbs existing ones and any single
component can be re-seeded in isolation for tests.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RngStreams", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """A stable 64-bit seed for substream *name* under *master_seed*."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """Factory and cache of named :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """The generator for *name* (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self.master_seed, name))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """A brand-new generator for *name*, bypassing (and resetting) the cache.

        Used when re-executing an application after rollback: the replayed
        process must see the same stream from the start.
        """
        gen = np.random.default_rng(derive_seed(self.master_seed, name))
        self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RngStreams seed={self.master_seed} streams={len(self._streams)}>"
