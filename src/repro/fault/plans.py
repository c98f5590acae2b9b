"""Deterministic crash schedules."""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.rng import derive_seed

__all__ = ["crash_times"]


def crash_times(
    mtbf: float, horizon: float, seed: int = 0, stream: str = "faults"
) -> List[float]:
    """Deterministic exponential (Poisson-process) crash arrivals covering
    ``[0, horizon]`` (the last arrival lands beyond the horizon)."""
    if mtbf <= 0:
        raise ValueError(f"MTBF must be positive, got {mtbf}")
    rng = np.random.default_rng(derive_seed(seed, f"faults.{stream}"))
    times: List[float] = []
    t = 0.0
    while t < horizon:
        t += float(rng.exponential(mtbf))
        times.append(t)
    return times
