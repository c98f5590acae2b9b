"""Builders for crash schedules and fault models."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.rng import derive_seed
from .model import FaultModel, RetryPolicy, StorageFaultSpec

__all__ = [
    "crash_times",
    "node_crash_model",
    "exponential_node_model",
    "storage_fault_model",
]


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


def node_crash_model(
    schedule: Dict[int, Sequence[float]], **kw
) -> FaultModel:
    """A :class:`FaultModel` with per-node crash schedules
    (``{rank: (t, ...)}``)."""
    return FaultModel(node_crash_times=schedule, **kw)


def exponential_node_model(
    mtbf: float,
    horizon: float,
    ranks: Sequence[int],
    seed: int = 0,
    stream: str = "node-faults",
    **kw,
) -> FaultModel:
    """Per-node exponential crash arrivals: each rank fails independently
    with the given per-node MTBF (deterministic per seed and stream)."""
    schedule = {
        int(r): tuple(crash_times(mtbf, horizon, seed, f"{stream}.r{r}"))
        for r in ranks
    }
    return FaultModel(node_crash_times=schedule, **kw)


def storage_fault_model(
    write_fail_p: float = 0.0,
    read_fail_p: float = 0.0,
    corrupt_p: float = 0.0,
    crash_times: Sequence[float] = (),
    retry: Optional[RetryPolicy] = None,
    **spec_kw,
) -> FaultModel:
    """A :class:`FaultModel` dominated by stable-storage faults, optionally
    combined with whole-machine crashes."""
    return FaultModel(
        machine_crash_times=tuple(crash_times),
        storage=StorageFaultSpec(
            write_fail_p=write_fail_p,
            read_fail_p=read_fail_p,
            corrupt_p=corrupt_p,
            **spec_kw,
        ),
        retry=retry or RetryPolicy(),
    )
