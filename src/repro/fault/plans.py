"""Deterministic crash schedules.

:func:`crash_times` draws a schedule; :class:`CrashSchedule` names one by
its recipe and draws it on first read, so a cell that holds a schedule
can be keyed, pickled and looked up without paying for the draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Tuple

__all__ = ["CrashSchedule", "crash_times"]


def crash_times(
    mtbf: float, horizon: float, seed: int = 0, stream: str = "faults"
) -> List[float]:
    """Deterministic exponential (Poisson-process) crash arrivals covering
    ``[0, horizon]`` (the last arrival lands beyond the horizon)."""
    if mtbf <= 0:
        raise ValueError(f"MTBF must be positive, got {mtbf}")
    # imported here: a run that never draws a schedule never loads NumPy
    import numpy as np

    from ..core.rng import derive_seed

    rng = np.random.default_rng(derive_seed(seed, f"faults.{stream}"))
    times: List[float] = []
    t = 0.0
    while t < horizon:
        t += float(rng.exponential(mtbf))
        times.append(t)
    return times


@dataclass(frozen=True)
class CrashSchedule:
    """The crash times ``crash_times(mtbf, horizon, seed, stream)`` draws,
    held as that recipe: its four fields are what a cell key hashes, and
    :attr:`times` is drawn once, by the run that reads it."""

    mtbf: float
    horizon: float
    seed: int = 0
    stream: str = "faults"

    def __post_init__(self) -> None:
        if not self.mtbf > 0:
            raise ValueError(f"MTBF must be positive, got {self.mtbf}")
        if not self.horizon >= 0:
            raise ValueError(f"horizon must be non-negative, got {self.horizon}")

    @cached_property
    def times(self) -> Tuple[float, ...]:
        return tuple(crash_times(self.mtbf, self.horizon, self.seed, self.stream))

    def __iter__(self) -> Iterator[float]:
        return iter(self.times)
