"""Measurement primitives of the end-to-end benchmark, free of any
:mod:`repro` import so the unit tests run them on synthetic data.

* :class:`Spans` — an in-memory span recorder (name, start, end, parent).
* :func:`owner_of` and :class:`Sampler` — wall time split by
  ``repro/<package>/`` directory: a timer signal samples the main thread's
  stack, and each sample goes to the innermost frame that lies in a package,
  so time in built-ins, numpy and the standard library is charged to the
  package that called them.
* :func:`hi_percentile` — "the highest percentile with at least ten samples
  beyond it".
"""

from __future__ import annotations

import re
import signal
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Spans", "Sampler", "owner_of", "hi_percentile"]

_PACKAGE = re.compile(r"[/\\]repro[/\\]([A-Za-z_]\w*)[/\\]")


class Spans:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None], in opening order.
        self.records: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        self.records.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.records[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _ in self.records if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Duration of the *name* spans minus what their child spans cover."""
        covered = [0.0] * len(self.records)
        for _, start, end, parent in self.records:
            if parent is not None:
                covered[parent] += end - start
        return sum(
            end - start - covered[i]
            for i, (n, start, end, _) in enumerate(self.records)
            if n == name
        )


def owner_of(stack: Sequence[str], observer: str = "") -> Optional[str]:
    """The package that owns a sampled stack of file names, innermost first.

    The innermost frame under ``repro/<package>/`` owns the sample: frames
    above it (numpy, the standard library) are its callees, and a built-in
    has no frame at all, so both are charged to the package that called
    them. A frame under *observer* (the benchmark's own directory: the step
    hook a package calls back into, the driver loop) reached first means the
    benchmark itself is running, and so does a stack with no package frame:
    nobody owns those.
    """
    for filename in stack:
        match = _PACKAGE.search(filename)
        if match:
            return match.group(1)
        if observer and filename.startswith(observer):
            return None
    return None


class Sampler:
    """Wall seconds of the main thread by owning package.

    ``ITIMER_PROF`` raises ``SIGPROF`` every *interval* seconds of CPU time;
    Python runs the handler in the main thread between two bytecodes, with
    the interrupted frame. Each call charges the wall time since the
    previous one, so ticks that coalesce during a long C call are not lost:
    they go to the frame that made the call. Sampling costs about a
    hundredth of the run; cProfile's per-call hook doubled it, skewed it
    towards call-heavy code, and pushed a traced ``tables8`` past the
    driver's 180 s cap on seeds with a hard TSP instance.
    """

    def __init__(self, interval: float = 0.001, observer: str = "") -> None:
        self.interval = interval
        self.observer = observer
        #: package -> seconds; ``None`` collects what nobody owns.
        self.seconds: Dict[Optional[str], float] = {}
        #: package -> the part of its seconds spent under numpy's Python frames.
        self.numpy_seconds: Dict[Optional[str], float] = {}
        self._last = 0.0

    def _tick(self, _signum, frame) -> None:
        now = time.perf_counter()
        elapsed, self._last = now - self._last, now
        stack = []
        while frame is not None:
            stack.append(frame.f_code.co_filename)
            frame = frame.f_back
        owner = owner_of(stack, self.observer)
        self.seconds[owner] = self.seconds.get(owner, 0.0) + elapsed
        if stack and "numpy" in stack[0]:
            self.numpy_seconds[owner] = self.numpy_seconds.get(owner, 0.0) + elapsed

    @contextmanager
    def running(self) -> Iterator[None]:
        """Sample while the block runs; the tail after the last tick is
        charged to nobody."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)
            tail = time.perf_counter() - self._last
            self.seconds[None] = self.seconds.get(None, 0.0) + tail


def hi_percentile(samples: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """The highest percentile with at least *beyond* samples above it.

    Returns ``(value, percentile, n)``. With too few samples for any
    percentile to qualify the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n
