"""Edge cases of the stable-storage retry loop (:mod:`repro.chklib.retry`).

Drives :func:`stable_write` / :func:`stable_read` against a deterministic
flaky-storage stub inside a real :class:`~repro.core.Engine`, pinning down
the contract the schemes rely on: a zero-retry budget fails after exactly
one attempt, backoff delays are the fixed geometric series 0.05, 0.1,
0.2, ... s, and an exhausted budget re-raises the *typed* terminal
:class:`~repro.core.errors.StorageFault` with the retry counters showing
every retry that was granted.
"""

import pytest

from repro.chklib.retry import stable_read, stable_write
from repro.core import Engine
from repro.core.errors import StorageFault

SERVICE = 0.25  # simulated seconds per storage attempt


class FlakyStorage:
    """Stable-storage stand-in: each op costs SERVICE sim-seconds and the
    first *fail_times* ops raise a StorageFault after paying for it."""

    def __init__(self, engine, fail_times=0):
        self.engine = engine
        self.fail_times = fail_times
        self.attempts = 0

    def _op(self, kind, tag):
        self.attempts += 1
        yield self.engine.timeout(SERVICE)
        if self.attempts <= self.fail_times:
            raise StorageFault(kind, tag=tag, partial_bytes=0.0)

    def write(self, node, nbytes, tag="", background=False):
        yield from self._op("write", tag)

    def read(self, node, nbytes, tag=""):
        yield from self._op("read", tag)


class CountingTracer:
    def __init__(self):
        self.counters = {}

    def add(self, name, value=1.0):
        self.counters[name] = self.counters.get(name, 0.0) + value


def drive(engine, gen):
    """Run the retry generator inside an engine process; returns the
    terminal StorageFault, or None on success."""
    outcome = []

    def proc():
        try:
            yield from gen
        except StorageFault as exc:
            outcome.append(exc)

    engine.process(proc(), name="retry-test")
    engine.run()
    return outcome[0] if outcome else None


def test_zero_retry_budget_fails_after_one_attempt():
    engine = Engine()
    storage = FlakyStorage(engine, fail_times=99)
    tracer = CountingTracer()
    exc = drive(
        engine,
        stable_write(
            storage,
            None,
            1024.0,
            tag="ckpt",
            max_retries=0,
            tracer=tracer,
        )
    )
    assert isinstance(exc, StorageFault)
    assert storage.attempts == 1  # no retry was granted
    assert tracer.counters == {}  # and none was counted
    assert engine.now == pytest.approx(SERVICE)  # just the one attempt


def test_zero_retry_budget_read_fails_after_one_attempt():
    engine = Engine()
    storage = FlakyStorage(engine, fail_times=99)
    tracer = CountingTracer()
    exc = drive(
        engine,
        stable_read(storage, None, 1024.0, max_retries=0, tag="restore", tracer=tracer),
    )
    assert isinstance(exc, StorageFault)
    assert exc.op == "read"
    assert storage.attempts == 1
    assert tracer.counters == {}
    assert engine.now == pytest.approx(SERVICE)  # no backoff before failing


def test_backoff_delays_are_deterministic():
    engine = Engine()
    storage = FlakyStorage(engine, fail_times=3)  # succeeds on attempt 4
    tracer = CountingTracer()
    exc = drive(
        engine, stable_write(storage, None, 1024.0, max_retries=3, tracer=tracer)
    )
    assert exc is None
    assert storage.attempts == 4
    assert tracer.counters == {"storage.write_retries": 3.0}
    # 4 service intervals + the backoff series 0.05, 0.1, 0.2
    assert engine.now == pytest.approx(4 * SERVICE + 0.05 + 0.1 + 0.2)


def test_exhausted_budget_raises_typed_fault_with_counters():
    engine = Engine()
    storage = FlakyStorage(engine, fail_times=99)  # never recovers
    tracer = CountingTracer()
    exc = drive(
        engine,
        stable_read(storage, None, 2048.0, max_retries=2, tag="restore", tracer=tracer),
    )
    assert isinstance(exc, StorageFault)
    assert exc.op == "read"
    assert exc.tag == "restore"
    assert storage.attempts == 3
    assert tracer.counters == {"storage.read_retries": 2.0}
    assert engine.now == pytest.approx(3 * SERVICE + 0.05 + 0.1)


def test_retry_without_tracer_counts_nothing_but_still_retries():
    engine = Engine()
    storage = FlakyStorage(engine, fail_times=1)
    exc = drive(engine, stable_write(storage, None, 64.0, max_retries=1))
    assert exc is None
    assert storage.attempts == 2
