"""Unit tests for the failure-frequency experiment helpers."""

import pytest

from repro.experiments.faults import young_interval
from repro.fault.plans import crash_times


class TestYoungInterval:
    def test_formula(self):
        assert young_interval(2.0, 100.0) == pytest.approx(20.0)

    def test_scaling(self):
        # 4x the MTBF -> 2x the interval
        assert young_interval(1.0, 400.0) == 2 * young_interval(1.0, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            young_interval(0.0, 10.0)
        with pytest.raises(ValueError):
            young_interval(1.0, -1.0)


class TestCrashTimes:
    def test_deterministic(self):
        a = crash_times(10.0, 100.0, seed=1, stream="s")
        b = crash_times(10.0, 100.0, seed=1, stream="s")
        assert a == b

    def test_different_streams_differ(self):
        a = crash_times(10.0, 100.0, seed=1, stream="s1")
        b = crash_times(10.0, 100.0, seed=1, stream="s2")
        assert a != b

    def test_covers_horizon(self):
        times = crash_times(5.0, 200.0, seed=0, stream="s")
        assert times[-1] >= 200.0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_mean_roughly_mtbf(self):
        times = crash_times(10.0, 10_000.0, seed=0, stream="s")
        gaps = [b - a for a, b in zip([0.0] + times[:-1], times)]
        mean = sum(gaps) / len(gaps)
        assert 8.0 < mean < 12.0
