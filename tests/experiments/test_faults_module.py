"""Unit tests for the failure-frequency experiment helpers."""

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.experiments.faults import young_interval
from repro.experiments.grid import Cell, WorkloadSpec, cell_key, cell_to_jsonable
from repro.fault.model import FaultModel
from repro.fault.plans import CrashSchedule, crash_times


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


class TestCrashSchedule:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("stream", ["faults", "f1@0.5#2", "sweep"])
    def test_times_are_crash_times(self, seed, stream):
        schedule = CrashSchedule(3.0, 60.0, seed, stream)
        assert schedule.times == tuple(crash_times(3.0, 60.0, seed, stream))
        assert tuple(schedule) == schedule.times

    def test_bad_recipe_raises_at_construction_without_numpy(self):
        probe = (
            "import sys\n"
            "from repro.fault.plans import CrashSchedule\n"
            "for args in ((0.0, 1.0), (-1.0, 1.0), (float('nan'), 1.0),\n"
            "             (1.0, -1.0), (1.0, float('nan'))):\n"
            "    try:\n"
            "        CrashSchedule(*args)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'accepted {args}')\n"
            "CrashSchedule(1.0, 0.0)\n"
            "assert 'numpy' not in sys.modules, 'a recipe imported numpy'\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), *sys.path) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout

    def test_pickle_round_trip(self):
        schedule = CrashSchedule(5.0, 100.0, 2, "s")
        undrawn = pickle.loads(pickle.dumps(schedule))
        assert undrawn == schedule and "times" not in undrawn.__dict__
        assert undrawn.times == schedule.times  # draws both
        drawn = pickle.loads(pickle.dumps(schedule))
        assert drawn == schedule and drawn.times == schedule.times

    def test_fault_model_yields_the_drawn_events(self):
        schedule = CrashSchedule(4.0, 80.0, 3, "f1@1.0#0")
        recipe = FaultModel(machine_crash_times=schedule)
        drawn = FaultModel(
            machine_crash_times=tuple(crash_times(4.0, 80.0, 3, "f1@1.0#0"))
        )
        assert tuple(recipe.machine_crash_times) == drawn.machine_crash_times
        assert recipe.machine_crash_times is schedule  # held, not drawn


def _faulted(schedule: CrashSchedule) -> Cell:
    return Cell(
        workload=WorkloadSpec.of("sor-32", "sor", n=32, iters=50),
        fault=FaultModel(machine_crash_times=schedule),
    )


class TestCellKey:
    RECIPE = dict(mtbf=5.0, horizon=100.0, seed=0, stream="s")

    @pytest.mark.parametrize(
        "field,value", [("mtbf", 6.0), ("horizon", 90.0), ("seed", 1), ("stream", "t")]
    )
    def test_each_recipe_field_changes_the_key(self, field, value):
        base = _faulted(CrashSchedule(**self.RECIPE))
        moved = _faulted(CrashSchedule(**{**self.RECIPE, field: value}))
        assert cell_key(moved) != cell_key(base)

    def test_key_is_the_recipe_not_the_times(self):
        schedule = CrashSchedule(**self.RECIPE)
        payload = cell_to_jsonable(_faulted(schedule))
        assert payload["fault"]["machine_crash_times"] == self.RECIPE
        assert "times" not in schedule.__dict__, "keying drew the schedule"

    def test_memoised_key_is_a_fresh_computation(self):
        cell = _faulted(CrashSchedule(**self.RECIPE))
        fresh = hashlib.sha256(
            json.dumps(
                cell_to_jsonable(cell), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        ).hexdigest()
        assert cell_key(cell) == fresh
        assert cell_key(cell) is cell_key(cell)  # computed once

        other = dataclasses.replace(cell, seed=1)
        assert cell_key(other) != cell_key(cell)
        assert cell_key(dataclasses.replace(other, seed=0)) == cell_key(cell)
