"""Unit tests for the declarative grid: specs, cells, keys, lookup."""

import pickle

import pytest

from repro.chklib.schemes.registry import ALIASES
from repro.experiments.grid import (
    Cell,
    GridResults,
    SchemeSpec,
    WorkloadSpec,
    cell_key,
    cell_to_jsonable,
    interval_times,
)
from repro.fault import FaultModel, StorageFaultSpec
from repro.machine import MachineParams


def _cell(**overrides) -> Cell:
    base = dict(
        workload=WorkloadSpec.of("sor-32", "sor", n=32, iters=50),
        scheme=SchemeSpec.of("coord_nbms", (10.0, 20.0)),
        seed=0,
    )
    base.update(overrides)
    return Cell(**base)


# -- WorkloadSpec -------------------------------------------------------------


def test_workload_spec_builds_registered_app():
    spec = WorkloadSpec.of("sor-32", "sor", n=32, iters=50)
    app = spec.build()
    assert type(app).__name__ == "SOR"
    assert spec.build() is not app, "build() must return a fresh instance"


def test_workload_spec_params_canonicalised():
    a = WorkloadSpec.of("w", "sor", n=32, iters=50)
    b = WorkloadSpec.of("w", "sor", iters=50, n=32)
    assert a == b
    assert hash(a) == hash(b)


def test_workload_spec_image_bytes_override():
    spec = WorkloadSpec.of("w", "sor", image_bytes=4096, n=32, iters=50)
    assert spec.build().image_bytes == 4096


def test_workload_spec_unknown_app_rejected():
    with pytest.raises(ValueError, match="unknown application"):
        WorkloadSpec.of("w", "not-an-app").build()


# -- SchemeSpec ---------------------------------------------------------------


def test_scheme_spec_alias_resolves_flags():
    spec = SchemeSpec.of("indep_m_log", (5.0,), skew=0.5)
    assert spec.name == "indep_m"
    assert spec.logging is True
    assert spec.skew == 0.5
    spec2 = SchemeSpec.of("coord_nbms_inc", (5.0,))
    assert spec2.name == "coord_nbms"
    assert spec2.incremental is True


def test_scheme_spec_every_alias_builds():
    for alias, _base, _fixed in ALIASES:
        scheme = SchemeSpec.of(alias, (5.0, 10.0)).build()
        assert scheme is not None, alias


def test_scheme_spec_unknown_alias_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        SchemeSpec.of("coord_xyz", (5.0,))


def test_scheme_spec_times_normalised_to_float_tuple():
    spec = SchemeSpec.of("coord_nb", [1, 2])
    assert spec.times == (1.0, 2.0)
    assert isinstance(spec.times, tuple)


# -- Cell / cell_key ----------------------------------------------------------


def test_cell_key_stable_and_content_based():
    assert cell_key(_cell()) == cell_key(_cell())
    assert cell_key(_cell(seed=1)) != cell_key(_cell(seed=0))
    assert cell_key(_cell(scheme=None)) != cell_key(_cell())
    assert cell_key(
        _cell(machine=MachineParams(n_nodes=4))
    ) != cell_key(_cell())


def test_cell_key_sees_fault_model():
    faulted = _cell(
        fault=FaultModel(
            machine_crash_times=(8.0,),
            storage=StorageFaultSpec(write_fail_p=0.1),
        )
    )
    assert cell_key(faulted) != cell_key(_cell())
    assert cell_key(faulted) == cell_key(
        _cell(
            fault=FaultModel(
                machine_crash_times=(8.0,),
                storage=StorageFaultSpec(write_fail_p=0.1),
            )
        )
    )


def test_cell_jsonable_is_versioned_plain_data():
    import json

    payload = cell_to_jsonable(_cell())
    assert payload["v"] == 1
    json.dumps(payload)  # must be pure JSON types


def test_cell_is_picklable():
    cell = _cell(fault=FaultModel(machine_crash_times=(8.0,)))
    clone = pickle.loads(pickle.dumps(cell))
    assert clone == cell
    assert cell_key(clone) == cell_key(cell)


# -- GridResults --------------------------------------------------------------


def test_grid_results_lookup_and_miss_message():
    results = GridResults()
    cell = _cell()
    assert cell not in results
    assert results.get(cell) is None
    with pytest.raises(KeyError, match="sor-32"):
        results[cell]
    sentinel = object()
    results.put(cell_key(cell), sentinel)
    assert cell in results
    assert results[cell] is sentinel
    assert len(results) == 1


# -- interval_times -----------------------------------------------------------


def test_interval_times_schedule_rule():
    interval, times = interval_times(100.0, rounds=3)
    assert interval == pytest.approx(100.0 / 4.5)
    assert times == tuple(interval * i for i in (1, 2, 3))
    assert times[-1] < 100.0, "last checkpoint leaves commit headroom"
