"""Experiment harness: one module per table/figure plus ablations & sweeps.

See DESIGN.md §4 for the per-experiment index. Each experiment is a
declarative :class:`~repro.experiments.grid.ExperimentSpec` built by its
``*_spec`` factory, and there is one way to run one: hand the spec to
:func:`~repro.experiments.executor.run_spec` (or several to
:meth:`GridExecutor.run_specs <repro.experiments.executor.GridExecutor.run_specs>`
— deduplication, parallel fan-out, on-disk result cache).  The result is
a :class:`~repro.analysis.result.TableResult` with ``render()`` (the
table(s) as text) and ``shape_holds()`` (the paper's qualitative claims
as booleans).
"""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    # grid + execution core
    "Cell": "grid",
    "ExperimentSpec": "grid",
    "GridResults": "grid",
    "SchemeSpec": "grid",
    "WorkloadSpec": "grid",
    "cell_key": "grid",
    "interval_times": "grid",
    "GridExecutor": "executor",
    "ExecutorStats": "executor",
    "CellTimeout": "executor",
    "run_cell": "executor",
    "run_spec": "executor",
    # workload catalogues
    "table1_workloads": "workloads",
    "table23_workloads": "workloads",
    "quick_workloads": "workloads",
    "scaled_iters": "workloads",
    # shared harness
    "make_scheme": "harness",
    "scheme_spec": "harness",
    "overhead_grid": "harness",
    "WorkloadResult": "harness",
    "SCHEMES_TABLE1": "harness",
    "SCHEMES_TABLE23": "harness",
    "RESILIENCE_SCHEMES": "resilience",
    "POLICY_SCHEMES": "policies",
    # the experiments
    "table1_spec": "table1",
    "table23_spec": "table23",
    "staggering_spec": "ablations",
    "sync_cost_spec": "ablations",
    "writer_sweep_spec": "sweeps",
    "bandwidth_sweep_spec": "sweeps",
    "domino_spec": "domino",
    "storage_overhead_spec": "domino",
    "capture_spec": "capture",
    "failure_rates_spec": "faults",
    "interval_sweep_spec": "faults",
    "young_interval": "faults",
    "two_level_spec": "twolevel",
    "resilience_spec": "resilience",
    "policies_spec": "policies",
    "SCALE_NS": "scale",
    "scale_workload": "scale",
    "scale_machine": "scale",
    "scale_spec": "scale",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
