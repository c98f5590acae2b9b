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

from .ablations import staggering_spec, sync_cost_spec
from .capture import capture_spec
from .domino import domino_spec, storage_overhead_spec
from .executor import (
    CellTimeout,
    ExecutorStats,
    GridExecutor,
    RunJournal,
    run_cell,
    run_spec,
)
from .faults import failure_rates_spec, interval_sweep_spec, young_interval
from .grid import (
    Cell,
    ExperimentSpec,
    GridResults,
    SchemeSpec,
    WorkloadSpec,
    cell_key,
    interval_times,
)
from .harness import (
    SCHEMES_TABLE1,
    SCHEMES_TABLE23,
    WorkloadResult,
    make_scheme,
    overhead_grid,
    scheme_spec,
)
from .policies import POLICY_SCHEMES, policies_spec
from .resilience import RESILIENCE_SCHEMES, resilience_spec
from .scale import SCALE_NS, scale_machine, scale_spec, scale_workload
from .sweeps import bandwidth_sweep_spec, writer_sweep_spec
from .table1 import table1_spec
from .table23 import table23_spec
from .twolevel import two_level_spec
from .workloads import (
    quick_workloads,
    scaled_iters,
    table1_workloads,
    table23_workloads,
)

__all__ = [
    # grid + execution core
    "Cell",
    "ExperimentSpec",
    "GridResults",
    "SchemeSpec",
    "WorkloadSpec",
    "cell_key",
    "interval_times",
    "GridExecutor",
    "ExecutorStats",
    "RunJournal",
    "CellTimeout",
    "run_cell",
    "run_spec",
    # workload catalogues
    "table1_workloads",
    "table23_workloads",
    "quick_workloads",
    "scaled_iters",
    # shared harness
    "make_scheme",
    "scheme_spec",
    "overhead_grid",
    "WorkloadResult",
    "SCHEMES_TABLE1",
    "SCHEMES_TABLE23",
    "RESILIENCE_SCHEMES",
    "POLICY_SCHEMES",
    # the experiments
    "table1_spec",
    "table23_spec",
    "staggering_spec",
    "sync_cost_spec",
    "writer_sweep_spec",
    "bandwidth_sweep_spec",
    "domino_spec",
    "storage_overhead_spec",
    "capture_spec",
    "failure_rates_spec",
    "interval_sweep_spec",
    "young_interval",
    "two_level_spec",
    "resilience_spec",
    "policies_spec",
    "SCALE_NS",
    "scale_workload",
    "scale_machine",
    "scale_spec",
]
