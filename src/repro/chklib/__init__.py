"""The checkpointing library — the paper's primary contribution.

Snapshots, the stable-storage checkpoint manager, coordinated and
independent schemes, recovery-line computation, rollback-dependency
analysis, garbage collection, message logging and the runtime that ties an
application, a scheme and a machine together.
"""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "CheckpointRuntime": "runtime",
    "Ctx": "runtime",
    "FaultModel": "runtime",
    "RunReport": "report",
    "RecoveryEvent": "report",
    "stable_write": "retry",
    "stable_read": "retry",
    "Scheme": "schemes",
    "SchemeAgent": "schemes",
    "NoCheckpointing": "schemes",
    "CoordinatedScheme": "schemes",
    "IndependentScheme": "schemes",
    "CICScheme": "schemes",
    "MessageLoggingScheme": "schemes",
    "Snapshot": "state",
    "CheckpointRecord": "storage_mgr",
    "CheckpointStore": "storage_mgr",
    "CutPoint": "recovery",
    "build_cuts": "recovery",
    "consistent_line": "recovery",
    "covered_index_line": "recovery",
    "is_consistent": "recovery",
    "in_transit_ranges": "recovery",
    "rollback_distances": "recovery",
    "domino_extent": "recovery",
    "rollback_dependency_graph": "dependency",
    "line_via_graph": "dependency",
    "collect_garbage": "garbage",
    "GcStats": "garbage",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
