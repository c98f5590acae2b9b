"""The checkpointing library — the paper's primary contribution.

Snapshots, the stable-storage checkpoint manager, coordinated and
independent schemes, recovery-line computation, rollback-dependency
analysis, garbage collection, message logging and the runtime that ties an
application, a scheme and a machine together.
"""

from .dependency import line_via_graph, rollback_dependency_graph
from .garbage import GcStats, collect_garbage
from .recovery import (
    CutPoint,
    build_cuts,
    consistent_line,
    covered_index_line,
    domino_extent,
    in_transit_ranges,
    is_consistent,
    rollback_distances,
)
from .policy import (
    CheckpointPolicy,
    FailureRateAdaptive,
    FixedTimes,
    Periodic,
    PhaseTriggered,
    StoragePressure,
    build_policy,
    policy_spec,
)
from .resume import DurableLine
from .retry import stable_read, stable_write
from .runtime import (
    CheckpointRuntime,
    Ctx,
    FaultModel,
    FaultPlan,
    RecoveryEvent,
    RetryPolicy,
    RunReport,
)
from .schemes import (
    REGISTRY,
    CICScheme,
    CoordinatedScheme,
    IndependentScheme,
    MessageLoggingScheme,
    NoCheckpointing,
    ProtocolFamily,
    ProtocolRegistry,
    Scheme,
    SchemeAgent,
)
from .state import Snapshot
from .storage_mgr import CheckpointRecord, CheckpointStore

__all__ = [
    "CheckpointRuntime",
    "Ctx",
    "FaultPlan",
    "FaultModel",
    "RetryPolicy",
    "RunReport",
    "RecoveryEvent",
    "DurableLine",
    "CheckpointPolicy",
    "FixedTimes",
    "Periodic",
    "PhaseTriggered",
    "FailureRateAdaptive",
    "StoragePressure",
    "policy_spec",
    "build_policy",
    "stable_write",
    "stable_read",
    "Scheme",
    "SchemeAgent",
    "NoCheckpointing",
    "CoordinatedScheme",
    "IndependentScheme",
    "CICScheme",
    "MessageLoggingScheme",
    "ProtocolFamily",
    "ProtocolRegistry",
    "REGISTRY",
    "Snapshot",
    "CheckpointRecord",
    "CheckpointStore",
    "CutPoint",
    "build_cuts",
    "consistent_line",
    "covered_index_line",
    "is_consistent",
    "in_transit_ranges",
    "rollback_distances",
    "domino_extent",
    "rollback_dependency_graph",
    "line_via_graph",
    "collect_garbage",
    "GcStats",
]
