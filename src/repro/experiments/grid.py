"""The declarative experiment grid: cells, specs and result lookup.

The paper's results are a grid — workloads x schemes, one simulation per
cell — and every cell is deterministic and independent (seeded RNG, no
shared state between :class:`~repro.chklib.runtime.CheckpointRuntime`
runs).  This module describes that grid as *data* instead of inline
loops:

* :class:`WorkloadSpec` — an application by registry name + constructor
  parameters (not a factory closure), so a cell can be pickled to a
  worker process and content-hashed for the on-disk result cache;
* :class:`SchemeSpec` — a checkpointing scheme by base name + resolved
  checkpoint times + option flags (skew, logging, gc, incremental,
  two-level);
* :class:`Cell` — one simulation: workload, scheme (``None`` = the
  uncheckpointed baseline), machine parameters, optional fault model and
  seed.  :func:`cell_key` derives a canonical content hash used for
  deduplication and caching;
* :class:`ExperimentSpec` — one experiment: its *baseline* cells (wave
  1), a pure ``plan`` step that turns baseline measurements into the
  dependent scheme cells (checkpoint times, skews and crash schedules
  are fractions of the baseline duration — wave 2), and a pure
  ``reduce`` step that distils all cell reports into a
  :class:`~repro.analysis.result.TableResult`.

Execution lives in :mod:`repro.experiments.executor`; nothing here runs
a simulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.result import TableResult
from ..chklib.report import RunReport
from ..chklib.schemes.registry import BASES, FAMILIES, resolve_alias, scheme_class
from ..machine import MachineParams

if TYPE_CHECKING:
    from ..chklib.schemes.base import Scheme
    from ..fault.model import FaultModel

__all__ = [
    "WorkloadSpec",
    "SchemeSpec",
    "Cell",
    "ExperimentSpec",
    "GridResults",
    "cell_key",
    "cell_to_jsonable",
    "APP_REGISTRY",
]


#: registry key -> the Application class's name on :mod:`repro.apps`,
#: whose surface imports only the module defining the one a cell builds.
APP_REGISTRY: Dict[str, str] = {
    "ising": "Ising",
    "sor": "SOR",
    "gauss": "Gauss",
    "asp": "ASP",
    "nbody": "NBody",
    "tsp": "TSP",
    "nqueens": "NQueens",
}


def _resolve_app(kind: str):
    from .. import apps

    try:
        return getattr(apps, APP_REGISTRY[kind])
    except KeyError:
        raise ValueError(
            f"unknown application kind {kind!r} "
            f"(registered: {sorted(APP_REGISTRY)})"
        ) from None


@dataclass(frozen=True)
class WorkloadSpec:
    """One table row's application, declaratively: registry name + params.

    Plain data rather than a factory closure — picklable across process
    boundaries and stable under content hashing.
    """

    label: str
    app: str
    params: Tuple[Tuple[str, Any], ...] = ()
    #: override of the fixed process-image bytes (tests use tiny images).
    image_bytes: Optional[int] = None

    @staticmethod
    def of(label: str, app: str, image_bytes: Optional[int] = None, **params) -> "WorkloadSpec":
        return WorkloadSpec(
            label=label,
            app=app,
            params=tuple(sorted(params.items())),
            image_bytes=image_bytes,
        )

    def build(self):
        """Instantiate a fresh Application for one simulation run."""
        app = _resolve_app(self.app)(**dict(self.params))
        if self.image_bytes is not None:
            app.image_bytes = int(self.image_bytes)
        return app


@dataclass(frozen=True)
class SchemeSpec:
    """A checkpointing scheme as data: base name, times, option flags."""

    name: str  #: base registry name (``coord_nb`` ... ``indep_c``, ``cic``, ``mlog``)
    times: Tuple[float, ...] = ()
    skew: float = 0.0  #: timer-driven families (independent, cic, msglog)
    logging: bool = False  #: independent: sender-based message logging
    gc: bool = False  #: independent/msglog: collect obsolete checkpoints
    incremental: bool = False  #: coordinated: dirty-page increments
    two_level: bool = False  #: coordinated: local-disk first, trickle up
    #: coordinated marker fan-out: "all" floods every rank (the paper's
    #: 8-node protocol), "peers" restricts markers to the application's
    #: declared communication graph (scale experiments at large N).
    marker_scope: str = "all"
    #: CIC forced-checkpoint rule: "bcs" (always force) or "fdas"
    #: (promote the previous checkpoint when nothing was sent since).
    cic_rule: str = "bcs"

    @staticmethod
    def of(alias: str, times: Sequence[float], **options) -> "SchemeSpec":
        """Build a spec from a scheme *alias* (e.g. ``indep_m_log``).
        An option outside the family's schema (``FAMILIES`` in
        :mod:`repro.chklib.schemes.registry`) is rejected — silently
        ignoring it would make the spec lie about what it measures —
        unless it is at its field default, which is a no-op, not a
        request (so a uniform ``skew=0.0`` on a timerless scheme stays
        legal)."""
        base, fixed = resolve_alias(alias)
        merged = {**fixed, **options}
        family = BASES[base][0]
        schema = FAMILIES[family][1]
        unknown = sorted(
            name
            for name, value in merged.items()
            if name not in schema and value != _SPEC_DEFAULTS.get(name, object())
        )
        if unknown:
            raise ValueError(
                f"scheme base {base!r} ({family}) takes no option(s) "
                f"{unknown}; its schema is {sorted(schema)}"
            )
        return SchemeSpec(
            name=base, times=tuple(float(t) for t in times), **merged
        )

    def build(self) -> Scheme:
        """Instantiate the scheme for one simulation run: the base's named
        constructor (or the family class) gets the times plus every schema
        option this spec sets away from its default."""
        try:
            family, factory = BASES[self.name]
        except KeyError:
            raise ValueError(f"unknown scheme base {self.name!r}") from None
        kw: Dict[str, Any] = {}
        for option in FAMILIES[family][1]:
            value = getattr(self, option)
            if value != _SPEC_DEFAULTS[option]:
                kw[option] = value
        cls = scheme_class(family)
        make = getattr(cls, factory) if factory is not None else cls
        return make(list(self.times), **kw)


#: each ``SchemeSpec`` option's field default: left there, an option is
#: not a request.
_SPEC_DEFAULTS: Dict[str, Any] = {
    f.name: f.default for f in dataclasses.fields(SchemeSpec)
}


@dataclass(frozen=True)
class Cell:
    """One grid cell: a single deterministic simulation run."""

    workload: WorkloadSpec
    scheme: Optional[SchemeSpec] = None  #: None = uncheckpointed baseline
    machine: MachineParams = field(default_factory=MachineParams.xplorer8)
    seed: int = 0
    fault: Optional[FaultModel] = None

    @cached_property
    def _key(self) -> str:
        payload = json.dumps(
            cell_to_jsonable(self), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _jsonable(value: Any) -> Any:
    """Canonical JSON-compatible form of cell contents (recursive)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if type(value).__module__.startswith("numpy"):
        return _jsonable(value.item() if hasattr(value, "item") else value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cell contents must be plain data, got {type(value).__name__}: {value!r}"
    )


def cell_to_jsonable(cell: Cell) -> Dict[str, Any]:
    """The cell as canonical plain data (the cache-key payload)."""
    return {"v": 1, **_jsonable(cell)}


def cell_key(cell: Cell) -> str:
    """Stable content hash of one cell's parameters, computed once per
    cell object (a cell is frozen, so its key cannot go stale)."""
    return cell._key


class GridResults:
    """Cell -> report lookup handed to ``plan`` and ``reduce`` steps."""

    def __init__(self, reports: Optional[Dict[str, RunReport]] = None) -> None:
        self._reports: Dict[str, RunReport] = dict(reports or {})

    def __len__(self) -> int:
        return len(self._reports)

    def __contains__(self, cell: Cell) -> bool:
        return cell_key(cell) in self._reports

    def __getitem__(self, cell: Cell) -> RunReport:
        key = cell_key(cell)
        try:
            return self._reports[key]
        except KeyError:
            raise KeyError(
                f"no result for cell {cell.workload.label!r} / "
                f"{cell.scheme.name if cell.scheme else 'baseline'} "
                f"(key {key[:12]}...) — was it listed in the spec?"
            ) from None

    def get(self, cell: Cell) -> Optional[RunReport]:
        return self._reports.get(cell_key(cell))

    def put(self, key: str, report: RunReport) -> None:
        self._reports[key] = report


@dataclass
class ExperimentSpec:
    """One experiment: baseline cells, a plan step and a reduce step.

    ``plan`` and ``reduce`` must be pure functions of the results they
    are given — every checkpoint time, skew or crash schedule they
    compute is derived from baseline measurements (not wall clocks or
    fresh randomness), so serial and parallel execution produce
    byte-identical tables.
    """

    name: str
    #: wave-1 cells — fully concrete up front (usually scheme=None).
    baselines: Tuple[Cell, ...]
    #: wave 2: baseline results -> dependent cells (times from T_normal).
    plan: Callable[[GridResults], Sequence[Cell]]
    #: final: all cell results -> one TableResult.
    reduce: Callable[[GridResults], TableResult]

    def all_cells(self, results: GridResults) -> List[Cell]:
        """The baselines plus the planned cells; the repo benchmark
        (``benchmarks/e2e``, a frozen contract) reads a command's counts
        back through this."""
        return list(self.baselines) + list(self.plan(results))


def interval_times(
    normal_time: float, rounds: int, divisor: float = 1.5
) -> Tuple[float, Tuple[float, ...]]:
    """The shared checkpoint schedule rule: ``rounds`` checkpoints every
    ``T / (rounds + divisor)`` seconds — enough tail for the last round's
    background writes and commit to finish.  Returns (interval, times)."""
    interval = normal_time / (rounds + divisor)
    return interval, tuple(interval * (i + 1) for i in range(rounds))
