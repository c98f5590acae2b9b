"""The grid execution core: dedupe, parallel fan-out, on-disk cache.

:class:`GridExecutor` runs :class:`~repro.experiments.grid.ExperimentSpec`s
in two waves — baselines first, then the cells each spec's ``plan`` step
derives from the baseline measurements — with three orthogonal
optimisations over the old one-loop-per-module execution:

* **deduplication** — identical cells across (and within) specs run
  once.  Every experiment used to re-run the same uncheckpointed
  baselines; now ``table23``, the ablations, domino, capture and
  two-level all share one baseline run per workload;
* **parallelism** — unique cells fan out over a
  ``ProcessPoolExecutor`` (``jobs`` workers; every cell is an
  independent deterministic simulation carrying its own seed).  Results
  are keyed by content, and reduction happens after all cells of a wave
  finished, so serial and parallel execution produce byte-identical
  tables;
* **memoisation** — results persist in a content-keyed on-disk cache:
  ``sha256(canonical cell JSON + code fingerprint)`` names a JSON file
  holding the serialized :class:`~repro.chklib.runtime.RunReport`.  The
  code fingerprint hashes every ``.py`` file of the :mod:`repro`
  package, so editing any simulation code invalidates the whole cache
  rather than ever serving stale measurements.

Every report — fresh or cached, serial or parallel — is round-tripped
through ``RunReport.to_dict()/from_dict()``, so numeric types (and hence
rendered tables) never depend on which path produced a result.

Robustness (the crash-survivable experiment plane):

* **resume** — the cache is the one durable record of finished cells:
  each entry is fsynced and atomically renamed into place the moment its
  cell completes, so a sweep killed at any instant (even ``kill -9``)
  resumes by rerunning it against the same cache directory — only the
  unfinished cells execute, and the tables are byte-identical;
* **per-cell timeout** — ``cell_timeout`` bounds each cell's wall clock
  (enforced in the worker via ``SIGALRM``);
* **worker-crash survival** — a ``BrokenProcessPool`` restarts the pool
  (bounded, with backoff) and re-runs the unfinished cells; past the
  restart budget the executor degrades to in-process serial execution;
* **one failure policy** — :meth:`GridExecutor._on_failure` decides, for
  the serial path and the pool alike, whether a failed cell (error,
  timeout or worker crash) runs again, is recorded in
  :attr:`GridExecutor.failures`, or raises.  With
  ``raise_on_failure=False`` nothing raises, and spec-level plan/reduce
  errors land in :attr:`GridExecutor.spec_errors` instead of aborting the
  whole sweep.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import signal
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.result import TableResult
from ..chklib.report import RunReport
from .grid import Cell, ExperimentSpec, GridResults, cell_key, cell_to_jsonable

__all__ = [
    "GridExecutor",
    "ExecutorStats",
    "CellTimeout",
    "run_cell",
    "run_spec",
    "code_fingerprint",
    "default_cache_dir",
    "write_json_atomic",
]

_CACHE_VERSION = 1
_FINGERPRINT: Optional[str] = None

#: per-cell execution attempts before the cell is recorded as failed.
_MAX_CELL_ATTEMPTS = 2
#: process-pool restarts tolerated before degrading to serial execution.
_MAX_POOL_RESTARTS = 2


class CellTimeout(Exception):
    """A grid cell exceeded the per-cell wall-clock budget."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-grid``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-grid"


def code_fingerprint() -> str:
    """Hash of every ``.py`` file under the installed :mod:`repro` package.

    Part of every cache key: any code change invalidates all cached
    results (coarse, but never stale).
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode("utf-8"))
            h.update(b"\0")
            h.update(path.read_bytes())
        _FINGERPRINT = h.hexdigest()[:24]
    return _FINGERPRINT


def write_json_atomic(path: Path, entry: dict) -> None:
    """Write *entry* to *path* as JSON through a temporary file, fsynced
    and then renamed, so a reader — even after a crash of the machine —
    sees the whole entry or none.  Best-effort, like every cache write:
    an ``OSError`` never fails the run."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(entry, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        pass


def run_cell(cell: Cell) -> RunReport:
    """Execute one grid cell (one deterministic simulation).

    Only the report leaves this function, so nothing is recorded: under
    ``--verify`` the runtime's live audit checks each event as it is
    emitted and keeps no event list.
    """
    from ..chklib.runtime import CheckpointRuntime

    report = CheckpointRuntime(
        cell.workload.build(),
        scheme=cell.scheme.build() if cell.scheme is not None else None,
        machine=cell.machine,
        seed=cell.seed,
        fault_model=cell.fault,
        trace=False,
    ).run()
    # The finished runtime is one reference cycle (engine <-> processes <->
    # agents <-> runtime) that refcounting cannot free; left to the cyclic
    # collector it survives until a full pass, which at 512 ranks comes
    # while the next cell is already allocating on top of it.
    gc.collect()
    return report


def _freeze_heap() -> None:
    """Move the import-time heap out of the cyclic collector's reach, once
    per process (the frozen generation is the process's own), before its
    first cell: :func:`run_cell`'s ``gc.collect()`` then walks only what
    the cells allocate (~7 ms a call before, ~0.2 ms after, on
    ``sor-128`` cells)."""
    if gc.get_freeze_count():
        return
    from ..chklib import runtime  # noqa: F401 - what every cell imports first

    gc.collect()
    gc.freeze()


# -- worker-process side ------------------------------------------------------

#: per-worker cell timeout, installed by :func:`_worker_init` (seconds,
#: 0 = unbounded).  Module-global because pool tasks only receive the cell.
_CELL_TIMEOUT = 0.0


def _worker_init(verify: bool, cell_timeout: float = 0.0) -> None:  # pragma: no cover - subprocess
    global _CELL_TIMEOUT
    _CELL_TIMEOUT = float(cell_timeout)
    if verify:
        from ..verify.trace_check import set_runtime_verification

        set_runtime_verification(True)
    _freeze_heap()


def _call_with_timeout(task, cell: Cell, timeout: float):
    """Run *task(cell)* under a wall-clock budget; raises
    :class:`CellTimeout` when it expires.  Platforms without ``SIGALRM``
    run unbounded (the timeout degrades to best-effort)."""
    if timeout <= 0 or not hasattr(signal, "SIGALRM"):
        return task(cell)

    def _expired(signum, frame):
        raise CellTimeout(
            f"cell exceeded its {timeout:g}s wall-clock budget"
        )

    old_handler = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return task(cell)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


def _guarded_task(cell: Cell):
    """Pool entry: one cell under the worker's installed timeout."""
    return _call_with_timeout(_run_cell_task, cell, _CELL_TIMEOUT)


def _run_cell_task(cell: Cell) -> Tuple[dict, float]:
    """Worker entry: run one cell, return (report dict, exec seconds)."""
    t0 = time.perf_counter()  # verify: allow[wall-clock] — executor timing
    report = run_cell(cell)
    dt = time.perf_counter() - t0  # verify: allow[wall-clock] — executor timing
    return report.to_dict(), dt


def run_spec(
    spec: ExperimentSpec, executor: Optional["GridExecutor"] = None
) -> TableResult:
    """Run one spec to its reduced result.  Without an explicit
    *executor* this is the plain serial, uncached path (unit tests)."""
    ex = executor if executor is not None else GridExecutor(jobs=1, use_cache=False)
    return ex.run_specs([spec])[spec.name]


# -- the executor -------------------------------------------------------------


@dataclass
class ExecutorStats:
    """What one executor instance did (the determinism tests assert on
    ``executed == 0`` for a warm cache)."""

    requested: int = 0  #: cells asked for, duplicates included
    deduped: int = 0  #: duplicate cells coalesced away
    executed: int = 0  #: simulations actually run by this executor
    cache_hits: int = 0  #: results served from the on-disk cache
    timeouts: int = 0  #: cell executions cut off by the wall-clock budget
    retries: int = 0  #: cell executions re-attempted after a failure or crash
    failed: int = 0  #: cells abandoned after exhausting their attempts
    pool_restarts: int = 0  #: process pools replaced after a worker crash

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def __str__(self) -> str:
        extra = ""
        if self.timeouts or self.failed or self.pool_restarts:
            extra = (
                f", {self.timeouts} timed out, {self.failed} failed, "
                f"{self.pool_restarts} pool restarts"
            )
        return (
            f"{self.requested} cells requested, {self.deduped} deduplicated, "
            f"{self.cache_hits} from cache, {self.executed} executed" + extra
        )


class GridExecutor:
    """Runs experiment specs over a deduplicated, cached, parallel grid."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        verify: bool = False,
        cell_timeout: float = 0.0,
        raise_on_failure: bool = True,
    ) -> None:
        self.jobs = max(1, int(jobs if jobs is not None else (os.cpu_count() or 1)))
        self.use_cache = use_cache
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.verify = verify
        self.cell_timeout = float(cell_timeout)
        #: ``True`` (the default) re-raises the first cell failure — the
        #: behaviour unit tests and ``run_spec`` rely on.  ``False`` (the
        #: sweep runner) records failures and keeps going.
        self.raise_on_failure = raise_on_failure
        self.stats = ExecutorStats()
        self.results = GridResults()
        #: per-cell execution seconds (0.0 for cache hits), by cell key.
        self.cell_seconds: Dict[str, float] = {}
        #: cells abandoned after exhausting their attempts, by cell key:
        #: {"cell": <jsonable cell>, "error", "kind", "attempts"}.
        self.failures: Dict[str, dict] = {}
        #: spec-level plan/reduce errors (``raise_on_failure=False``).
        self.spec_errors: Dict[str, str] = {}
        #: every cell :meth:`run_specs` asked for on behalf of each spec
        #: (baselines + planned), by spec name — what
        #: :meth:`spec_seconds` sums over.
        self._spec_cells: Dict[str, List[Cell]] = {}

    # -- public API ---------------------------------------------------------

    def run_specs(
        self, specs: Sequence[ExperimentSpec]
    ) -> Dict[str, TableResult]:
        """Run every spec's grid (two waves, deduplicated across specs)
        and reduce each to its :class:`TableResult`.

        With ``raise_on_failure=False`` a spec whose plan or reduce step
        fails (e.g. because a baseline cell failed) is dropped from the
        returned mapping and recorded in :attr:`spec_errors`.
        """
        self.run_cells([c for spec in specs for c in spec.baselines])
        planned: List[Cell] = []
        for spec in specs:
            cells: List[Cell] = []
            try:
                cells = list(spec.plan(self.results))
            except Exception as exc:
                if self.raise_on_failure:
                    raise
                self.spec_errors[spec.name] = f"plan failed: {exc!r}"
            self._spec_cells[spec.name] = list(spec.baselines) + cells
            planned.extend(cells)
        self.run_cells(planned)
        tables: Dict[str, TableResult] = {}
        for spec in specs:
            if spec.name in self.spec_errors:
                continue
            try:
                tables[spec.name] = spec.reduce(self.results)
            except Exception as exc:
                if self.raise_on_failure:
                    raise
                self.spec_errors[spec.name] = f"reduce failed: {exc!r}"
        return tables

    def run_cells(self, cells: Iterable[Cell]) -> GridResults:
        """Execute *cells* (deduplicated, cache-checked, fanned out).  A
        cell finished by an earlier, perhaps killed, run against the same
        cache is a hit, so rerunning a sweep resumes it."""
        todo: List[Tuple[str, Cell]] = []
        seen: Dict[str, bool] = {}
        for cell in cells:
            key = cell_key(cell)
            self.stats.requested += 1
            if key in seen or self.results.get(cell) is not None:
                self.stats.deduped += 1
                continue
            seen[key] = True
            if self.use_cache:
                cached = self._cache_read(key)
                if cached is not None:
                    self.stats.cache_hits += 1
                    self.cell_seconds[key] = 0.0
                    self.results.put(key, cached)
                    continue
            todo.append((key, cell))
        if not todo:
            return self.results
        if self.jobs == 1:
            self._run_serial(todo)
        else:
            self._run_parallel(todo)
        return self.results

    def spec_seconds(self, spec: ExperimentSpec) -> float:
        """Execution seconds attributable to *spec*: the summed runtimes
        of the cells :meth:`run_specs` ran for it (shared cells count
        toward every spec using them; cache hits and failed cells count
        as zero; a spec whose plan failed reports its baselines only)."""
        return sum(
            self.cell_seconds.get(cell_key(cell), 0.0)
            for cell in self._spec_cells.get(spec.name, spec.baselines)
        )

    # -- internals ----------------------------------------------------------

    def _absorb(
        self,
        key: str,
        cell: Cell,
        report_dict: dict,
        dt: float,
    ) -> None:
        # uniform round-trip: fresh results go through the same dict
        # normalisation as cached ones, so tables never depend on the path.
        report = RunReport.from_dict(report_dict)
        self.stats.executed += 1
        self.cell_seconds[key] = dt
        self.results.put(key, report)
        if self.use_cache:
            self._cache_write(key, cell, report_dict)

    def _on_failure(
        self, key: str, cell: Cell, exc: BaseException, attempts: int
    ) -> bool:
        """The one per-cell failure policy, for the serial path and the
        pool alike: whether the cell, which just failed its *attempts*-th
        execution with *exc*, runs again.

        A timeout is counted.  In raise mode a plain error raises at once;
        a timeout or a worker crash (``BrokenProcessPool``) first uses up
        its attempts.  A cell out of attempts is recorded in
        :attr:`failures`, and raised in raise mode.
        """
        from concurrent.futures.process import BrokenProcessPool

        kind = (
            "timeout"
            if isinstance(exc, CellTimeout)
            else "crash"
            if isinstance(exc, BrokenProcessPool)
            else "error"
        )
        if kind == "timeout":
            self.stats.timeouts += 1
        elif kind == "error" and self.raise_on_failure:
            raise exc
        if attempts < _MAX_CELL_ATTEMPTS:
            self.stats.retries += 1
            return True
        self.stats.failed += 1
        self.failures[key] = {
            "cell": cell_to_jsonable(cell),
            "error": repr(exc),
            "kind": kind,
            "attempts": attempts,
        }
        if self.raise_on_failure:
            raise exc
        return False

    def _run_serial(self, todo: List[Tuple[str, Cell]]) -> None:
        """In-process execution (``jobs=1`` and the post-pool-crash
        degradation path)."""
        _freeze_heap()
        for key, cell in todo:
            attempts = 0
            while True:
                attempts += 1
                try:
                    report_dict, dt = _call_with_timeout(
                        _run_cell_task, cell, self.cell_timeout
                    )
                except Exception as exc:
                    if self._on_failure(key, cell, exc, attempts):
                        continue
                else:
                    self._absorb(key, cell, report_dict, dt)
                break

    def _run_parallel(self, todo: List[Tuple[str, Cell]]) -> None:
        """Pool execution that survives worker crashes and cell failures.

        Cells run in rounds: each round submits every remaining cell to a
        fresh pool and drains completions.  A cell the policy retries
        runs again in the next round.  A broken pool costs every
        still-unfinished cell an attempt (the culprit is
        indistinguishable from its collateral) and restarts, with
        backoff, up to ``_MAX_POOL_RESTARTS`` times — after that the
        remaining cells run serially in-process.
        """
        remaining: Dict[str, Cell] = dict(todo)
        attempts: Dict[str, int] = {}
        restarts = 0
        while remaining:
            if not self._parallel_round(remaining, attempts):
                continue
            self.stats.pool_restarts += 1
            restarts += 1
            if restarts > _MAX_POOL_RESTARTS:
                # the pool keeps dying: finish the tail in-process
                self._run_serial(list(remaining.items()))
                return
            time.sleep(0.1 * restarts)  # verify: allow[wall-clock] — pool restart backoff

    def _parallel_round(
        self, remaining: Dict[str, Cell], attempts: Dict[str, int]
    ) -> bool:
        """One pool lifetime: submit all remaining cells, drain results.

        Mutates *remaining*/*attempts* in place and returns whether the
        pool died (the caller restarts it).  An exception the failure
        policy raises cancels the cells not yet started.
        """
        # the pool machinery (multiprocessing) is imported only by a
        # command that has cells to fan out
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        broken = False
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(remaining)),
            initializer=_worker_init,
            initargs=(self.verify, self.cell_timeout),
        )
        try:
            futures = {}
            try:
                for key, cell in remaining.items():
                    futures[pool.submit(_guarded_task, cell)] = (key, cell)
            except BrokenProcessPool:
                broken = True  # pool died mid-submission; drain what we have
            for fut in as_completed(futures):
                key, cell = futures[fut]
                exc = fut.exception()
                if exc is None:
                    report_dict, dt = fut.result()
                    self._absorb(key, cell, report_dict, dt)
                    remaining.pop(key)
                    continue
                broken = broken or isinstance(exc, BrokenProcessPool)
                attempts[key] = attempts.get(key, 0) + 1
                if not self._on_failure(key, cell, exc, attempts[key]):
                    remaining.pop(key)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return broken

    # -- the on-disk cache --------------------------------------------------

    def _cache_path(self, key: str) -> Path:
        full = hashlib.sha256(
            (key + ":" + code_fingerprint()).encode("utf-8")
        ).hexdigest()
        return self.cache_dir / full[:2] / f"{full}.json"

    def _cache_read(self, key: str) -> Optional[RunReport]:
        path = self._cache_path(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("version") != _CACHE_VERSION:
            return None
        try:
            return RunReport.from_dict(entry["report"])
        except (KeyError, TypeError, ValueError):
            return None

    def _cache_write(self, key: str, cell: Cell, report_dict: dict) -> None:
        path = self._cache_path(key)
        entry = {
            "version": _CACHE_VERSION,
            "fingerprint": code_fingerprint(),
            "cell": cell_to_jsonable(cell),
            "report": report_dict,
        }
        write_json_atomic(path, entry)
