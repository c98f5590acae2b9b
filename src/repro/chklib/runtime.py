"""The checkpointing runtime: wires application, scheme, machine and faults.

:class:`CheckpointRuntime` is the reproduction's equivalent of launching a
CHK-LIB application on the Xplorer: it builds the simulated machine, one
communicator per rank (with the scheme's agent attached), starts one SPMD
driver process per rank, runs the checkpoint schedule, optionally injects
crashes and executes rollback + re-execution, and returns a
:class:`RunReport` with everything the experiments need.

Recovery semantics (both classes of schemes, as in the paper): a failure
takes down the whole application; every process rolls back to the scheme's
recovery line, channel state / logged in-transit messages are re-injected,
send sequence counters rewind so re-executed sends reuse their original
sequence numbers, and duplicate deliveries are suppressed — under the
piecewise-deterministic execution contract the re-run reproduces the
original results exactly.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Generator, List, Optional, Tuple, Union

from ..core.engine import Engine
from ..core.errors import (
    Interrupt,
    ResumeError,
    SimulationError,
    StorageFault,
)
from ..core.events import Event
from ..core.process import Process
from ..core.rng import RngStreams
from ..core.tracing import Tracer
from ..fault.injection import make_injector
from ..fault.model import FaultModel, RetryPolicy
from ..machine.cluster import Cluster
from ..machine.params import MachineParams
from ..net.api import Comm
from ..net.transport import Transport
from ..fault.model import CrashEvent
from .recovery import CutPoint
from .report import RecoveryEvent, RunReport
from .resume import DurableLine, capture_fields, resume_components, resume_fields
from .schemes.base import NoCheckpointing, Scheme
from .storage_mgr import CheckpointRecord, CheckpointStore

__all__ = [
    "CheckpointRuntime",
    "Ctx",
    "RunReport",
    "RecoveryEvent",
    "FaultModel",
    "RetryPolicy",
    "DurableLine",
]

#: version stamp of the durable-line payload layout. v2: the payload is
#: manifest-driven (keys come from the classes' RESUME_FIELDS /
#: RESUME_COMPONENTS declarations; ``machine`` became ``machine_params``).
#: v3: an agent no longer carries ``cuts_taken`` (the ``chk.cuts`` counter
#: travels with the tracer). v4: the storage plane, its tiers, the fault
#: injector and the checkpoint store no longer carry tallies that
#: duplicate the tracer's counters. v5: a scheme carries only its
#: ``times``, no scheduling object beside them.
LINE_PAYLOAD_VERSION = 5


class Ctx:
    """Per-rank execution context handed to the application."""

    __slots__ = ("runtime", "rank", "size", "comm", "node", "engine", "_agent")

    def __init__(self, runtime: "CheckpointRuntime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.size = runtime.n_ranks
        self.comm = runtime.comms[rank]
        self.node = runtime.cluster.node(rank)
        self.engine = runtime.engine
        self._agent = runtime.agents[rank]

    @property
    def now(self) -> float:
        return self.engine.now

    def compute(self, flops: float) -> Generator[Event, Any, None]:
        """Burn CPU time for *flops* of work (``yield from``)."""
        return self.node.compute(flops)

    def checkpoint_point(self) -> Generator[Event, Any, None]:
        """Declare a safe point: a pending checkpoint is taken here."""
        return self._agent.at_point()


class CheckpointRuntime:
    """One application run on one machine under one checkpointing scheme."""

    #: Capture manifest: attributes serialised verbatim into a durable
    #: line. The first four are constructor inputs — :meth:`restart_from`
    #: feeds them back into ``__init__``, so :meth:`_apply_resume` skips
    #: them (:attr:`_CTOR_FIELDS`).
    RESUME_FIELDS = (
        "app",
        "scheme",
        "machine_params",
        "fault_model",
        "store",
        "generation",
        "recoveries",
    )
    _CTOR_FIELDS = ("app", "scheme", "machine_params", "fault_model")
    #: Sub-objects captured through their own ``export_state()`` or their
    #: class's RESUME_FIELDS manifest (see :meth:`_export_component`).
    RESUME_COMPONENTS = (
        "tracer",
        "rngs",
        "injector",
        "transport",
        "storage",
        "agents",
    )
    #: Rebuilt from scratch by ``__init__`` on every (re)start; never
    #: captured. An attribute in none of the three manifests makes
    #: :meth:`export_line` raise (:func:`~repro.chklib.resume.capture_fields`).
    VOLATILE_FIELDS = (
        "engine",
        "cluster",
        "n_ranks",
        "seed",
        "comms",
        "durable_line",
        "halted",
        "keeps_bytes",
        "_gen_procs",
        "_finished",
        "_done",
        "_result",
        "_ran",
        "_resumed_at",
        "trace",
        "audit_report",
    )

    def __init__(
        self,
        app: Any,
        scheme: Optional[Scheme] = None,
        machine: Optional[MachineParams] = None,
        seed: int = 0,
        fault_model: Optional[FaultModel] = None,
        trace: bool = True,
        _resume: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.app = app
        # a resumed run's clock starts where the halted run's stopped
        self.engine = Engine(
            start_time=float(_resume["meta"]["halted_at"]) if _resume else 0.0
        )
        # trace=True subscribes the recording sink (at the end, once a
        # resume has restored the history it is shown first)
        self.tracer = Tracer(self.engine)
        self.trace = bool(trace)
        self.machine_params = machine or MachineParams.xplorer8()
        self.cluster = Cluster(self.engine, self.machine_params, tracer=self.tracer)
        self.n_ranks = self.cluster.n_nodes
        self.transport = Transport(self.cluster)
        self.storage = self.cluster.storage
        self.store = CheckpointStore(self.n_ranks)
        self.scheme = scheme or NoCheckpointing()
        self.seed = int(seed)
        self.rngs = RngStreams(seed)
        #: what fails in this run, and when (None: nothing does).
        self.fault_model = fault_model
        #: deterministic storage-fault oracle (None = storage never fails).
        self.injector = (
            make_injector(fault_model.storage, self.rngs)
            if fault_model is not None
            else None
        )
        if self.injector is not None:
            # faults target the shared storage plane (every shard server);
            # private local disks and rack burst buffers stay reliable
            # (they fail by dying with their node/rack instead).
            self.storage.set_fault_injector(self.injector)
        #: bumped on every recovery; stale wire messages are dropped by it.
        self.generation = 0
        self.recoveries: List[RecoveryEvent] = []
        self.agents = [
            self.scheme.make_agent(self, r) for r in range(self.n_ranks)
        ]
        self.comms = [
            Comm(self.transport, r, self.n_ranks, agent=self.agents[r])
            for r in range(self.n_ranks)
        ]
        for agent, comm in zip(self.agents, self.comms):
            agent.bind(comm)
        self._gen_procs: List[Process] = []
        self._finished: Dict[int, Any] = {}
        self._done: Event = self.engine.event()
        self._result: Any = None
        self._ran = False
        #: set by a ``halt_at`` run: the captured image of this run.
        self.durable_line: Optional[DurableLine] = None
        self.halted = False
        #: do checkpoints hold their image and message payloads on the host,
        #: or only the sizes? Decided once by :meth:`run`, from whether
        #: anything can ever read them back (``SchemeAgent.capture`` /
        #: ``retain`` are the only readers).
        self.keeps_bytes = True
        #: simulated time this runtime resumed from (None = a fresh run).
        self._resumed_at: Optional[float] = None
        #: the live trace audit's ``TraceReport``, once an audited
        #: :meth:`run` finished (``verify.trace_check.check_runtime``).
        self.audit_report: Any = None
        if _resume is not None:
            self._apply_resume(_resume)
        if trace:
            self.tracer.record()

    # -- public API ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._done.triggered

    @property
    def retry_policy(self) -> RetryPolicy:
        """The run's retry/backoff knobs for failed storage operations."""
        if self.fault_model is not None:
            return self.fault_model.retry
        return RetryPolicy()

    def run(self, halt_at: Optional[float] = None) -> RunReport:
        """Execute to completion (including any scheduled crashes).

        With *halt_at*, the run stops at that simulated time instead and
        captures a :class:`DurableLine` into :attr:`durable_line` — the
        on-disk image :meth:`restart_from` continues from. The capture is
        synchronous and happens at the same structural point a crash would
        (the interrupt driver), so a restarted run is bit-for-bit the run
        that crashed there and recovered in-process.
        """
        if self._ran:
            raise RuntimeError("a CheckpointRuntime instance runs only once")
        self._ran = True
        # Only a crash, a halt or the recovery a resume starts with ever
        # restores an image or replays a recorded message; without any of
        # the three, every simulated statistic needs sizes alone.
        self.keeps_bytes = (
            self.fault_model is not None
            or halt_at is not None
            or self._resumed_at is not None
        )
        if halt_at is not None:
            halt_at = float(halt_at)
            if halt_at <= self.engine.now:
                raise ResumeError(
                    f"halt_at={halt_at} is not in this run's future "
                    f"(now={self.engine.now})"
                )
            if self.scheme.klass == "none":
                raise ResumeError(
                    "cannot capture a durable recovery line without a "
                    "checkpointing scheme (nothing to restart from)"
                )
        self.scheme.install(self)
        # a durable line carries the stream so far, for the resumed run's
        # audit; --verify / verified() audits every event as it is emitted
        from ..verify import trace_check

        if halt_at is not None:
            self.tracer.record()
        audit = None
        if trace_check.runtime_verification_enabled():
            audit = trace_check.Audit(self.tracer, trace_check.meta_for_runtime(self))
        items = self._interrupt_schedule(halt_at)
        if self._resumed_at is not None:
            # restart IS a recovery: roll every rank back to the captured
            # recovery line, then keep serving the remaining interrupts.
            self.engine.process(self._resume_driver(items), name="resume-driver")
        else:
            if items:
                self.engine.process(
                    self._interrupt_driver(items), name="fault-injector"
                )
            self._start_generation({r: None for r in range(self.n_ranks)})
        self.engine.run(until=self._done)
        report = self._report()
        # A halted run's stream legitimately ends mid-protocol: open rounds
        # finish in the resumed run, whose audit sees the whole history.
        if audit is not None and not self.halted:
            self.audit_report = audit.report()
            self.audit_report.raise_if_violated()
        return report

    # -- durable recovery lines ------------------------------------------------

    @classmethod
    def restart_from(
        cls,
        line: Union[DurableLine, str, "os.PathLike[str]"],
        app: Any = None,
        machine: Optional[MachineParams] = None,
        trace: Optional[bool] = None,
    ) -> "CheckpointRuntime":
        """A fresh runtime continuing a halted run from its durable line.

        *line* is a :class:`DurableLine` or a path to one on disk. The
        pickled application/machine are used unless overridden (an
        override must describe the same run — mismatches raise
        :class:`ResumeError`). Call :meth:`run` on the result to continue;
        the continuation is bitwise-identical to an in-process recovery at
        the halt time.
        """
        if not isinstance(line, DurableLine):
            line = DurableLine.load(line)
        payload = line.payload()
        meta = payload["meta"]
        return cls(
            app if app is not None else payload["app"],
            scheme=payload["scheme"],
            machine=machine if machine is not None else payload["machine_params"],
            seed=int(meta["seed"]),
            fault_model=payload["fault_model"],
            trace=bool(meta["trace"]) if trace is None else trace,
            _resume=payload,
        )

    def export_line(self) -> DurableLine:
        """Serialise this run's recoverable state as a durable line.

        Captures only *stable* state: the checkpoint store, the scheme's
        persistent protocol fields, RNG stream positions, the trace and the
        accounting counters. Volatile per-rank protocol state (in-flight
        rounds, mailboxes, volatile logs) is deliberately absent — recovery
        wipes it in-process too, so the restart reconstructs exactly what a
        crash survivor would see.
        """
        if not self.keeps_bytes:
            raise ResumeError(
                "cannot export a durable line: this run kept checkpoint "
                "sizes, not bytes (no fault model, no halt_at, not resumed "
                "— nothing could restore from it)"
            )
        meta = {
            "version": LINE_PAYLOAD_VERSION,
            "app": getattr(self.app, "name", type(self.app).__name__),
            "scheme": self.scheme.name,
            "klass": self.scheme.klass,
            "n_ranks": self.n_ranks,
            "seed": self.seed,
            "halted_at": self.engine.now,
            "trace": self.trace,
            # side-effect-free summary for inspection/tooling (recovery
            # itself re-derives the line via scheme.recovery_line()).
            "committed_indices": {
                r: max(
                    (
                        rec.index
                        for rec in self.store.chain(r)
                        if rec.committed and not rec.quarantined
                    ),
                    default=0,
                )
                for r in range(self.n_ranks)
            },
        }
        # the payload layout IS the manifests: plain fields verbatim,
        # components through _export_component. capture_fields refuses
        # an object holding an attribute no manifest lists.
        payload: Dict[str, Any] = {"meta": meta, **capture_fields(self)}
        for name in resume_components(type(self)):
            payload[name] = self._export_component(name)
        return DurableLine.from_payload(payload)

    def _export_component(self, name: str) -> Any:
        """One RESUME_COMPONENTS entry's captured form: ``export_state()``
        when the object has one, otherwise :func:`capture_fields` of the
        object (a list thereof for the per-rank agents). The storage
        plane's ``export_state`` takes :func:`capture_fields` for itself
        and its tiers."""
        obj = getattr(self, name)
        if obj is None:
            return None
        if name == "agents":
            return [capture_fields(a) for a in obj]
        if name == "storage":
            return obj.export_state(capture_fields)
        if hasattr(obj, "export_state"):
            return obj.export_state()
        return capture_fields(obj)

    def _restore_component(self, name: str, saved: Any) -> None:
        """Mirror of :meth:`_export_component` for :meth:`_apply_resume`."""
        obj = getattr(self, name)
        if obj is None or saved is None:
            return
        if name == "agents":
            for agent, fields in zip(obj, saved):
                for f, v in fields.items():
                    setattr(agent, f, v)
            return
        if hasattr(obj, "restore_state"):
            obj.restore_state(saved)
            return
        for f, v in saved.items():
            setattr(obj, f, v)

    def _apply_resume(self, payload: Dict[str, Any]) -> None:
        """Load a durable line's payload into this (freshly built) runtime."""
        meta = payload["meta"]
        if int(meta.get("version", -1)) != LINE_PAYLOAD_VERSION:
            raise ResumeError(
                f"durable line payload version {meta.get('version')!r} "
                f"not supported (expected {LINE_PAYLOAD_VERSION})"
            )
        app_name = getattr(self.app, "name", type(self.app).__name__)
        mismatches = []
        if int(meta["n_ranks"]) != self.n_ranks:
            mismatches.append(f"n_ranks {meta['n_ranks']} != {self.n_ranks}")
        if int(meta["seed"]) != self.seed:
            mismatches.append(f"seed {meta['seed']} != {self.seed}")
        if str(meta["app"]) != app_name:
            mismatches.append(f"app {meta['app']!r} != {app_name!r}")
        if str(meta["scheme"]) != self.scheme.name:
            mismatches.append(f"scheme {meta['scheme']!r} != {self.scheme.name!r}")
        if mismatches:
            raise ResumeError(
                "durable line does not match this run: " + "; ".join(mismatches)
            )
        for name in resume_fields(type(self)):
            if name in self._CTOR_FIELDS:
                continue  # restart_from already fed these into __init__
            setattr(self, name, payload[name])
        for name in resume_components(type(self)):
            self._restore_component(name, payload[name])
        self._resumed_at = float(meta["halted_at"])

    def spawn(self, generator, name: str = "") -> Process:
        """Start a generation-scoped helper process (killed on crash)."""
        proc = self.engine.process(generator, name=name)
        self._gen_procs.append(proc)
        return proc

    # -- drivers ---------------------------------------------------------------

    def _start_generation(self, states: Dict[int, Optional[dict]]) -> None:
        self._finished = {}
        for rank in range(self.n_ranks):
            state = states[rank]
            if state is None:
                state = self.app.make_state(rank, self.n_ranks, self.seed)
            proc = self.engine.process(
                self._driver(rank, state, self.generation),
                name=f"app:r{rank}:g{self.generation}",
            )
            self._gen_procs.append(proc)

    def _driver(self, rank: int, state: dict, generation: int):
        agent = self.agents[rank]
        agent.bind_state(state)
        ctx = Ctx(self, rank)
        try:
            result = yield from self.app.run(ctx, state)
        except Interrupt:
            return None  # crashed; a recovery restarts this rank
        if generation != self.generation:
            return None  # stale completion racing a recovery
        # a finished process still checkpoints (immediately) on request
        agent.mark_finished()
        self._finished[rank] = result
        if rank == 0:
            self._result = result
        if len(self._finished) == self.n_ranks and not self._done.triggered:
            self._done.succeed()
        return result

    # -- failure injection, halting & recovery ---------------------------------------

    def _interrupt_schedule(
        self, halt_at: Optional[float]
    ) -> List[Tuple[float, Optional[CrashEvent]]]:
        """The merged, time-ordered interrupt plan: scheduled crashes plus
        (optionally) the halt, which is modelled as one more interrupt.
        Crashes already injected before a resume point — and crashes the
        halt preempts — are excluded."""
        items: List[Tuple[float, Optional[CrashEvent]]] = []
        if self.fault_model is not None:
            for ev in self.fault_model.crash_events(self.n_ranks):
                if self._resumed_at is not None and ev.time <= self._resumed_at:
                    continue  # fired before the halt we resumed from
                if halt_at is not None and ev.time >= halt_at:
                    continue  # this run stops before the crash
                items.append((ev.time, ev))
        if halt_at is not None:
            items.append((halt_at, None))
        return sorted(items, key=lambda item: item[0])

    def _interrupt_driver(self, items):
        """One process serving the interrupt plan in order: a crash entry
        runs rollback + re-execution in place; the halt entry (None)
        captures the durable line and ends the run."""
        engine = self.engine
        for at, ev in items:
            if at > engine.now:
                yield engine.delay(at - engine.now)
            if self.finished:
                return
            if ev is None:
                self._capture_halt()
                return
            yield from self._recover(
                failed_ranks=ev.ranks, disks_lost=ev.disks_lost
            )

    def _resume_driver(self, items):
        """First slice of a restarted run: recover to the captured line
        (exactly what an in-process crash at the halt time would do), then
        take over the remaining interrupt plan."""
        yield from self._recover(failed_ranks=None)
        yield from self._interrupt_driver(items)

    def _capture_halt(self) -> None:
        """Synchronously freeze the run into a durable line. The capture
        happens *before* the halt event is traced, so the image holds
        exactly the state an in-process crash survivor would observe."""
        self.durable_line = self.export_line()
        self.halted = True
        self.tracer.event("resume.halt", at=self.engine.now)
        if not self._done.triggered:
            self._done.succeed()

    def _restore_reader(self, rank, rec, source, failures, stats):
        """Read one rank's restore bytes, retrying transient faults; on an
        exhausted retry budget the record lands in *failures* (the recovery
        loop quarantines it and falls back) instead of raising — a reader
        death inside ``all_of`` would take down recovery itself."""
        nbytes = self.store.restore_read_bytes(rank, rec.index)
        retry = self.retry_policy
        attempt = 0
        while True:
            try:
                yield from source.read(
                    self.cluster.node(rank), nbytes, tag=f"restore:r{rank}"
                )
                return
            except StorageFault:
                if attempt >= retry.max_retries:
                    failures[rank] = rec
                    return
                stats["restore_retries"] += 1
                self.tracer.add("storage.read_retries")
                delay = retry.delay(attempt)
                attempt += 1
                if delay > 0:
                    yield self.engine.delay(delay)

    def _check_line(self, line) -> None:
        """No rank may resume from a checkpoint that is not committed,
        written and unquarantined — a violated invariant is a scheme bug."""
        for rank, rec in line.items():
            if rec is None:
                continue
            if rec.quarantined or rec.written_at is None or not rec.committed:
                raise SimulationError(
                    f"recovery line selected unusable checkpoint {rec!r} "
                    f"for rank {rank}"
                )

    def _recover(self, failed_ranks=None, disks_lost=()):
        engine = self.engine
        t_crash = engine.now
        failed = tuple(
            sorted(failed_ranks)
            if failed_ranks is not None
            else range(self.n_ranks)
        )
        disks_lost = tuple(sorted(disks_lost))
        self.tracer.add("fault.crashes")
        if len(failed) < self.n_ranks:
            self.tracer.add("fault.node_crashes")
        cuts_before = {r: self.agents[r].epoch for r in range(self.n_ranks)}
        # 1. the crash: the application restarts as a gang (the paper's
        #    recovery semantics), so every process of the current
        #    generation dies even when only a subset of nodes failed.
        self.generation += 1
        self.tracer.event("recover.crash", gen=self.generation, failed=failed)
        for proc in self._gen_procs:
            proc.defused = True
            if proc.is_alive:
                proc.interrupt("machine failure")
        self._gen_procs = []
        for comm in self.comms:
            comm.reset_mailbox()
        self.scheme.on_crash(self)
        two_level = getattr(self.scheme, "two_level", False)
        # 2. a crashed *node* is replaced hardware: its private local disk
        #    is gone, so under two-level storage only checkpoints already
        #    trickled to the global server survive for that rank.
        if disks_lost and two_level:
            for rank in disks_lost:
                for rec in list(self.store.chain(rank)):
                    if rec.global_written_at is None:
                        self.store.discard(rank, rec.index)
                        self.tracer.add("fault.disk_lost_ckpts")
        # 3. validate integrity: silently corrupted images are caught by
        #    their checksum now, before line selection can pick them.
        quarantined = 0
        for rank in range(self.n_ranks):
            for rec in self.store.chain(rank):
                if (
                    not rec.quarantined
                    and rec.written_at is not None
                    and not rec.verify_integrity()
                ):
                    self.store.quarantine(rank, rec.index)
                    self.tracer.add("fault.ckpt_corrupt_detected")
                    self.tracer.event(
                        "recover.quarantine",
                        rank=rank,
                        index=rec.index,
                        cause="corrupt",
                    )
                    quarantined += 1
        # 4. self-healing restore: pick a line, read it back (retrying
        #    transient faults); if a record stays unreadable, quarantine it
        #    and fall back to the newest older line — degrade, never die.
        stats = {"restore_retries": 0}
        while True:
            line = self.scheme.recovery_line(self)
            self._check_line(line)
            failures: Dict[int, CheckpointRecord] = {}
            readers = []
            for rank, rec in line.items():
                if rec is None:
                    continue
                # incremental chains are read back whole (base + deltas);
                # two-level storage restores from the *surviving* local
                # disks in parallel instead of queueing at the global
                # server — a rank whose disk died reads from the server.
                source = (
                    self.cluster.local_disk(rank)
                    if two_level and rank not in disks_lost
                    else self.storage
                )
                readers.append(
                    engine.process(
                        self._restore_reader(rank, rec, source, failures, stats),
                        name=f"restore:r{rank}",
                    )
                )
            if readers:
                self.cluster.set_all_blocked(True)  # the machine is quiescent
                try:
                    yield engine.all_of(readers)
                finally:
                    self.cluster.set_all_blocked(False)
            if not failures:
                break
            for rank, rec in failures.items():
                self.store.quarantine(rank, rec.index)
                self.tracer.add("fault.restore_quarantined")
                self.tracer.event(
                    "recover.quarantine",
                    rank=rank,
                    index=rec.index,
                    cause="unreadable",
                )
                quarantined += 1
        line_idx = {
            r: (rec.index if rec is not None else 0) for r, rec in line.items()
        }
        # 5. drop everything newer than the final line. (Quarantined
        #    records above the line go too: sender logs needed for replay
        #    live in annexes at or below the senders' line indices.)
        for rank, idx in line_idx.items():
            for stale in [
                i for i in range(idx + 1, self.store.latest_index(rank) + 1)
            ]:
                try:
                    self.store.discard(rank, stale)
                except KeyError:
                    pass
        replay = self.scheme.replay_messages(self, line)
        cut_line = self._line_cuts(line)
        line_ok = self.scheme.line_sound(self, line, cut_line)
        self.tracer.event(
            "recover.line",
            gen=self.generation,
            indices=tuple(sorted(line_idx.items())),
            klass=self.scheme.klass,
            logging=bool(getattr(self.scheme, "logging", False)),
            consistent=line_ok,
            sent=tuple((r, cut.sent) for r, cut in sorted(cut_line.items())),
            consumed=tuple(
                (r, cut.consumed) for r, cut in sorted(cut_line.items())
            ),
        )
        self.tracer.event(
            "recover.replay", gen=self.generation, count=len(replay)
        )
        # 6. restore per-rank state, counters, epochs.
        states: Dict[int, Optional[dict]] = {}
        for rank, rec in line.items():
            if rec is not None:
                states[rank] = rec.snapshot.restore()
                self.comms[rank].restore_meta(rec.comm_meta)
                self.agents[rank].reset_for_recovery(epoch=rec.index)
            else:
                states[rank] = None  # rebuilt from make_state (deterministic)
                self.comms[rank].restore_meta(
                    {"sent": {}, "consumed": {}, "coll_counter": 0}
                )
                self.agents[rank].reset_for_recovery(epoch=0)
        # 7. re-inject in-transit channel state, in per-channel seq order.
        for msg in sorted(replay, key=lambda m: (m.dst, m.src, m.seq)):
            clone = msg.shell_copy()
            clone.meta["gen"] = self.generation
            self.transport.deliver_local(clone)
        # 8. restart the application.
        self._start_generation(states)
        event = RecoveryEvent(
            crash_time=t_crash,
            line_indices=line_idx,
            # checkpoints discarded per rank: how far the line regressed
            # below the rank's checkpoint count at crash time
            rollback_checkpoints={
                r: max(0, cuts_before[r] - line_idx[r]) for r in line_idx
            },
            lost_time={
                r: (t_crash - line[r].taken_at) if line[r] is not None else t_crash
                for r in line
            },
            replayed_messages=len(replay),
            duration=engine.now - t_crash,
            domino_extent=(
                sum(1 for i in line_idx.values() if i == 0) / self.n_ranks
            ),
            failed_ranks=failed,
            disks_lost=disks_lost,
            quarantined=quarantined,
            restore_retries=stats["restore_retries"],
            line_consistent=line_ok,
        )
        self.recoveries.append(event)
        self.tracer.add("fault.recovery_time", event.duration)

    def _line_cuts(self, line) -> Dict[int, CutPoint]:
        """The restored line as :class:`CutPoint`s (for consistency audit)."""
        cut_line: Dict[int, CutPoint] = {}
        for r, rec in line.items():
            if rec is None:
                cut_line[r] = CutPoint(rank=r, index=0, sent=(), consumed=())
            else:
                cut_line[r] = CutPoint(
                    rank=r,
                    index=rec.index,
                    sent=tuple(sorted(rec.comm_meta["sent"].items())),
                    consumed=tuple(sorted(rec.comm_meta["consumed"].items())),
                    record=rec,
                )
        return cut_line

    # -- reporting -------------------------------------------------------------------

    def _report(self) -> RunReport:
        return RunReport(
            app=getattr(self.app, "name", type(self.app).__name__),
            scheme=self.scheme.name,
            n_nodes=self.n_ranks,
            seed=self.seed,
            sim_time=self.engine.now,
            result=self._result,
            blocked_time=sum(a.blocked_time for a in self.agents),
            storage_peak_bytes=self.store.peak_bytes,
            storage_peak_checkpoints=self.store.peak_checkpoints,
            storage_final_bytes=self.store.total_bytes(),
            counters={**self.tracer.counters, **self.transport.counters()},
            recoveries=list(self.recoveries),
        )
