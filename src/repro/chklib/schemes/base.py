"""Scheme framework: per-rank agents, the scheme interface and the one
checkpoint write path.

A :class:`Scheme` object describes one checkpointing scheme (one column of
the paper's tables). It creates one :class:`SchemeAgent` per rank — the
agent plugs into the rank's :class:`~repro.net.api.Comm` as a
:class:`~repro.net.api.CommAgent` and implements the mechanics: epoch
piggybacking, duplicate suppression, channel-state recording, and the
blocking work performed at application checkpoint points.

The paper defines its schemes on two axes, and both live here, once:
what the application blocks on at a cut (``capture``: the whole stable
write, a main-memory copy, or write-protecting the pages) and whether
background writes are staggered (a protocol's :meth:`Scheme.write_gate`
and :meth:`Scheme.blocking_write`). A protocol family only decides when
to cut and what a landed or failed write means.

The runtime (:mod:`repro.chklib.runtime`) is duck-typed here; the
attributes a scheme relies on are: ``engine``, ``cluster``, ``transport``,
``comms``, ``agents``, ``store`` (CheckpointStore), ``storage``
(StableStorage), ``tracer``, ``generation``, ``rngs``, ``spawn``,
``keeps_bytes``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence

from ...core.errors import InvariantViolation, SimulationError, StorageFault
from ...net.api import CommAgent
from ...net.message import KIND_APP, SIZE_ONLY, Message
from ..incremental import PAGE_SIZE, IncrementalState
from ..retry import stable_write
from ..state import Snapshot
from ..storage_mgr import CheckpointRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.events import Event
    from ...net.api import Comm
    from ..runtime import CheckpointRuntime

__all__ = ["SchemeAgent", "Scheme", "WriteJob", "NoCheckpointing"]

#: how a cut captures state: "blocking" (the stable write in the
#: application's time), "memcopy" (a main-memory buffer copy, then a
#: checkpointer thread) or "cow" (write-protect the pages, stream in the
#: background while application stores fault-and-copy).
CAPTURE_MODES = ("blocking", "memcopy", "cow")


class SchemeAgent(CommAgent):
    """Per-rank checkpointing agent wired into the communication path."""

    #: Capture manifest (see :mod:`repro.chklib.resume`): the cumulative
    #: per-rank facts a durable line carries across a halt/restart.
    RESUME_FIELDS = ("epoch", "blocked_time")
    #: Rebuilt by ``__init__``/``bind``/``bind_state`` on every restart —
    #: in-flight protocol state is wiped by recovery in-process too.
    VOLATILE_FIELDS = (
        "scheme",
        "runtime",
        "rank",
        "node",
        "comm",
        "state_ref",
        "pending_cut",
        "finished",
        "inc",
        "writing",
    )

    def __init__(
        self, scheme: "Scheme", runtime: "CheckpointRuntime", rank: int
    ) -> None:
        self.scheme = scheme
        self.runtime = runtime
        self.rank = rank
        self.node = runtime.cluster.node(rank)
        self.comm: Optional["Comm"] = None
        #: live reference to the application's state dict (set per driver).
        self.state_ref: Optional[dict] = None
        #: number of cuts this process has taken (piggybacked on messages).
        self.epoch = 0
        #: checkpoint number to take at the next checkpoint point.
        self.pending_cut: Optional[int] = None
        #: True once the application driver has completed on this rank; a
        #: finished process has no future checkpoint points, so pending
        #: cuts are taken immediately (a system-level checkpointer saves
        #: idle processes too).
        self.finished = False
        #: a background checkpoint write is in flight on this rank.
        self.writing = False
        #: page-level dirty tracking (incremental checkpointing only).
        self.inc: Optional[IncrementalState] = (
            IncrementalState(full_every=scheme.full_every)
            if scheme.incremental
            else None
        )
        # cumulative metrics
        self.blocked_time = 0.0

    # -- wiring ------------------------------------------------------------

    def bind(self, comm: "Comm") -> None:
        self.comm = comm

    def bind_state(self, state: dict) -> None:
        self.state_ref = state
        self.finished = False

    def set_pending(self, n: int) -> None:
        """Schedule checkpoint *n* for the next checkpoint point — or right
        now, if this rank's application has already finished."""
        if n <= self.epoch:
            return
        self.pending_cut = max(self.pending_cut or 0, n)
        if self.finished:
            self.runtime.spawn(self.at_point(), name=f"late-cut:r{self.rank}")

    def mark_finished(self) -> None:
        """Called by the runtime when the driver completes normally."""
        self.finished = True
        if self.pending_cut is not None and self.pending_cut > self.epoch:
            self.runtime.spawn(self.at_point(), name=f"late-cut:r{self.rank}")

    # -- CommAgent hooks -----------------------------------------------------

    def on_send(self, msg: Message) -> None:
        msg.epoch = self.epoch
        msg.meta["gen"] = self.runtime.generation
        if msg.kind == KIND_APP:
            tracer = self.runtime.tracer
            if tracer.enabled:  # skip the kwargs build when not observing
                tracer.event(
                    "msg.send",
                    src=msg.src,
                    dst=msg.dst,
                    seq=msg.seq,
                    epoch=msg.epoch,
                    gen=self.runtime.generation,
                )
            self.scheme.on_app_send(self, msg)

    def on_deliver(self, msg: Message) -> bool:
        if msg.meta.get("gen", self.runtime.generation) != self.runtime.generation:
            # straggler from before a crash: the wire outlived the rollback.
            self.runtime.tracer.add("chk.stale_dropped")
            return False
        if msg.kind == KIND_APP:
            if self.comm is None:
                raise InvariantViolation(
                    "agent delivered to before bind()", rank=self.rank
                )
            if msg.seq <= self.comm.consumed_counts.get(msg.src, 0):
                # duplicate of an already-consumed message (orphan replay
                # after a rollback under piecewise-deterministic re-execution)
                self.runtime.tracer.add("chk.duplicates_dropped")
                return False
            tracer = self.runtime.tracer
            if tracer.enabled:  # skip the kwargs build when not observing
                tracer.event(
                    "msg.deliver",
                    src=msg.src,
                    dst=msg.dst,
                    seq=msg.seq,
                    epoch=msg.epoch,
                    gen=self.runtime.generation,
                )
            self.scheme.on_app_deliver(self, msg)
        return True

    def on_control(self, msg: Message) -> None:
        self.scheme.on_control(self, msg)

    def send_extra(self, msg: Message):
        return self.scheme.send_extra(self, msg)

    # -- checkpoint points ------------------------------------------------------

    def at_point(self) -> Generator[Any, Any, None]:
        """Called by the application at every checkpoint point: the
        scheme's generator for this rank (``yield from`` it)."""
        return self.scheme.at_point(self)

    # -- what a checkpoint holds on the host --------------------------------
    #
    # The paper's numbers depend on how many bytes a checkpoint has, never
    # on what they are. ``runtime.keeps_bytes`` says whether anything can
    # ever read them back; the two operations below are the only places
    # that ask, so no scheme branches on it.

    def capture(self, n: int) -> CheckpointRecord:
        """Checkpoint *n* of this rank's state, taken now: the image, the
        channel counters and (incremental schemes) the dirty-page plan. On
        a run nothing can restore, the image keeps its size and CRC and
        lets go of the bytes once the planner has hashed them."""
        rt = self.runtime
        if self.state_ref is None:
            raise SimulationError(f"rank {self.rank}: cut with no bound state")
        snap = Snapshot.capture(self.state_ref)
        record = CheckpointRecord(
            rank=self.rank,
            index=n,
            snapshot=snap,
            comm_meta=self.comm.channel_meta(),
            taken_at=rt.engine.now,
            pad_bytes=getattr(rt.app, "image_bytes", 0),
        )
        if self.inc is not None:
            # incremental: ship only dirty pages (measured, not modelled)
            is_full, state_bytes, hashes = self.inc.plan(snap.blob)
            self.inc.advance(is_full, hashes)
            if is_full:
                record.stored_state_bytes = record.state_bytes
                rt.tracer.add("chk.full_ckpts")
            else:
                record.stored_state_bytes = state_bytes
                record.base_index = self.epoch
                rt.tracer.add("chk.incremental_ckpts")
                rt.tracer.add(
                    "chk.incremental_bytes_saved",
                    record.state_bytes - state_bytes,
                )
        if not rt.keeps_bytes:
            snap.drop_bytes()
        return record

    def retain(self, msg: Message) -> Message:
        """The copy of *msg* a checkpoint holds (sender log, channel
        state): always the shell with its final wire size, the payload
        only when a replay could need it."""
        msg.finalize_size()  # the record must account wire bytes
        kept = msg.shell_copy()
        if not self.runtime.keeps_bytes:
            kept.payload = SIZE_ONLY
        return kept

    def charge_blocked(self, started_at: float) -> float:
        """Account application-blocked time for a completed cut; returns it."""
        dt = self.runtime.engine.now - started_at
        self.blocked_time += dt
        self.runtime.tracer.add("chk.blocked_time", dt)
        return dt

    # -- lifecycle across recoveries ----------------------------------------------

    def reset_for_recovery(self, epoch: int) -> None:
        """Drop in-flight protocol state after a rollback."""
        self.epoch = epoch
        self.pending_cut = None
        self.writing = False
        if self.inc is not None:
            # the dirty-page chain restarts from the restored image
            self.inc.reset()
        self.scheme.reset_agent(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} r{self.rank} epoch={self.epoch}>"


class WriteJob:
    """One checkpoint image on its way to stable storage."""

    __slots__ = ("n", "record", "nbytes", "aborted")

    def __init__(self, n: int, record: CheckpointRecord, nbytes: int) -> None:
        self.n = n
        self.record = record
        #: bytes the image carries to storage (see ``Scheme._write_bytes``).
        self.nbytes = nbytes
        #: the protocol cancelled this checkpoint; a writer still waiting
        #: on its gate drops it instead of writing.
        self.aborted = False


class Scheme:
    """Base checkpointing scheme (default: no-ops everywhere).

    Concrete schemes override the hooks they need. Attributes describe the
    mechanics so experiments can introspect what they are measuring:

    * ``capture`` — what a cut blocks on (see :data:`CAPTURE_MODES`);
      ``memory_ckpt`` says whether that is less than the stable write.
    * ``staggered`` — background writes are serialised (a token ring, or
      a FIFO slot for blocked writes).
    * ``two_level`` — capture writes go to the node's private local disk
      (fast, contention-free); a background "trickle" copies them to the
      global server afterwards.
    * ``incremental`` — write only dirty pages, with a full checkpoint
      every ``full_every`` cuts.
    """

    klass = "none"  #: "coordinated" | "independent" | "cic" | "msglog" | "none"
    staggered = False
    #: storage tag and checkpointer-thread name prefixes of image writes.
    write_tag = "ckpt"
    writer_name = "ckpt-writer"

    #: A scheme is pickled whole into the durable line, so it declares
    #: no field list: VOLATILE_FIELDS names the engine-bound attributes
    #: the generic ``__getstate__`` below nulls and ``install()``
    #: rebuilds. One missing makes the pickling fail with a ResumeError
    #: naming it.
    VOLATILE_FIELDS: tuple = ()

    #: The family's own trace checkers (:class:`~repro.core.tracing.Checker`
    #: subclasses, defined in the family's module), run by the audit of
    #: every run of the family beside the family-independent battery of
    #: :mod:`repro.verify.invariants`.
    CHECKERS: tuple = ()

    def __init__(
        self,
        times: Sequence[float],
        name: str,
        capture: str = "blocking",
        incremental: bool = False,
        full_every: int = 4,
        two_level: bool = False,
    ) -> None:
        #: when to checkpoint: the k-th initiation fires at ``times[k]``.
        self.times = sorted(float(t) for t in times)
        if capture not in CAPTURE_MODES:
            raise ValueError(f"unknown capture mode {capture!r}")
        self.capture = capture
        self.incremental = bool(incremental)
        self.full_every = int(full_every)
        self.two_level = bool(two_level)
        self.name = name + ("_2l" if two_level else "")

    @property
    def memory_ckpt(self) -> bool:
        """The cut blocks only for an in-memory capture and a checkpointer
        thread streams the image to stable storage."""
        return self.capture != "blocking"

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle with every VOLATILE_FIELDS entry (unioned over the MRO)
        nulled — engine-bound handles never enter a durable line."""
        from ..resume import volatile_fields

        state = dict(self.__dict__)
        for name in volatile_fields(type(self)):
            if name in state:
                state[name] = None
        return state

    def make_agent(self, runtime: "CheckpointRuntime", rank: int) -> SchemeAgent:
        return SchemeAgent(self, runtime, rank)

    def install(self, runtime: "CheckpointRuntime") -> None:
        """Start daemons/timers; called once after comms are built."""

    # -- hook surface (called by agents) ----------------------------------------

    def on_app_send(self, agent: SchemeAgent, msg: Message) -> None:
        pass

    def on_app_deliver(self, agent: SchemeAgent, msg: Message) -> None:
        pass

    def on_control(self, agent: SchemeAgent, msg: Message) -> None:
        raise SimulationError(
            f"{self.name}: unexpected control message {msg!r}"
        )

    def at_point(self, agent: SchemeAgent) -> Generator[Any, Any, None]:
        return
        yield  # pragma: no cover - generator marker

    def send_extra(self, agent: SchemeAgent, msg: Message):
        """Extra blocking work charged to the sender (None = nothing)."""
        return None

    def reset_agent(self, agent: SchemeAgent) -> None:
        pass

    # -- the checkpoint write path ------------------------------------------------
    #
    # One path for every protocol. ``save`` blocks the cut for what
    # ``capture`` says and hands the rest to a checkpointer thread
    # (``_writer``); ``_write`` is the one stable write of an image. A
    # protocol supplies the hooks below it: its image size, its
    # staggering gates, and what a landed or failed write means.

    def _write_bytes(self, record: CheckpointRecord) -> int:
        """Bytes checkpoint *record* carries to stable storage."""
        return record.write_bytes

    def write_gate(self, agent: SchemeAgent, job: WriteJob) -> Optional["Event"]:
        """What a checkpointer thread waits for before it writes (None =
        write at once): the staggering gate of the background writes."""
        return None

    def blocking_write(self, agent: SchemeAgent, job: WriteJob):
        """The stable write a blocked cut waits for — a generator
        returning whether the image landed. Staggering of blocked writes
        wraps it."""
        return self._write(agent, job)

    def save(self, agent: SchemeAgent, job: WriteJob) -> Generator[Any, Any, None]:
        """Make *job*'s image stable: block the application for what
        ``capture`` says and charge it, streaming the rest in the
        background."""
        rt = agent.runtime
        t0 = rt.engine.now
        if agent.finished:
            # a finished process has nothing to block: capture is already
            # done, the write streams in the background under any variant.
            self._spawn_writer(agent, job, cow=False)
            rt.tracer.event("proto.cut_end", rank=agent.rank, round=job.n, blocked=0.0)
            return
        if self.capture == "cow":
            # block only to write-protect the pages; the background writer
            # streams while application stores fault-and-copy.
            pages = max(1, job.record.state_bytes // PAGE_SIZE)
            yield rt.engine.delay(pages * agent.node.params.cow_mark_cost)
            self._spawn_writer(agent, job, cow=True)
        elif self.capture == "memcopy":
            # block only for the buffer copy; the checkpointer thread does
            # the rest concurrently with the application.
            yield from agent.node.mem_copy(job.nbytes)
            self._spawn_writer(agent, job, cow=False)
        else:
            rt.cluster.set_rank_blocked(agent.rank, True)
            try:
                wrote = yield from self.blocking_write(agent, job)
            finally:
                rt.cluster.set_rank_blocked(agent.rank, False)
            (self._write_finished if wrote else self._write_failed)(agent, job)
        blocked = agent.charge_blocked(t0)
        rt.tracer.event("proto.cut_end", rank=agent.rank, round=job.n, blocked=blocked)

    def _spawn_writer(self, agent: SchemeAgent, job: WriteJob, cow: bool) -> None:
        agent.writing = True
        agent.runtime.spawn(
            self._writer(agent, job, cow),
            name=f"{self.writer_name}:{job.n}:r{agent.rank}",
        )

    def _writer(self, agent: SchemeAgent, job: WriteJob, cow: bool):
        """A checkpointer thread: pass the gate, then write the image."""
        if cow:
            agent.node.cow_window_opened()
        try:
            gate = self.write_gate(agent, job)
            if gate is not None:
                yield gate
            if job.aborted:
                return  # an abort woke us up; nothing to write
            wrote = yield from self._write(agent, job, background=True)
        finally:
            agent.writing = False
            if cow:
                agent.node.cow_window_closed()
        (self._write_finished if wrote else self._write_failed)(agent, job)

    def _write(self, agent: SchemeAgent, job: WriteJob, background: bool = False):
        """Stream *job*'s image to its capture target (the node's local
        disk under two-level storage); returns whether it landed."""
        rt = agent.runtime
        rt.tracer.event(
            "proto.write_begin", rank=agent.rank, round=job.n, scheme=self.name
        )
        wrote = True
        try:
            yield from stable_write(
                rt.cluster.local_disk(agent.rank) if self.two_level else rt.storage,
                agent.node,
                job.nbytes,
                tag=f"{self.write_tag}{job.n}:r{agent.rank}",
                retry=rt.retry_policy,
                tracer=rt.tracer,
                background=background,
            )
        except StorageFault:
            wrote = False
        rt.tracer.event("proto.write_end", rank=agent.rank, round=job.n, ok=wrote)
        return wrote

    def _write_finished(self, agent: SchemeAgent, job: WriteJob) -> None:
        """*job*'s image landed: store it, then start its copy to the
        global tier — the trickle under two-level storage, the drain out
        of a burst buffer."""
        rt = agent.runtime
        record = job.record
        record.written_at = rt.engine.now
        rt.store.add(record)
        inj = rt.storage.fault_injector
        if inj is not None and inj.corrupts_checkpoint(agent.rank, job.n):
            # silent media corruption: nobody notices until recovery
            # validates the record's checksum.
            rt.store.corrupt(agent.rank, job.n)
            rt.tracer.add("chk.ckpts_corrupted")
        if self.two_level:
            rt.spawn(
                self._trickle(agent, job), name=f"trickle:{job.n}:r{agent.rank}"
            )
        elif rt.cluster.storage.has_burst_buffers:
            rt.spawn(self._drain(agent, job), name=f"drain:{job.n}:r{agent.rank}")
        else:
            record.global_written_at = record.written_at

    def _write_failed(self, agent: SchemeAgent, job: WriteJob) -> None:
        """*job*'s write exhausted its retries."""
        agent.runtime.tracer.add("chk.ckpt_writes_failed")

    def _trickle(self, agent: SchemeAgent, job: WriteJob):
        rt = agent.runtime
        try:
            yield from stable_write(
                rt.cluster.storage.server_for(agent.rank),
                agent.node,
                job.nbytes,
                tag=f"trickle{job.n}:r{agent.rank}",
                retry=rt.retry_policy,
                tracer=rt.tracer,
                background=True,
            )
        except StorageFault:
            # the local-disk copy stays valid; only the global replica is
            # missing, which matters if this node's disk later dies.
            rt.tracer.add("chk.trickle_failures")
            return
        job.record.global_written_at = rt.engine.now
        rt.tracer.add("chk.trickled_bytes", job.nbytes)

    def _drain(self, agent: SchemeAgent, job: WriteJob):
        """Empty *job*'s bytes from the rack burst buffer onto the rank's
        shard server. Generation-scoped (``rt.spawn``): a crash kills
        in-flight drains identically on the in-process and restart paths,
        so the resume equivalence proof covers the buffered plane."""
        rt = agent.runtime
        yield from rt.cluster.storage.drain(
            agent.node, job.nbytes, tag=f"drain{job.n}:r{agent.rank}"
        )
        job.record.global_written_at = rt.engine.now

    # -- recovery interface -----------------------------------------------------

    def recovery_line(self, runtime: "CheckpointRuntime") -> Dict[int, Any]:
        """``{rank: CheckpointRecord | None}`` to restore after a crash
        (None = initial state)."""
        raise SimulationError(f"scheme {self.name!r} cannot recover")

    def replay_messages(
        self, runtime: "CheckpointRuntime", line: Dict[int, Any]
    ) -> List[Message]:
        """In-transit messages to re-inject for *line* (default: the
        channel state recorded inside the restored checkpoints)."""
        msgs: List[Message] = []
        for record in line.values():
            if record is not None:
                msgs.extend(record.channel_msgs)
        return msgs

    def line_sound(self, runtime: "CheckpointRuntime", line, cut_line) -> bool:
        """Does the restored *line* satisfy this scheme's recoverability
        requirement? Default: the no-orphan condition on *cut_line* (a
        ``{rank: CutPoint}`` view of *line*). Schemes that tolerate
        orphans under piecewise-deterministic re-execution override this
        with their actual invariant."""
        from ..recovery import is_consistent

        return is_consistent(cut_line)

    def on_crash(self, runtime: "CheckpointRuntime") -> None:
        """Clear global protocol state when a failure is detected."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Scheme {self.name}>"


class NoCheckpointing(Scheme):
    """The NORMAL column: no checkpoints, no protocol, no recovery."""

    def __init__(self) -> None:
        super().__init__((), name="normal")
