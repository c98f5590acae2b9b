"""Scheme framework: per-rank agents and the scheme interface.

A :class:`Scheme` object describes one checkpointing policy (one column of
the paper's tables). It creates one :class:`SchemeAgent` per rank — the
agent plugs into the rank's :class:`~repro.net.api.Comm` as a
:class:`~repro.net.api.CommAgent` and implements the mechanics: epoch
piggybacking, duplicate suppression, channel-state recording, and the
blocking work performed at application checkpoint points.

The runtime (:mod:`repro.chklib.runtime`) is duck-typed here; the
attributes a scheme relies on are: ``engine``, ``cluster``, ``transport``,
``comms``, ``agents``, ``store`` (CheckpointStore), ``storage``
(StableStorage), ``tracer``, ``generation``, ``rngs``, ``spawn``,
``keeps_bytes``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from ...core.errors import InvariantViolation, SimulationError, StorageFault
from ...net.api import CommAgent
from ...net.message import KIND_APP, SIZE_ONLY, Message
from ..incremental import IncrementalState
from ..retry import stable_write
from ..state import Snapshot
from ..storage_mgr import CheckpointRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...net.api import Comm
    from ..runtime import CheckpointRuntime

__all__ = ["SchemeAgent", "Scheme", "NoCheckpointing"]


class SchemeAgent(CommAgent):
    """Per-rank checkpointing agent wired into the communication path."""

    #: Capture manifest (see :mod:`repro.chklib.resume`): the cumulative
    #: per-rank facts a durable line carries across a halt/restart.
    RESUME_FIELDS = ("epoch", "blocked_time", "cuts_taken")
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
        #: page-level dirty tracking (incremental checkpointing only).
        self.inc: Optional[IncrementalState] = (
            IncrementalState(full_every=scheme.full_every)
            if scheme.incremental
            else None
        )
        # cumulative metrics
        self.blocked_time = 0.0
        self.cuts_taken = 0

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
        """Called by the application at every checkpoint point."""
        yield from self.scheme.at_point(self)

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

    def charge_blocked(self, started_at: float) -> None:
        """Account application-blocked time for a completed cut."""
        dt = self.runtime.engine.now - started_at
        self.blocked_time += dt
        self.runtime.tracer.add("chk.blocked_time", dt)

    # -- lifecycle across recoveries ----------------------------------------------

    def reset_for_recovery(self, epoch: int) -> None:
        """Drop in-flight protocol state after a rollback."""
        self.epoch = epoch
        self.pending_cut = None
        self.scheme.reset_agent(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} r{self.rank} epoch={self.epoch}>"


class Scheme:
    """Base checkpointing scheme (default: no-ops everywhere).

    Concrete schemes override the hooks they need. Flags describe the
    mechanics so experiments can introspect what they are measuring:

    * ``memory_ckpt`` — the cut blocks only for a main-memory copy and a
      checkpointer thread streams the buffer to stable storage.
    * ``staggered`` — background writes are serialised on a token ring.
    """

    name = "none"
    klass = "none"  #: "coordinated" | "independent" | "none"
    memory_ckpt = False
    staggered = False
    #: two-level stable storage: capture writes go to the node's private
    #: local disk (fast, contention-free); a background "trickle" copies
    #: them to the global server afterwards.
    two_level = False
    #: incremental checkpointing: write only dirty pages, with a full
    #: checkpoint every ``full_every`` cuts.
    incremental = False
    full_every = 4

    #: Capture manifests (see :mod:`repro.chklib.resume`). A scheme is
    #: pickled whole into the durable line; VOLATILE_FIELDS are nulled by
    #: the generic ``__getstate__`` below and rebuilt by ``install()``.
    RESUME_FIELDS: tuple = ()
    VOLATILE_FIELDS: tuple = ()

    #: Protocol-specific trace-event vocabulary (beyond the shared kinds
    #: every scheme emits). The protocol registry validates each family's
    #: vocabulary against :data:`repro.core.tracing.EVENT_KINDS` so a new
    #: event cannot ship unregistered — the analyzer's trace-conformance
    #: pass then proves it is both emitted and consumed.
    TRACE_EVENTS: tuple = ()

    @classmethod
    def model_machines(cls):
        """``((label, factory), ...)`` abstract machines model-checking
        this protocol; ``repro.verify model`` enumerates these through the
        protocol registry. Factories take ``n_ranks`` plus bug knobs."""
        return ()

    @classmethod
    def trace_checkers(cls):
        """Checker classes (see :mod:`repro.verify.invariants`) auditing
        this protocol's trace events; contributed to ``default_checkers``
        through the protocol registry. Each must gate itself on
        ``meta.klass`` so it is inert for other families."""
        return ()

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

    # -- two-level stable storage helpers ---------------------------------------

    def ckpt_storage(self, agent: SchemeAgent):
        """Where the capture write goes (local disk under two-level)."""
        rt = agent.runtime
        if self.two_level:
            return rt.cluster.local_disk(agent.rank)
        return rt.storage

    def after_stable_write(self, agent: SchemeAgent, record, nbytes: float) -> None:
        """Called when the capture write completed; under two-level this
        starts the background copy to the global server, and under a
        burst-buffered storage plane the background drain onto the rank's
        shard server."""
        rt = agent.runtime
        if self.two_level:
            rt.spawn(
                self._trickle(agent, record, nbytes),
                name=f"trickle:{record.index}:r{agent.rank}",
            )
            return
        if rt.cluster.storage.has_burst_buffers:
            rt.spawn(
                self._drain(agent, record, nbytes),
                name=f"drain:{record.index}:r{agent.rank}",
            )
            return
        record.global_written_at = record.written_at

    def _trickle(self, agent: SchemeAgent, record, nbytes: float):
        rt = agent.runtime
        try:
            yield from stable_write(
                rt.cluster.storage.server_for(agent.rank),
                agent.node,
                nbytes,
                tag=f"trickle{record.index}:r{agent.rank}",
                retry=rt.retry_policy,
                tracer=rt.tracer,
                background=True,
            )
        except StorageFault:
            # the local-disk copy stays valid; only the global replica is
            # missing, which matters if this node's disk later dies.
            rt.tracer.add("chk.trickle_failures")
            return
        record.global_written_at = rt.engine.now
        rt.tracer.add("chk.trickled_bytes", nbytes)

    def _drain(self, agent: SchemeAgent, record, nbytes: float):
        """Empty *record*'s bytes from the rack burst buffer onto the
        rank's shard server. Generation-scoped (``rt.spawn``): a crash
        kills in-flight drains identically on the in-process and restart
        paths, so the resume equivalence proof covers the buffered plane."""
        rt = agent.runtime
        yield from rt.cluster.storage.drain(
            agent.node, nbytes, tag=f"drain{record.index}:r{agent.rank}"
        )
        record.global_written_at = rt.engine.now

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

    name = "normal"
    klass = "none"
