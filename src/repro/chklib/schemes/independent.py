"""Independent (uncoordinated) checkpointing (the paper's `Indep`, `Indep_M`).

Every process checkpoints on its own local timer — no protocol messages, no
synchronisation (the approach's advertised advantage). Each checkpoint
records the per-channel send/consume counters so a consistent recovery line
can be searched for after a failure; without message logging the line must
additionally be transitless, which is what exposes the domino effect.

Variants:

* ``Indep``   — the process is blocked for the full write to stable storage.
* ``Indep_M`` — main-memory checkpointing: blocked only for the buffer
  copy; a checkpointer thread streams it to storage in the background.

Options:

* ``logging`` — sender-based message logging: every application send is
  copied into a volatile log, flushed to stable storage together with the
  next checkpoint. Recovery can then replay in-transit messages across any
  consistent line (the paper cites this as the fix for lost messages /
  domino mitigation).
* ``pessimistic_logging`` — the log write happens synchronously inside the
  send path (charged to the sender) instead of at checkpoint time — the
  expensive classic variant, kept for ablations.
* ``gc`` — run recovery-line garbage collection after each checkpoint
  (Wang-style space reclamation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence

from ...core.errors import SimulationError, StorageFault
from ...net.message import Message
from ..garbage import collect_garbage
from ..incremental import PAGE_SIZE
from ..policy import CheckpointPolicy, FixedTimes
from ..recovery import build_cuts, consistent_line, in_transit_ranges
from ..retry import stable_write
from ..storage_mgr import CheckpointRecord
from .base import Scheme, SchemeAgent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import CheckpointRuntime

__all__ = ["IndependentScheme", "IndependentAgent"]


class IndependentAgent(SchemeAgent):
    """Rank-local state: the volatile sender log."""

    #: All in-flight; wiped by recovery/restart (the volatile sender log
    #: is exactly the state an independent-checkpointing crash loses).
    VOLATILE_FIELDS = ("volatile_log", "writing")

    def __init__(self, scheme: "IndependentScheme", runtime, rank: int) -> None:
        super().__init__(scheme, runtime, rank)
        self.volatile_log: List[Message] = []
        #: background write in flight (at most one with sane intervals).
        self.writing = False


class IndependentScheme(Scheme):
    """Timer-driven uncoordinated checkpointing."""

    klass = "independent"

    #: Capture manifest: the whole scheme object is durable — per-rank
    #: fire/draw bookkeeping must survive a halt so resumed timers replay
    #: the same skewed schedule bitwise.
    RESUME_FIELDS = (
        "times",
        "policy",
        "_fired",
        "_drawn",
        "_pending_fire",
        "capture",
        "memory_ckpt",
        "incremental",
        "full_every",
        "two_level",
        "name",
        "skew",
        "logging",
        "pessimistic_logging",
        "gc",
    )

    #: Beyond the shared kinds, independent checkpointing only adds the
    #: per-rank commit of a background write.
    TRACE_EVENTS = ("proto.local_commit",)

    def __init__(
        self,
        times: Sequence[float],
        memory_ckpt: bool,
        name: str,
        skew: float = 0.0,
        logging: bool = False,
        pessimistic_logging: bool = False,
        gc: bool = False,
        capture: Optional[str] = None,
        incremental: bool = False,
        full_every: int = 4,
        two_level: bool = False,
        policy: Optional[CheckpointPolicy] = None,
    ) -> None:
        self.times = sorted(float(t) for t in times)
        #: when each rank's timer fires; the explicit ``times`` schedule is
        #: the legacy default, wrapped in a :class:`FixedTimes` policy.
        self.policy = policy if policy is not None else FixedTimes(self.times)
        #: per-rank resume bookkeeping: shots fired, shots whose skew was
        #: drawn, and the drawn-but-unfired fire time carried across a halt
        #: (the restored RNG stream is already past the draw, so a resumed
        #: timer must not draw it again).
        self._fired: Dict[int, int] = {}
        self._drawn: Dict[int, int] = {}
        self._pending_fire: Dict[int, float] = {}
        #: capture mode: "blocking" | "memcopy" | "cow" (see coordinated).
        self.capture = capture or ("memcopy" if memory_ckpt else "blocking")
        if self.capture not in ("blocking", "memcopy", "cow"):
            raise ValueError(f"unknown capture mode {self.capture!r}")
        self.memory_ckpt = self.capture != "blocking"
        self.incremental = bool(incremental)
        self.full_every = int(full_every)
        self.two_level = bool(two_level)
        self.name = name + ("_2l" if two_level else "")
        #: amplitude (seconds) of the deterministic per-rank timer skew.
        #: Real independent timers drift apart but start aligned; partial
        #: overlap of the background writes is part of the measured effect.
        self.skew = float(skew)
        self.logging = bool(logging) or bool(pessimistic_logging)
        self.pessimistic_logging = bool(pessimistic_logging)
        self.gc = bool(gc)

    # -- named variants -------------------------------------------------------

    @classmethod
    def Indep(cls, times: Sequence[float], skew: float = 0.0, **kw) -> "IndependentScheme":
        return cls(times, memory_ckpt=False, name="indep", skew=skew, **kw)

    @classmethod
    def IndepM(cls, times: Sequence[float], skew: float = 0.0, **kw) -> "IndependentScheme":
        return cls(times, memory_ckpt=True, name="indep_m", skew=skew, **kw)

    @classmethod
    def IndepC(cls, times: Sequence[float], skew: float = 0.0, **kw) -> "IndependentScheme":
        """Extension: copy-on-write capture."""
        return cls(
            times, memory_ckpt=True, name="indep_c", skew=skew,
            capture="cow", **kw
        )

    # -- wiring ------------------------------------------------------------------

    def make_agent(self, runtime: "CheckpointRuntime", rank: int) -> IndependentAgent:
        return IndependentAgent(self, runtime, rank)

    def install(self, runtime: "CheckpointRuntime") -> None:
        if self.policy.point_driven:
            return  # cuts are triggered from checkpoint points instead
        for rank in range(runtime.n_ranks):
            runtime.engine.process(
                self._timer(runtime, rank), name=f"indep-timer:r{rank}"
            )

    def _timer(self, runtime: "CheckpointRuntime", rank: int):
        """Local checkpoint timer: fires at each policy-decided time plus a
        deterministic per-(rank, shot) skew. A resumed timer replays
        pre-halt shots without waiting — and without redrawing skews the
        restored RNG stream has already consumed."""
        engine = runtime.engine
        rng = runtime.rngs.get(f"indep.skew.r{rank}")
        agent = runtime.agents[rank]
        shot = 0
        while True:
            t = self.policy.next_time(runtime, rank, shot)
            if t is None:
                return
            if shot < self._fired.get(rank, 0):
                shot += 1  # fired before the halt; no wait, no draw
                continue
            if shot < self._drawn.get(rank, 0):
                # skew drawn but the shot had not fired when the run halted
                fire_at = self._pending_fire[rank]
            else:
                fire_at = t + (float(rng.uniform(-1.0, 1.0)) * self.skew)
                self._drawn[rank] = shot + 1
                self._pending_fire[rank] = fire_at
            if fire_at > engine.now:
                yield engine.delay(fire_at - engine.now)
            if runtime.finished:
                return
            shot += 1
            self._fired[rank] = shot
            agent.set_pending((agent.pending_cut or agent.epoch) + 1)
            runtime.tracer.add("chk.initiations")

    # -- hooks ----------------------------------------------------------------------

    def on_app_send(self, agent: SchemeAgent, msg: Message) -> None:
        if not self.logging:
            return
        assert isinstance(agent, IndependentAgent)
        agent.volatile_log.append(agent.retain(msg))
        agent.runtime.tracer.add("chk.messages_logged")

    def at_point(self, agent: SchemeAgent) -> Generator[Any, Any, None]:
        assert isinstance(agent, IndependentAgent)
        # point-driven policies: each rank decides at its own points. A
        # finished rank has no application phases — its at_point re-entries
        # are late-cut spawns, not points, and must not count (a phantom
        # point could otherwise trigger cuts forever).
        if (
            self.policy.point_driven
            and not agent.finished
            and self.policy.on_point(agent.runtime, agent.rank)
        ):
            agent.set_pending((agent.pending_cut or agent.epoch) + 1)
            agent.runtime.tracer.add("chk.initiations")
        if agent.pending_cut is None or agent.pending_cut <= agent.epoch:
            return
        if agent.writing:
            return  # previous background write still draining; defer
        n = agent.epoch + 1
        agent.pending_cut = None
        yield from self._cut(agent, n)

    def _cut(self, agent: IndependentAgent, n: int) -> Generator[Any, Any, None]:
        rt = agent.runtime
        engine = rt.engine
        t0 = engine.now
        record = agent.capture(n)
        if self.logging:
            record.log_annex = agent.volatile_log
            agent.volatile_log = []
        agent.epoch = n
        agent.cuts_taken += 1
        rt.tracer.add("chk.cuts")
        rt.tracer.event("proto.cut", rank=agent.rank, round=n, scheme=self.name)
        span = rt.tracer.open_span("ckpt.cut", rank=agent.rank, n=n, scheme=self.name)
        write_bytes = record.write_bytes + (
            0 if self.pessimistic_logging else record.log_bytes
        )
        if agent.finished:
            # a finished process has nothing to block: stream in background.
            agent.writing = True
            rt.spawn(
                self._bg_writer(agent, record, write_bytes),
                name=f"indep-writer:{n}:r{agent.rank}",
            )
            rt.tracer.close_span(span)
            return
        if self.capture == "cow":
            pages = max(1, record.state_bytes // PAGE_SIZE)
            yield engine.delay(pages * agent.node.params.cow_mark_cost)
            agent.writing = True
            rt.spawn(
                self._bg_writer(agent, record, write_bytes, cow=True),
                name=f"indep-writer:{n}:r{agent.rank}",
            )
        elif self.memory_ckpt:
            yield from agent.node.mem_copy(write_bytes)
            agent.writing = True
            rt.spawn(
                self._bg_writer(agent, record, write_bytes),
                name=f"indep-writer:{n}:r{agent.rank}",
            )
        else:
            rt.cluster.set_rank_blocked(agent.rank, True)
            wrote = True
            rt.tracer.event(
                "proto.write_begin", rank=agent.rank, round=n, scheme=self.name
            )
            try:
                try:
                    yield from stable_write(
                        self.ckpt_storage(agent),
                        agent.node,
                        write_bytes,
                        tag=f"ickpt{n}:r{agent.rank}",
                        retry=rt.retry_policy,
                        tracer=rt.tracer,
                    )
                except StorageFault:
                    wrote = False
            finally:
                rt.cluster.set_rank_blocked(agent.rank, False)
            rt.tracer.event("proto.write_end", rank=agent.rank, round=n, ok=wrote)
            if wrote:
                self._write_finished(agent, record, write_bytes)
            else:
                self._write_failed(agent, record)
        agent.charge_blocked(t0)
        rt.tracer.close_span(span)

    def _bg_writer(
        self,
        agent: IndependentAgent,
        record: CheckpointRecord,
        nbytes: int,
        cow: bool = False,
    ):
        rt = agent.runtime
        if cow:
            agent.node.cow_window_opened()
        wrote = True
        rt.tracer.event(
            "proto.write_begin",
            rank=agent.rank,
            round=record.index,
            scheme=self.name,
        )
        try:
            try:
                yield from stable_write(
                    self.ckpt_storage(agent),
                    agent.node,
                    nbytes,
                    tag=f"ickpt{record.index}:r{agent.rank}",
                    retry=rt.retry_policy,
                    tracer=rt.tracer,
                    background=True,
                )
            except StorageFault:
                wrote = False
        finally:
            agent.writing = False
            if cow:
                agent.node.cow_window_closed()
        rt.tracer.event(
            "proto.write_end", rank=agent.rank, round=record.index, ok=wrote
        )
        if wrote:
            self._write_finished(agent, record, nbytes)
        else:
            self._write_failed(agent, record)

    def _write_failed(
        self, agent: IndependentAgent, record: CheckpointRecord
    ) -> None:
        """The checkpoint write exhausted its retries. Independent schemes
        have no round to abort: drop the local checkpoint and carry on (the
        previous one still covers this rank). Log messages that failed to
        persist go back to the front of the volatile log so the next
        checkpoint flushes them — replay must never miss a logged send."""
        rt = agent.runtime
        rt.tracer.add("chk.ckpt_writes_failed")
        if self.logging and record.log_annex:
            agent.volatile_log[:0] = record.log_annex
            record.log_annex = []
        if agent.inc is not None:
            # the chain would base on a checkpoint that never landed;
            # force the next checkpoint to be a full one.
            agent.inc.reset()

    def _write_finished(
        self, agent: IndependentAgent, record: CheckpointRecord, nbytes: float
    ) -> None:
        rt = agent.runtime
        record.written_at = rt.engine.now
        record.committed = True  # a written independent checkpoint is stable
        rt.store.add(record)
        inj = rt.storage.fault_injector
        if inj is not None and inj.corrupts_checkpoint(agent.rank, record.index):
            # silent media corruption, detected at recovery by checksum
            rt.store.corrupt(agent.rank, record.index)
            rt.tracer.add("chk.ckpts_corrupted")
        self.after_stable_write(agent, record, nbytes)
        rt.tracer.add("chk.commits")
        rt.tracer.event("proto.local_commit", rank=agent.rank, index=record.index)
        if self.gc:
            stats = collect_garbage(
                rt.store,
                transitless=not self.logging,
                logging_recovery=self.logging,
                tracer=rt.tracer,
            )
            rt.tracer.add("chk.gc_freed_bytes", stats.freed_bytes)
            rt.tracer.add("chk.gc_freed_ckpts", stats.freed_checkpoints)

    # -- pessimistic logging (send path pays the log write) ------------------------

    def send_extra(self, agent: SchemeAgent, msg: Message):
        if not self.pessimistic_logging or msg.kind != "app":
            return None
        assert isinstance(agent, IndependentAgent)
        return self._logged_send_cost(agent, msg)

    def _logged_send_cost(self, agent: IndependentAgent, msg: Message):
        """Synchronous log flush inside the send path (pessimistic mode)."""
        rt = agent.runtime
        try:
            yield from stable_write(
                rt.storage,
                agent.node,
                msg.size,
                tag=f"msglog:r{agent.rank}",
                retry=rt.retry_policy,
                tracer=rt.tracer,
            )
        except StorageFault:
            # degrade to optimistic for this message: it is already in the
            # volatile log and flushes with the next checkpoint instead.
            rt.tracer.add("chk.msglog_failed")

    # -- recovery ---------------------------------------------------------------------

    def recovery_line(self, runtime: "CheckpointRuntime") -> Dict[int, Any]:
        store = runtime.store
        cuts = build_cuts(
            store,
            written_only=True,
            eligible=lambda rec: store.chain_intact(rec.rank, rec.index),
        )
        if self.logging:
            # Sender-based logging makes recovery *orphan-tolerant* under
            # piecewise determinism: every rank restores its own latest
            # checkpoint. In-transit messages replay from the stable logs;
            # orphaned receives are regenerated by the senders' replay and
            # dropped as duplicates by the per-channel sequence numbers.
            # No rollback propagation, hence no domino effect — the fix the
            # paper attributes to message logging.
            line = {r: cuts[r][-1] for r in cuts}
        else:
            # Without logs nothing in flight survives, so the line must be
            # both consistent and transitless — the domino-prone case.
            line = consistent_line(cuts, transitless=True)
        return {
            r: (cut.record if cut.index > 0 else None) for r, cut in line.items()
        }

    def replay_messages(
        self, runtime: "CheckpointRuntime", line: Dict[int, Any]
    ) -> List[Message]:
        if not self.logging:
            return []  # the line is transitless: nothing in flight
        store = runtime.store
        cuts = build_cuts(
            store,
            written_only=True,
            eligible=lambda rec: store.chain_intact(rec.rank, rec.index),
        )
        cut_line = {
            r: next(
                c
                for c in cuts[r]
                if c.index == (line[r].index if line[r] is not None else 0)
            )
            for r in cuts
        }
        msgs: List[Message] = []
        for (src, dst), (lo, hi) in in_transit_ranges(cut_line).items():
            for seq in range(lo, hi + 1):
                logged = runtime.store.find_logged(src, dst, seq)
                if logged is None:
                    raise SimulationError(
                        f"in-transit message {src}->{dst} seq={seq} not found "
                        f"in the stable message logs"
                    )
                msgs.append(logged)
        return msgs

    def line_sound(self, runtime: "CheckpointRuntime", line, cut_line) -> bool:
        from ..recovery import is_consistent

        if self.logging:
            # Orphan-tolerant: each rank restores its own newest usable
            # checkpoint; soundness additionally needs every in-transit
            # message in the stable logs, which replay_messages has
            # already verified (it raises on a missing one).
            return True
        # without logs nothing in flight survives: the line must be
        # consistent *and* transitless
        return is_consistent(cut_line, transitless=True)

    def reset_agent(self, agent: SchemeAgent) -> None:
        assert isinstance(agent, IndependentAgent)
        agent.volatile_log.clear()
        agent.writing = False
        if agent.inc is not None:
            agent.inc.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<IndependentScheme {self.name} times={self.times} skew={self.skew}>"
