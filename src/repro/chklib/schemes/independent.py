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
  domino mitigation). Logging every send synchronously instead is the
  message-logging family (:mod:`.msglog`).
* ``gc`` — run recovery-line garbage collection after each checkpoint
  (Wang-style space reclamation).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Sequence

from ...core.errors import SimulationError
from ...net.message import Message
from ..garbage import collect_garbage
from ..recovery import build_cuts, consistent_line, in_transit_ranges
from ..storage_mgr import CheckpointRecord
from .base import Scheme, SchemeAgent, WriteJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import CheckpointRuntime

__all__ = ["IndependentScheme", "IndependentAgent"]


class IndependentAgent(SchemeAgent):
    """Rank-local state: the volatile sender log."""

    #: Wiped by recovery/restart (the volatile sender log is exactly the
    #: state an independent-checkpointing crash loses).
    VOLATILE_FIELDS = ("volatile_log",)

    def __init__(self, scheme: "IndependentScheme", runtime, rank: int) -> None:
        super().__init__(scheme, runtime, rank)
        self.volatile_log: List[Message] = []


class IndependentScheme(Scheme):
    """Timer-driven uncoordinated checkpointing."""

    klass = "independent"
    write_tag = "ickpt"
    writer_name = "indep-writer"

    def __init__(
        self,
        times: Sequence[float],
        name: str,
        capture: str = "blocking",
        skew: float = 0.0,
        logging: bool = False,
        gc: bool = False,
        incremental: bool = False,
        full_every: int = 4,
        two_level: bool = False,
    ) -> None:
        super().__init__(
            times,
            name,
            capture=capture,
            incremental=incremental,
            full_every=full_every,
            two_level=two_level,
        )
        #: per-rank resume bookkeeping: shots fired, shots whose skew was
        #: drawn, and the drawn-but-unfired fire time carried across a halt
        #: (the restored RNG stream is already past the draw, so a resumed
        #: timer must not draw it again).
        self._fired: Dict[int, int] = {}
        self._drawn: Dict[int, int] = {}
        self._pending_fire: Dict[int, float] = {}
        #: amplitude (seconds) of the deterministic per-rank timer skew.
        #: Real independent timers drift apart but start aligned; partial
        #: overlap of the background writes is part of the measured effect.
        self.skew = float(skew)
        self.logging = bool(logging)
        self.gc = bool(gc)

    # -- named variants -------------------------------------------------------

    @classmethod
    def Indep(cls, times: Sequence[float], **kw) -> "IndependentScheme":
        return cls(times, name="indep", capture="blocking", **kw)

    @classmethod
    def IndepM(cls, times: Sequence[float], **kw) -> "IndependentScheme":
        return cls(times, name="indep_m", capture="memcopy", **kw)

    @classmethod
    def IndepC(cls, times: Sequence[float], **kw) -> "IndependentScheme":
        """Extension: copy-on-write capture."""
        return cls(times, name="indep_c", capture="cow", **kw)

    # -- wiring ------------------------------------------------------------------

    def make_agent(self, runtime: "CheckpointRuntime", rank: int) -> IndependentAgent:
        return IndependentAgent(self, runtime, rank)

    def install(self, runtime: "CheckpointRuntime") -> None:
        for rank in range(runtime.n_ranks):
            runtime.engine.process(
                self._timer(runtime, rank), name=f"indep-timer:r{rank}"
            )

    def _timer(self, runtime: "CheckpointRuntime", rank: int):
        """Local checkpoint timer: fires at each of ``times`` plus a
        deterministic per-(rank, shot) skew. A resumed timer skips the
        shots fired before the halt — and does not redraw skews the
        restored RNG stream has already consumed."""
        engine = runtime.engine
        rng = runtime.rngs.get(f"indep.skew.r{rank}")
        agent = runtime.agents[rank]
        for shot in range(self._fired.get(rank, 0), len(self.times)):
            if shot < self._drawn.get(rank, 0):
                # skew drawn but the shot had not fired when the run halted
                fire_at = self._pending_fire[rank]
            else:
                fire_at = self.times[shot] + (
                    float(rng.uniform(-1.0, 1.0)) * self.skew
                )
                self._drawn[rank] = shot + 1
                self._pending_fire[rank] = fire_at
            if fire_at > engine.now:
                yield engine.delay(fire_at - engine.now)
            if runtime.finished:
                return
            self._fired[rank] = shot + 1
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
        if agent.pending_cut is None or agent.pending_cut <= agent.epoch:
            return
        if agent.writing:
            return  # previous background write still draining; defer
        n = agent.epoch + 1
        agent.pending_cut = None
        yield from self._cut(agent, n)

    def _cut(self, agent: IndependentAgent, n: int) -> Generator[Any, Any, None]:
        rt = agent.runtime
        record = agent.capture(n)
        if self.logging:
            record.log_annex = agent.volatile_log
            agent.volatile_log = []
        agent.epoch = n
        rt.tracer.add("chk.cuts")
        rt.tracer.event("proto.cut", rank=agent.rank, round=n, scheme=self.name)
        yield from self.save(agent, WriteJob(n, record, self._write_bytes(record)))

    def _write_bytes(self, record: CheckpointRecord) -> int:
        # the sender log flushes with the image it was cut with
        return record.write_bytes + record.log_bytes

    def _write_failed(self, agent: IndependentAgent, job: WriteJob) -> None:
        """The checkpoint write exhausted its retries. Independent schemes
        have no round to abort: drop the local checkpoint and carry on (the
        previous one still covers this rank). Log messages that failed to
        persist go back to the front of the volatile log so the next
        checkpoint flushes them — replay must never miss a logged send."""
        super()._write_failed(agent, job)
        record = job.record
        if self.logging and record.log_annex:
            agent.volatile_log[:0] = record.log_annex
            record.log_annex = []
        if agent.inc is not None:
            # the chain would base on a checkpoint that never landed;
            # force the next checkpoint to be a full one.
            agent.inc.reset()

    def _write_finished(self, agent: IndependentAgent, job: WriteJob) -> None:
        super()._write_finished(agent, job)
        rt = agent.runtime
        job.record.committed = True  # a written independent checkpoint is stable
        rt.tracer.add("chk.commits")
        rt.tracer.event("proto.local_commit", rank=agent.rank, index=job.n)
        if self.gc:
            stats = collect_garbage(
                rt.store,
                transitless=not self.logging,
                logging_recovery=self.logging,
                tracer=rt.tracer,
            )
            rt.tracer.add("chk.gc_freed_bytes", stats.freed_bytes)
            rt.tracer.add("chk.gc_freed_ckpts", stats.freed_checkpoints)

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<IndependentScheme {self.name} times={self.times} skew={self.skew}>"
