"""Sender-based pessimistic message logging.

The message-logging member of the third protocol family: independent
(timer-driven, uncoordinated) checkpointing where every application send
is synchronously logged to stable storage *before* it can be consumed.
Because no process ever depends on an unlogged message, recovery never
needs to roll anyone back past their newest checkpoint: each rank
restores its own latest committed record, in-transit messages replay
from the stable logs, and orphaned receives are regenerated by the
senders' piecewise-deterministic re-execution and dropped as duplicates.
Rollback is bounded by one local checkpoint interval — the practical fix
replication-oriented MPI fault-tolerance work applies to the independent
family's domino weakness, at the price of a log write on the send path.

The scheme layers the send-path log write on :class:`IndependentScheme`
and adds the audit surface: every durably logged message emits
``proto.mlog.logged`` (sync log writes at send time, and annex flushes
when a checkpoint commits carries messages whose sync write degraded),
and a failed sync write emits ``proto.mlog.degraded``. The
``msglog_replay_bounds`` trace invariant checks them against the
deliveries — no message is delivered before it is logged, unless its
write degraded — and against the recovery line: no rank may restore
below its last committed checkpoint, and nothing the line says is in
transit may exceed the durable log watermark.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from ...core.errors import StorageFault
from ...core.tracing import Checker, RunMeta, TraceEvent
from ...net.message import KIND_APP, Message
from ..retry import stable_write
from ..storage_mgr import CheckpointRecord
from .base import SchemeAgent, WriteJob
from .independent import IndependentScheme

__all__ = ["MessageLoggingScheme", "MsglogReplayBounds"]


# -- trace invariant --------------------------------------------------------------


class MsglogReplayBounds(Checker):
    """Sender-based pessimistic logging bounds every rollback:

    * each rank's restored line index is its newest stable checkpoint —
      recovery never rolls a rank back past its last committed record
      (quarantined records are legitimately excluded, so ``recover.
      quarantine`` retracts them from the expectation);
    * everything the line's channel counters say is in transit must sit
      at or below the channel's durable log watermark — the replayed
      suffix comes entirely from stable logs, never from luck;
    * a message is delivered only once its log record is stable, unless
      its sync log write failed (``proto.mlog.degraded``) — pessimistic
      logging means no receiver depends on an unlogged message.
    """

    name = "msglog_replay_bounds"
    consumes = (
        "proto.local_commit",
        "proto.mlog.logged",
        "proto.mlog.degraded",
        "msg.deliver",
        "recover.quarantine",
        "recover.line",
    )

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        self._stable: Dict[int, Set[int]] = {}  #: rank -> committed indices
        self._watermark: Dict[Tuple[int, int], int] = {}  #: (src,dst) -> seq
        self._degraded: Set[Tuple[int, int, int]] = set()  #: (src, dst, seq)

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "msg.deliver":
            src, dst, seq = ev["src"], ev["dst"], ev["seq"]
            if (
                seq > self._watermark.get((src, dst), 0)
                and (src, dst, seq) not in self._degraded
            ):
                self.flag(
                    f"message {src}->{dst} seq={seq} delivered before its "
                    f"log record reached stable storage",
                    ev.time,
                )
        elif ev.kind == "proto.mlog.degraded":
            self._degraded.add((ev["src"], ev["dst"], ev["seq"]))
        elif ev.kind == "proto.local_commit":
            self._stable.setdefault(ev["rank"], set()).add(ev["index"])
        elif ev.kind == "proto.mlog.logged":
            chan = (ev["src"], ev["dst"])
            self._watermark[chan] = max(self._watermark.get(chan, 0), ev["seq"])
        elif ev.kind == "recover.quarantine":
            self._stable.get(ev["rank"], set()).discard(ev["index"])
        elif ev.kind == "recover.line":
            indices = dict(ev["indices"])
            sent = {r: dict(v) for r, v in dict(ev["sent"]).items()}
            consumed = {r: dict(v) for r, v in dict(ev["consumed"]).items()}
            for rank, idx in sorted(indices.items()):
                newest = max(self._stable.get(rank, ()), default=0)
                if idx < newest:
                    self.flag(
                        f"rank {rank} rolled back to checkpoint {idx} past "
                        f"its newest stable checkpoint {newest} (logging "
                        f"bounds rollback to the last committed record)",
                        ev.time,
                    )
                # records above the line are discarded by recovery
                self._stable[rank] = {
                    i for i in self._stable.get(rank, ()) if i <= idx
                }
            ranks = sorted(indices)
            for p in ranks:
                for q in ranks:
                    if p == q:
                        continue
                    hi = sent.get(p, {}).get(q, 0)
                    lo = consumed.get(q, {}).get(p, 0)
                    mark = self._watermark.get((p, q), 0)
                    if hi > lo and hi > mark:
                        self.flag(
                            f"line says channel {p}->{q} has in-transit "
                            f"messages up to seq {hi} but the durable log "
                            f"watermark is {mark} (replay would cross the "
                            f"last logged point)",
                            ev.time,
                        )


class MessageLoggingScheme(IndependentScheme):
    """Independent checkpointing with sender-based pessimistic logging."""

    klass = "msglog"

    CHECKERS = (MsglogReplayBounds,)

    def __init__(
        self,
        times: Sequence[float],
        skew: float = 0.0,
        gc: bool = False,
        name: str = "indep_m_mlog",
        capture: str = "memcopy",
    ) -> None:
        super().__init__(
            times,
            name,
            capture=capture,
            skew=skew,
            logging=True,
            gc=gc,
        )
        #: per-channel durable watermark: ``{(src, dst): seq}`` — the
        #: highest sequence number whose log record reached stable storage.
        self._logged: Dict[Tuple[int, int], int] = {}

    # -- named variants -------------------------------------------------------

    @classmethod
    def Mlog(cls, times: Sequence[float], **kw) -> "MessageLoggingScheme":
        return cls(times, **kw)

    # -- logging ----------------------------------------------------------------

    def _mark_logged(self, runtime, msg: Message) -> None:
        chan = (msg.src, msg.dst)
        if msg.seq <= self._logged.get(chan, 0):
            return  # already durable via the sync write
        self._logged[chan] = msg.seq
        runtime.tracer.event(
            "proto.mlog.logged", src=msg.src, dst=msg.dst, seq=msg.seq
        )

    def send_extra(self, agent: SchemeAgent, msg: Message):
        return self._log_write(agent, msg) if msg.kind == KIND_APP else None

    def _log_write(self, agent: SchemeAgent, msg: Message):
        """Synchronous log flush inside the send path (charged to the
        sender), with the durable watermark advanced only when the write
        actually lands."""
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
            rt.tracer.event(
                "proto.mlog.degraded", src=msg.src, dst=msg.dst, seq=msg.seq
            )
            return
        rt.tracer.add("chk.messages_logged_sync")
        self._mark_logged(rt, msg)

    def _write_bytes(self, record: CheckpointRecord) -> int:
        # the send path already paid for the log write
        return record.write_bytes

    def _write_finished(self, agent: SchemeAgent, job: WriteJob) -> None:
        super()._write_finished(agent, job)
        # The committed record's annex is now durable too — it carries any
        # message whose sync log write degraded to optimistic.
        for msg in job.record.log_annex:
            self._mark_logged(agent.runtime, msg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MessageLoggingScheme {self.name} "
            f"times={self.times} skew={self.skew}>"
        )
