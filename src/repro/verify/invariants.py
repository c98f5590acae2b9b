"""Declarative invariant checkers over a run's event stream.

The schemes, runtime and GC emit structured :class:`~repro.core.tracing.TraceEvent`
records; each checker here replays that stream and reports violations. The
event vocabulary (``kind`` → fields):

=====================  =====================================================
``proto.request``      round, coordinator — 2PC initiation
``proto.cut``          rank, round, scheme — a rank captured its state
``proto.ack``          rank, round — a rank's commit vote (write + markers)
``proto.commit``       round, acks — coordinator's commit decision
``proto.commit_apply`` rank, round — a rank made its record permanent
``proto.commit_on_recovery`` rank, round — 2PC commit-on-recovery rule
``proto.abort_report`` rank, round — a rank's abort vote (write failed)
``proto.abort``        round — coordinator's abort decision
``proto.abort_apply``  rank, round — rank-local round cancellation
``proto.token_pass``   round, src, dst — staggering token hand-off
``proto.write_begin``  rank, round, scheme — checkpoint stable write starts
``proto.write_end``    rank, round, ok — … finished (ok=False: retries
                       exhausted)
``proto.local_commit`` rank, index — independent: written checkpoint stable
``proto.cic.forced``   rank, index, had, src, rule — CIC index rule fired:
                       the rank owes a forced checkpoint at ``index``
``proto.cic.promote``  rank, index, base, src — FDAS: checkpoint ``base``
                       re-labelled to also cover ``index`` (nothing sent)
``proto.mlog.logged``  src, dst, seq — message-log record reached stable
                       storage (sync send-path write or annex flush)
``proto.mlog.degraded`` src, dst, seq — the sync log write failed; the
                       message goes out logged only in the volatile log
``msg.send``           src, dst, seq, epoch, gen — application send
``msg.deliver``        src, dst, seq, epoch, gen — accepted app delivery
``recover.crash``      gen, failed — a failure took the machine down
``recover.quarantine`` rank, index, cause — recovery excluded a checkpoint
                       (failed checksum, or unreadable after retries)
``recover.line``       gen, indices, klass, logging, consistent,
                       sent, consumed — the restored recovery line
``recover.replay``     gen, count — in-transit messages re-injected
``gc.run``             line, protected — GC pass over the store
``gc.discard``         rank, index — GC removed one checkpoint
``policy.decide``      policy, rank, shot, at [, interval, lo, hi] — a
                       checkpoint policy scheduled the next initiation
``policy.adapt``       policy, rank, direction, interval, lo, hi, cause,
                       observed — an adaptive policy changed its interval
``resume.halt``        at — the run was halted to capture a durable line
=====================  =====================================================

Checkers are fed events in stream order via :meth:`Checker.on_event` and
report accumulated :class:`TraceViolation`s from :meth:`Checker.finish`.
They are deliberately *independent re-implementations* of the conditions
the runtime already enforces inline — the point is cross-checking the
implementation, not reusing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.tracing import TraceEvent

__all__ = [
    "RunMeta",
    "TraceViolation",
    "Checker",
    "MonotonicClock",
    "ChannelFifo",
    "CutMonotonic",
    "CoordinatedTwoPhase",
    "StaggeredWriteMutex",
    "GcLineSafety",
    "LineSoundness",
    "PolicyAdaptation",
    "CicIndexRule",
    "MsglogReplayBounds",
    "default_checkers",
]


@dataclass(frozen=True)
class RunMeta:
    """What the checkers need to know about the run they are auditing."""

    n_ranks: int
    scheme: str = "none"  #: scheme name (coord_nbms, indep_m, …)
    klass: str = "none"  #: "coordinated" | "independent" | "cic" | "msglog" | "none"
    staggered: bool = False
    logging: bool = False
    #: stable-storage shard count: staggering holds mutual exclusion *per
    #: server* (S independent rings), so the write-mutex checker groups
    #: writers by their shard (block sharding, ``rank * S // n_ranks``).
    storage_servers: int = 1


@dataclass
class TraceViolation:
    """One violated trace invariant."""

    invariant: str
    message: str
    time: float
    event_index: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceViolation {self.invariant} t={self.time:.6f}: {self.message}>"


class Checker:
    """Base class: accumulate violations while fed the stream."""

    name = "checker"

    #: the only trace-event kinds the audit subscribes this checker to
    #: (``("*",)``: every event), so it must name every kind ``on_event``
    #: reads. Cross-checked against the emission sites by the analyzer's
    #: trace-conformance pass: a subscription nothing emits fails analysis.
    consumes: Tuple[str, ...] = ()
    #: the protocol family whose runs this checker audits (None: every run)
    klass: Optional[str] = None

    def __init__(self, meta: RunMeta) -> None:
        self.meta = meta
        self.violations: List[TraceViolation] = []
        self._index = -1
        #: time of the stream's latest event of any kind, consumed or not
        #: — what :meth:`finish` stamps end-of-stream violations with.
        self._now = 0.0

    def feed(self, index: int, ev: TraceEvent) -> None:
        """Show this checker the stream's event number *index* — its sink."""
        self._index = index
        self._now = ev.time
        self.on_event(ev)

    def flag(self, message: str, time: float) -> None:
        self.violations.append(
            TraceViolation(
                invariant=self.name,
                message=message,
                time=time,
                event_index=self._index,
            )
        )

    # -- overridables --------------------------------------------------------

    def on_event(self, ev: TraceEvent) -> None:
        raise NotImplementedError

    def finish(self) -> List[TraceViolation]:
        return self.violations


class MonotonicClock(Checker):
    """Event timestamps never decrease: the simulated clock is monotone."""

    name = "monotonic_clock"
    consumes = ("*",)

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        self._last = float("-inf")

    def on_event(self, ev: TraceEvent) -> None:
        if ev.time < self._last:
            self.flag(
                f"clock moved backwards: {ev.kind} at {ev.time} after {self._last}",
                ev.time,
            )
        self._last = max(self._last, ev.time)


class ChannelFifo(Checker):
    """Per-channel FIFO delivery within each generation.

    Within one generation, sends on a channel carry strictly increasing
    sequence numbers, accepted deliveries arrive in strictly increasing
    sequence order, and nothing is delivered that was never sent — either
    in this generation or re-injected from a checkpoint's channel state
    (replayed messages keep their pre-crash sequence numbers).
    """

    name = "channel_fifo"
    consumes = ("msg.send", "msg.deliver")

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        self._sent: Dict[Tuple[int, int, int], int] = {}  #: (gen,src,dst) -> seq
        self._delivered: Dict[Tuple[int, int, int], int] = {}
        #: highest seq ever put on a channel across generations — a replayed
        #: or re-executed message may reuse one of these, never exceed them+1.
        self._channel_high: Dict[Tuple[int, int], int] = {}

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "msg.send":
            gen, src, dst, seq = ev["gen"], ev["src"], ev["dst"], ev["seq"]
            key = (gen, src, dst)
            last = self._sent.get(key, 0)
            if seq <= last:
                self.flag(
                    f"send {src}->{dst} gen={gen} "
                    f"seq={seq} not increasing (last {last})",
                    ev.time,
                )
            self._sent[key] = max(last, seq)
            chan = (src, dst)
            self._channel_high[chan] = max(self._channel_high.get(chan, 0), seq)
        elif ev.kind == "msg.deliver":
            gen, src, dst, seq = ev["gen"], ev["src"], ev["dst"], ev["seq"]
            key = (gen, src, dst)
            last = self._delivered.get(key, 0)
            if seq <= last:
                self.flag(
                    f"delivery {src}->{dst} gen={gen} "
                    f"seq={seq} out of order (last {last})",
                    ev.time,
                )
            self._delivered[key] = max(last, seq)
            high = self._channel_high.get((src, dst), 0)
            if seq > high:
                self.flag(
                    f"delivery {src}->{dst} seq={seq} was never "
                    f"sent (channel high {high})",
                    ev.time,
                )


class CutMonotonic(Checker):
    """Per-rank checkpoint indices advance strictly, rewinding only at a
    recovery (to the restored line's index)."""

    name = "cut_monotonic"
    consumes = ("proto.cut", "recover.line")

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        self._epoch: Dict[int, int] = {r: 0 for r in range(meta.n_ranks)}

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "proto.cut":
            rank, n = ev["rank"], ev["round"]
            if n <= self._epoch.get(rank, 0):
                self.flag(
                    f"rank {rank} cut round {n} <= current epoch "
                    f"{self._epoch.get(rank, 0)}",
                    ev.time,
                )
            self._epoch[rank] = max(self._epoch.get(rank, 0), n)
        elif ev.kind == "recover.line":
            for rank, idx in dict(ev["indices"]).items():
                self._epoch[rank] = idx


class CoordinatedTwoPhase(Checker):
    """The 2PC commit rules, re-derived from the event stream:

    * a commit decision for round *n* requires an ack from **every** rank —
      audited against the decision's own ``acks`` evidence (the votes the
      coordinator actually held), not just the votes cast somewhere in the
      stream, so a premature-quorum coordinator is caught even on runs
      where the missing vote was merely still on the wire;
    * every ack the decision cites must actually have been cast;
    * a rank acks a round only after its stable write for that round
      ended ``ok`` (since the last recovery);
    * no commit decision (or apply) for a round with an abort vote;
    * no round may see both a commit and an abort decision;
    * commit-on-recovery is legal only for a round whose commit decision
      was broadcast before the crash.
    """

    name = "coordinated_two_phase"
    klass = "coordinated"
    consumes = (
        "proto.write_end",
        "proto.ack",
        "proto.abort_report",
        "proto.commit",
        "proto.abort",
        "proto.commit_apply",
        "proto.commit_on_recovery",
        "recover.line",
    )

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        #: (rank, round) whose write ended ok since the last recovery
        self._written: Set[Tuple[int, int]] = set()
        self._acks: Dict[int, Set[int]] = {}
        self._abort_votes: Dict[int, Set[int]] = {}
        self._committed: Set[int] = set()
        self._aborted: Set[int] = set()

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "proto.write_end":
            if ev["ok"]:
                self._written.add((ev["rank"], ev["round"]))
        elif ev.kind == "recover.line":
            self._written.clear()
        elif ev.kind == "proto.ack":
            if (ev["rank"], ev["round"]) not in self._written:
                self.flag(
                    f"rank {ev['rank']} acked round {ev['round']} before "
                    f"its write ended",
                    ev.time,
                )
            self._acks.setdefault(ev["round"], set()).add(ev["rank"])
        elif ev.kind == "proto.abort_report":
            self._abort_votes.setdefault(ev["round"], set()).add(ev["rank"])
        elif ev.kind == "proto.commit":
            n = ev["round"]
            self._committed.add(n)
            cited = ev.get("acks")
            acks = set(cited) if cited is not None else self._acks.get(n, set())
            if acks != set(range(self.meta.n_ranks)):
                self.flag(
                    f"round {n} committed with acks {sorted(acks)} "
                    f"(need all {self.meta.n_ranks} ranks)",
                    ev.time,
                )
            if cited is not None:
                uncast = set(cited) - self._acks.get(n, set())
                if uncast:
                    self.flag(
                        f"round {n} commit cites ack(s) from {sorted(uncast)} "
                        f"that were never cast",
                        ev.time,
                    )
            if n in self._abort_votes:
                self.flag(
                    f"round {n} committed after abort vote(s) from "
                    f"{sorted(self._abort_votes[n])}",
                    ev.time,
                )
            if n in self._aborted:
                self.flag(f"round {n} committed after an abort decision", ev.time)
        elif ev.kind == "proto.abort":
            n = ev["round"]
            self._aborted.add(n)
            if n in self._committed:
                self.flag(f"round {n} aborted after a commit decision", ev.time)
        elif ev.kind == "proto.commit_apply":
            n = ev["round"]
            if n not in self._committed:
                self.flag(
                    f"rank {ev['rank']} applied commit for round {n} "
                    f"without a commit decision",
                    ev.time,
                )
            if n in self._abort_votes or n in self._aborted:
                self.flag(
                    f"rank {ev['rank']} applied commit for aborted round {n}",
                    ev.time,
                )
        elif ev.kind == "proto.commit_on_recovery":
            n = ev["round"]
            if n not in self._committed:
                self.flag(
                    f"commit-on-recovery of round {n} that was never "
                    f"decided committed before the crash",
                    ev.time,
                )


class StaggeredWriteMutex(Checker):
    """Staggered variants: checkpoint writes of one round never overlap
    *on the same storage server* — the per-server token ring (NBMS/NBCS)
    / write slot (NBS) holds mutual exclusion on each shard's path. With
    one server (the paper's machine) this is the old global mutex; with S
    shards, up to S writers (one per shard) are legal concurrently."""

    name = "staggered_write_mutex"
    klass = "coordinated"
    consumes = ("proto.write_begin", "proto.write_end")

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        #: (round, server) -> rank currently writing on that shard
        self._open: Dict[tuple, int] = {}

    def _server_of(self, rank: int) -> int:
        return rank * self.meta.storage_servers // self.meta.n_ranks

    def on_event(self, ev: TraceEvent) -> None:
        if not self.meta.staggered:
            return
        if ev.kind == "proto.write_begin":
            n, rank = ev["round"], ev["rank"]
            key = (n, self._server_of(rank))
            if key in self._open:
                self.flag(
                    f"rank {rank} began its round-{n} write while rank "
                    f"{self._open[key]} was still writing to server "
                    f"{key[1]} (staggering broken)",
                    ev.time,
                )
            self._open[key] = rank
        elif ev.kind == "proto.write_end":
            self._open.pop((ev["round"], self._server_of(ev["rank"])), None)


class GcLineSafety(Checker):
    """Garbage collection never deletes a recovery-line member.

    Two independent checks: (1) a ``gc.discard`` must not hit an index the
    same pass declared protected (the line and its incremental chains);
    (2) no later ``recover.line`` may restore an index that GC discarded
    earlier (indices are never reused, so this is exact).
    """

    name = "gc_line_safety"
    consumes = ("gc.run", "gc.discard", "recover.line")

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        self._protected: Dict[int, Tuple[int, ...]] = {}
        self._discarded: Set[Tuple[int, int]] = set()

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "gc.run":
            self._protected = {
                rank: tuple(keep) for rank, keep in dict(ev["protected"]).items()
            }
        elif ev.kind == "gc.discard":
            rank, idx = ev["rank"], ev["index"]
            if idx in self._protected.get(rank, ()):
                self.flag(
                    f"GC discarded protected checkpoint r{rank}#{idx} "
                    f"(line/chain member)",
                    ev.time,
                )
            self._discarded.add((rank, idx))
        elif ev.kind == "recover.line":
            for rank, idx in dict(ev["indices"]).items():
                if idx > 0 and (rank, idx) in self._discarded:
                    self.flag(
                        f"recovery line uses checkpoint r{rank}#{idx} that "
                        f"GC discarded earlier",
                        ev.time,
                    )


class LineSoundness(Checker):
    """Every restored recovery line satisfies the scheme's consistency-line
    definition, recomputed from the line's channel counters:

    * **coordinated** — single committed round: all ranks restore the same
      index (orphans tolerated under piecewise-deterministic replay);
    * **independent, no logging** — no orphans *and* transitless
      (``consumed == sent`` on every channel);
    * **independent + logging** — orphan-tolerant, but every in-transit
      message must have been replayed from the stable logs (the runtime
      raises if one is missing; we re-check the replay count).
    """

    name = "line_soundness"
    consumes = ("recover.replay", "recover.line")

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        #: in-transit message count implied by the last restored line's
        #: counters, awaiting the matching ``recover.replay`` event.
        self._expect_replay: Optional[int] = None

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "recover.replay":
            if (
                self._expect_replay is not None
                and ev["count"] != self._expect_replay
            ):
                self.flag(
                    f"recovery replayed {ev['count']} in-transit messages "
                    f"but the line's counters imply {self._expect_replay} "
                    f"(messages lost or duplicated across the line)",
                    ev.time,
                )
            self._expect_replay = None
            return
        if ev.kind != "recover.line":
            return
        indices = dict(ev["indices"])
        sent = {r: dict(v) for r, v in dict(ev["sent"]).items()}
        consumed = {r: dict(v) for r, v in dict(ev["consumed"]).items()}
        if not ev.get("consistent", True):
            self.flag("runtime flagged the restored line as unsound", ev.time)
        ranks = sorted(indices)
        self._expect_replay = sum(
            max(0, sent.get(p, {}).get(q, 0) - consumed.get(q, {}).get(p, 0))
            for p in ranks
            for q in ranks
            if p != q
        )
        if self.meta.klass == "coordinated":
            if len(set(indices.values())) != 1:
                self.flag(
                    f"coordinated line spans several rounds: {indices}", ev.time
                )
            return
        if self.meta.klass != "independent":
            return
        for p in ranks:
            for q in ranks:
                if p == q:
                    continue
                sent_pq = sent.get(p, {}).get(q, 0)
                cons_qp = consumed.get(q, {}).get(p, 0)
                if not self.meta.logging and cons_qp > sent_pq:
                    self.flag(
                        f"orphan across the line on channel {p}->{q}: "
                        f"consumed {cons_qp} > sent {sent_pq}",
                        ev.time,
                    )
                if not self.meta.logging and sent_pq != cons_qp:
                    self.flag(
                        f"unlogged independent line is not transitless on "
                        f"{p}->{q}: sent {sent_pq}, consumed {cons_qp}",
                        ev.time,
                    )


class PolicyAdaptation(Checker):
    """Checkpoint-policy decisions and adaptations are well-formed:

    * per rank, the decided initiation times (``policy.decide``'s ``at``)
      never move backwards — a policy that scheduled shot *k* at *t* may
      not schedule shot *k+1* before *t*;
    * an interval-based decision stays inside the policy's declared
      bounds (``lo <= interval <= hi`` when those fields are present);
    * an adaptation's ``direction`` is ``narrow`` or ``widen``, its new
      interval respects the bounds, and its ``cause`` is consistent with
      its evidence: a ``fault`` adaptation must cite ``observed > 0``
      faults, a ``quiet`` adaptation must widen.
    """

    name = "policy_adaptation"
    consumes = ("policy.decide", "policy.adapt")

    _EPS = 1e-9

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        self._last_at: Dict[int, float] = {}

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "policy.decide":
            rank, at = ev["rank"], ev["at"]
            last = self._last_at.get(rank)
            if last is not None and at < last - self._EPS:
                self.flag(
                    f"policy {ev['policy']} rank {rank} decided shot "
                    f"{ev['shot']} at {at} before the previous shot ({last})",
                    ev.time,
                )
            self._last_at[rank] = max(last if last is not None else at, at)
            self._check_bounds(ev)
        elif ev.kind == "policy.adapt":
            direction = ev["direction"]
            if direction not in ("narrow", "widen"):
                self.flag(
                    f"policy {ev['policy']} adapted in unknown direction "
                    f"{direction!r}",
                    ev.time,
                )
            cause = ev["cause"]
            if cause == "fault" and not ev["observed"] > 0:
                self.flag(
                    f"policy {ev['policy']} narrowed for cause=fault with "
                    f"no observed faults",
                    ev.time,
                )
            if cause == "quiet" and direction != "widen":
                self.flag(
                    f"policy {ev['policy']} adapted for cause=quiet but "
                    f"direction is {direction!r} (quiet periods widen)",
                    ev.time,
                )
            self._check_bounds(ev)

    def _check_bounds(self, ev: TraceEvent) -> None:
        interval = ev.get("interval")
        lo, hi = ev.get("lo"), ev.get("hi")
        if interval is None or lo is None or hi is None:
            return
        if not (lo - self._EPS <= interval <= hi + self._EPS):
            self.flag(
                f"policy {ev['policy']} interval {interval} escaped its "
                f"bounds [{lo}, {hi}]",
                ev.time,
            )


class CicIndexRule(Checker):
    """The CIC index rule, re-derived from the event stream.

    Mirrors the receiver's index (``proto.cut`` rounds, FDAS promotions,
    recovery-line resets) and its forced-index obligation, then audits
    every accepted delivery:

    * a message whose piggybacked index exceeds both the receiver's index
      and its standing obligation must trigger ``proto.cic.forced`` or
      ``proto.cic.promote`` *as part of that delivery* (the scheme hook
      runs synchronously) — and at an index at least the message's;
    * no basic checkpoint may land below a standing forced-index
      obligation (the deferred forced cut must *jump* to the obliged
      index, never undershoot it).
    """

    name = "cic_index_rule"
    klass = "cic"
    consumes = (
        "msg.deliver",
        "proto.cut",
        "proto.cic.forced",
        "proto.cic.promote",
        "recover.line",
    )

    def __init__(self, meta: RunMeta) -> None:
        super().__init__(meta)
        self._idx: Dict[int, int] = {r: 0 for r in range(meta.n_ranks)}
        self._obliged: Dict[int, int] = {}  #: rank -> outstanding forced index
        #: rank -> index of a delivery whose rule event has not appeared yet
        self._pending: Dict[int, int] = {}

    def _rule_never_fired(self, rank: int, time: float) -> None:
        pending = self._pending.pop(rank, None)
        if pending is not None:
            self.flag(
                f"rank {rank} consumed a message of interval index {pending} "
                f"above its own without a forced checkpoint",
                time,
            )

    def on_event(self, ev: TraceEvent) -> None:
        if ev.kind == "msg.deliver":
            dst, midx = ev["dst"], ev["epoch"]
            self._rule_never_fired(dst, ev.time)
            if midx > max(self._idx.get(dst, 0), self._obliged.get(dst, 0)):
                self._pending[dst] = midx
        elif ev.kind == "proto.cic.forced":
            rank, idx = ev["rank"], ev["index"]
            pending = self._pending.pop(rank, None)
            if pending is not None and idx < pending:
                self.flag(
                    f"rank {rank} forced index {idx} below the triggering "
                    f"message's index {pending}",
                    ev.time,
                )
            self._obliged[rank] = max(self._obliged.get(rank, 0), idx)
        elif ev.kind == "proto.cic.promote":
            rank, idx = ev["rank"], ev["index"]
            pending = self._pending.pop(rank, None)
            if pending is not None and idx < pending:
                self.flag(
                    f"rank {rank} promoted to index {idx} below the "
                    f"triggering message's index {pending}",
                    ev.time,
                )
            self._idx[rank] = idx
            if self._obliged.get(rank, 0) <= idx:
                self._obliged.pop(rank, None)
        elif ev.kind == "proto.cut":
            rank, n = ev["rank"], ev["round"]
            self._rule_never_fired(rank, ev.time)
            obliged = self._obliged.pop(rank, None)
            if obliged is not None and n < obliged:
                self.flag(
                    f"rank {rank} cut at index {n} below its forced-index "
                    f"obligation {obliged}",
                    ev.time,
                )
            self._idx[rank] = n
        elif ev.kind == "recover.line":
            for rank, idx in dict(ev["indices"]).items():
                self._idx[rank] = idx
            # rolled-away state: obligations and in-flight rule firings
            # died with the pre-crash generation.
            self._pending.clear()
            self._obliged.clear()

    def finish(self) -> List[TraceViolation]:
        for rank in sorted(self._pending):
            self._rule_never_fired(rank, self._now)
        return self.violations


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
    klass = "msglog"
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


def default_checkers(meta: RunMeta) -> List[Checker]:
    """The full checker battery for one run: the scheme-independent core,
    plus the registry's checkers for the run's protocol family."""
    from ..chklib.schemes.registry import REGISTRY

    checkers: List[Checker] = [
        MonotonicClock(meta),
        ChannelFifo(meta),
        CutMonotonic(meta),
        GcLineSafety(meta),
        LineSoundness(meta),
        PolicyAdaptation(meta),
    ]
    checkers.extend(
        cls(meta) for cls in REGISTRY.trace_checkers() if cls.klass == meta.klass
    )
    return checkers
