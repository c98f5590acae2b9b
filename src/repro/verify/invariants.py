"""The family-independent invariant checkers over a run's event stream.

The schemes, runtime and GC emit structured :class:`~repro.core.tracing.TraceEvent`
records; each checker replays that stream and reports violations. The
event vocabulary (``kind`` → fields) — the names are
:data:`~repro.core.tracing.EVENT_KINDS`. The analyzer's
``trace-conformance`` pass proves every one is emitted and that every
name an emitter or a checker uses is in it; it does not prove a kind is
consumed (``proto.cut_end`` feeds the timeline renderer, no checker):

=====================  =====================================================
``proto.request``      round, coordinator — 2PC initiation
``proto.cut``          rank, round, scheme — a rank captured its state
``proto.cut_end``      rank, round, blocked — the cut's application block
                       ended after ``blocked`` seconds (0.0: rank finished)
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
``resume.halt``        at — the run was halted to capture a durable line
=====================  =====================================================

The five checkers here audit every run, whatever its scheme. A protocol
family's own checkers live in its scheme module, beside the protocol
they audit, and its scheme class names them in ``CHECKERS``:
``coordinated_two_phase`` and ``staggered_write_mutex`` in
:mod:`repro.chklib.schemes.coordinated` (the 2PC round and the token
ring), ``cic_index_rule`` in :mod:`repro.chklib.schemes.cic`
(``proto.cic.*``) and ``msglog_replay_bounds`` in
:mod:`repro.chklib.schemes.msglog` (``proto.mlog.*``). The checker base
(:class:`~repro.core.tracing.Checker`) is in :mod:`repro.core.tracing`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..chklib.schemes.registry import scheme_class
from ..core.tracing import Checker, RunMeta, TraceEvent, TraceViolation

__all__ = [
    "RunMeta",
    "TraceViolation",
    "MonotonicClock",
    "ChannelFifo",
    "CutMonotonic",
    "GcLineSafety",
    "LineSoundness",
    "default_checkers",
]


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


def default_checkers(meta: RunMeta) -> List[Checker]:
    """The full checker battery for one run: the family-independent
    core, plus the ``CHECKERS`` of the run's protocol family."""
    checkers: List[Checker] = [
        MonotonicClock(meta),
        ChannelFifo(meta),
        CutMonotonic(meta),
        GcLineSafety(meta),
        LineSoundness(meta),
    ]
    scheme = scheme_class(meta.klass)
    if scheme is not None:
        checkers.extend(cls(meta) for cls in scheme.CHECKERS)
    return checkers
