"""Coordinated checkpointing (the paper's `_NB`, `_NBM`, `_NBMS`).

Protocol (two-phase, coordinator-driven, non-blocking — the Silva & Silva
RDS'92 family, realised with epoch piggybacking plus explicit per-channel
markers, i.e. Chandy–Lamport channel-state recording):

1. the coordinator (rank 0) sends ``REQUEST(n)`` to every rank;
2. a process *cuts* at its next checkpoint point after learning of
   checkpoint *n* (via the request or via a piggybacked epoch on any
   application message): it captures its state, bumps its epoch to *n*,
   snapshots pre-cut messages still queued in its mailbox into the
   checkpoint's channel state, and sends ``MARKER(n)`` on every outgoing
   channel;
3. after its cut, every *delivered* application message with epoch < *n*
   is recorded into the checkpoint's channel state, per channel, until that
   channel's marker arrives (FIFO links make the marker a barrier);
4. a process acks to the coordinator once its state write has finished
   *and* all markers are in; the coordinator then broadcasts ``COMMIT(n)``,
   upon which everyone atomically discards checkpoint *n-1* — coordinated
   checkpointing never holds more than two checkpoints per process.

Variants (what the application blocks on at the cut — the ``capture``
mode the shared write path in :mod:`.base` implements — and whether the
background writes are staggered):

* ``Coord_NB``   — blocked for the full write to stable storage.
* ``Coord_NBM``  — blocked for a main-memory copy; a checkpointer thread
  streams the buffer to storage in the background.
* ``Coord_NBMS`` — as NBM, plus a token ring staggers the background
  writes so only one node uses the storage path at a time.
* ``Coord_NBS``  — ablation: staggering *without* memory checkpointing
  (the app blocks until the token arrives and the write completes) —
  demonstrates the paper's finding that staggering only pays together
  with main-memory checkpointing.

Orphan messages (an application message consumed by a not-yet-cut receiver
but sent post-cut) are tolerated: recovery relies on piecewise-deterministic
re-execution, and the re-sent copies are dropped by per-channel sequence
numbers. See DESIGN.md §5.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ...core.errors import SimulationError
from ...core.events import Event
from ...core.tracing import Checker, RunMeta, TraceEvent
from ...net.message import KIND_CONTROL, KIND_MARKER, Message
from ..storage_mgr import CheckpointRecord
from .base import Scheme, SchemeAgent, WriteJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime import CheckpointRuntime

__all__ = [
    "CoordinatedScheme",
    "CoordinatedAgent",
    "CoordinatedTwoPhase",
    "StaggeredWriteMutex",
]

CTL_REQUEST = "request"
CTL_ACK = "ack"
CTL_COMMIT = "commit"
CTL_TOKEN = "token"
#: a rank exhausted its write retries: the 2PC round cannot commit and is
#: cancelled everywhere (rank -> coordinator, then broadcast).
CTL_ABORT = "abort"


class _Round(WriteJob):
    """Per-agent state of one in-progress checkpoint."""

    __slots__ = ("markers_pending", "token_event", "write_done", "acked")

    def __init__(
        self, n: int, record: CheckpointRecord, nbytes: int, others: Set[int], engine
    ) -> None:
        super().__init__(n, record, nbytes)
        self.markers_pending = set(others)
        self.token_event: Event = Event(engine)
        self.write_done = False
        self.acked = False


class CoordinatedAgent(SchemeAgent):
    """Rank-local mechanics of the coordinated protocol."""

    #: In-flight round state — wiped by every recovery/restart, so none of
    #: it belongs in a durable line (see SchemeAgent.RESUME_FIELDS for
    #: what does travel).
    VOLATILE_FIELDS = (
        "round",
        "early_markers",
        "early_tokens",
        "aborted_rounds",
    )

    def __init__(self, scheme: "CoordinatedScheme", runtime, rank: int) -> None:
        super().__init__(scheme, runtime, rank)
        self.round: Optional[_Round] = None
        #: markers that arrived before this process cut for their round.
        self.early_markers: Dict[int, Set[int]] = {}
        #: staggering tokens that arrived before the cut.
        self.early_tokens: Set[int] = set()
        #: rounds cancelled by CTL_ABORT — never cut for these, even if the
        #: (slower) request arrives after the abort.
        self.aborted_rounds: Set[int] = set()


# -- trace invariants ------------------------------------------------------------


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


class CoordinatedScheme(Scheme):
    """Coordinator + agents for one coordinated variant."""

    klass = "coordinated"

    #: Everything but the engine-bound staggering state travels in the
    #: pickled scheme: ``_acks``/``_aborted`` must survive a halt so
    #: ``on_crash`` and the coordinator's bookkeeping resume
    #: bitwise-identically.
    VOLATILE_FIELDS = ("_write_slot", "_ring_next", "_ring_leader")

    CHECKERS = (CoordinatedTwoPhase, StaggeredWriteMutex)

    def __init__(
        self,
        times: Sequence[float],
        staggered: bool,
        name: str,
        capture: str = "blocking",
        coordinator_rank: int = 0,
        incremental: bool = False,
        full_every: int = 4,
        two_level: bool = False,
        marker_scope: str = "all",
    ) -> None:
        super().__init__(
            times,
            name,
            capture=capture,
            incremental=incremental,
            full_every=full_every,
            two_level=two_level,
        )
        self.staggered = bool(staggered)
        self.coordinator_rank = coordinator_rank
        #: which channels carry markers: "all" (every rank pair — the
        #: classic Chandy–Lamport closure, O(N²) markers per round) or
        #: "peers" (only the application's declared communication graph
        #: via ``app.comm_peers``, O(N·deg) — the tree/graph-limited
        #: marker distribution real large-scale systems use; falls back
        #: to "all" when the application declares no graph).
        if marker_scope not in ("all", "peers"):
            raise ValueError(f"unknown marker scope {marker_scope!r}")
        self.marker_scope = marker_scope
        self._next_n = 1
        #: initiations already fired — a resumed initiator skips this many
        #: times instead of re-requesting pre-halt rounds.
        self._initiated = 0
        self._acks: Dict[int, Set[int]] = {}
        #: rounds the coordinator has cancelled (stale acks are ignored).
        self._aborted: Set[int] = set()
        #: staggering for the blocking-write variant (NBS): a FIFO write
        #: slot granted in cut order. A ring token would deadlock here —
        #: with cuts deferred to iteration boundaries, the token's next hop
        #: can be a rank stalled at a recv on an already-blocked neighbour.
        #: One slot per storage server: ranks sharded onto different
        #: servers do not contend and write concurrently.
        self._write_slot = None
        #: per-server staggering rings (rank -> successor / ring leader),
        #: derived from the machine topology by ``install()``. One ring
        #: per storage server: staggering serialises the *path*, and with
        #: S shards there are S independent paths. The single-server ring
        #: reduces exactly to the legacy global token ring.
        self._ring_next: Optional[Dict[int, int]] = None
        self._ring_leader: Optional[Dict[int, int]] = None

    # -- named variants ------------------------------------------------------

    @classmethod
    def NB(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """Non-blocking protocol, blocking storage write."""
        return cls(times, staggered=False, name="coord_nb", capture="blocking", **kw)

    @classmethod
    def NBM(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """+ main-memory checkpointing."""
        return cls(times, staggered=False, name="coord_nbm", capture="memcopy", **kw)

    @classmethod
    def NBMS(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """+ main-memory checkpointing + staggered writes."""
        return cls(times, staggered=True, name="coord_nbms", capture="memcopy", **kw)

    @classmethod
    def NBS(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """Ablation: staggered writes without memory checkpointing."""
        return cls(times, staggered=True, name="coord_nbs", capture="blocking", **kw)

    @classmethod
    def NBC(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """Extension: copy-on-write capture, concurrent background writes."""
        return cls(times, staggered=False, name="coord_nbc", capture="cow", **kw)

    @classmethod
    def NBCS(cls, times: Sequence[float], **kw) -> "CoordinatedScheme":
        """Extension: copy-on-write capture + staggered writes."""
        return cls(times, staggered=True, name="coord_nbcs", capture="cow", **kw)

    # -- wiring ---------------------------------------------------------------

    def make_agent(self, runtime: "CheckpointRuntime", rank: int) -> CoordinatedAgent:
        return CoordinatedAgent(self, runtime, rank)

    def install(self, runtime: "CheckpointRuntime") -> None:
        if self.staggered and not self.memory_ckpt:
            from ...core.resources import Resource

            n_servers = runtime.cluster.storage.n_servers
            self._write_slot = {
                s: Resource(
                    runtime.engine,
                    capacity=1,
                    name=(
                        "stagger-slot" if n_servers == 1 else f"stagger-slot:{s}"
                    ),
                )
                for s in range(n_servers)
            }
        if self.staggered and self.memory_ckpt:
            self._build_rings(runtime)
        runtime.engine.process(self._initiator(runtime), name="ckpt-initiator")

    def _build_rings(self, runtime: "CheckpointRuntime") -> None:
        """One token ring per storage server, over the ranks sharded onto
        it. The ring containing the coordinator is led by the coordinator
        (it implicitly holds the token, as in the legacy global ring); any
        other ring is led by its smallest rank. With one server this is
        exactly the legacy ring: 0 → 1 → … → N-1, stop."""
        topo = runtime.cluster.topology
        n_servers = runtime.cluster.storage.n_servers
        self._ring_next = {}
        self._ring_leader = {}
        for group in topo.server_groups(n_servers):
            ranks = list(group)
            if not ranks:
                continue
            leader = (
                self.coordinator_rank
                if self.coordinator_rank in group
                else ranks[0]
            )
            for i, r in enumerate(ranks):
                self._ring_next[r] = ranks[(i + 1) % len(ranks)]
                self._ring_leader[r] = leader

    def _marker_targets(self, rt: "CheckpointRuntime", rank: int) -> List[int]:
        """The channels carrying this rank's markers (and, symmetrically,
        the markers this rank waits for). ``marker_scope="peers"`` narrows
        the closure to the application's declared communication graph."""
        if self.marker_scope == "peers":
            peers_fn = getattr(rt.app, "comm_peers", None)
            if peers_fn is not None:
                peers = peers_fn(rank, rt.n_ranks)
                if peers is not None:
                    return sorted({int(p) for p in peers} - {rank})
        return [r for r in range(rt.n_ranks) if r != rank]

    # pickling: the generic Scheme.__getstate__ nulls VOLATILE_FIELDS —
    # the staggering write slot holds an engine reference; install()
    # recreates it in the restarted runtime.

    def _initiator(self, runtime: "CheckpointRuntime"):
        """Coordinator-side: kick off a global checkpoint at each of
        ``times`` (skips those a resumed run already fired)."""
        engine = runtime.engine
        for t in self.times[self._initiated:]:
            if t > engine.now:
                yield engine.delay(t - engine.now)
            if runtime.finished:
                return
            self._initiated += 1
            self._initiate(runtime)

    def _initiate(self, runtime: "CheckpointRuntime") -> None:
        """Start one global checkpoint round (request broadcast)."""
        comm = runtime.comms[self.coordinator_rank]
        n = self._next_n
        self._next_n += 1
        runtime.tracer.add("chk.initiations")
        runtime.tracer.event(
            "proto.request", round=n, coordinator=self.coordinator_rank
        )
        # local "request" to the coordinator's own agent ...
        runtime.agents[self.coordinator_rank].set_pending(n)
        # ... and control messages to everyone else (sent in rank order,
        # claiming the coordinator's link sequentially).
        for dst in range(runtime.n_ranks):
            if dst != self.coordinator_rank:
                runtime.spawn(
                    comm.send_control(dst, KIND_CONTROL, type=CTL_REQUEST, n=n),
                    name=f"request:{n}->{dst}",
                )

    # -- agent hooks -----------------------------------------------------------

    def on_app_deliver(self, agent: CoordinatedAgent, msg: Message) -> None:
        # learn of a newer checkpoint via the piggybacked epoch
        if msg.epoch > agent.epoch:
            agent.set_pending(msg.epoch)
        # channel-state recording: pre-cut message delivered after our cut
        rnd = agent.round
        if (
            rnd is not None
            and msg.epoch < rnd.n
            and msg.src in rnd.markers_pending
        ):
            agent.runtime.store.record_channel_msg(rnd.record, agent.retain(msg))
            agent.runtime.tracer.add("chk.channel_msgs_recorded")

    def on_control(self, agent: CoordinatedAgent, msg: Message) -> None:
        if msg.kind == KIND_MARKER:
            self._on_marker(agent, msg)
            return
        ctype = msg.meta.get("type")
        n = msg.meta.get("n")
        if ctype == CTL_REQUEST:
            agent.set_pending(n)
        elif ctype == CTL_ACK:
            self._on_ack(agent, msg.src, n)
        elif ctype == CTL_COMMIT:
            self._apply_commit(agent, n)
        elif ctype == CTL_TOKEN:
            self._on_token(agent, n)
        elif ctype == CTL_ABORT:
            if agent.rank == self.coordinator_rank:
                self._on_abort(agent, n)
            else:
                self._apply_abort(agent, n)
        else:
            raise SimulationError(f"{self.name}: bad control message {msg!r}")

    def _on_marker(self, agent: CoordinatedAgent, msg: Message) -> None:
        n = msg.meta["n"]
        rnd = agent.round
        if rnd is not None and rnd.n == n:
            rnd.markers_pending.discard(msg.src)
            if not rnd.markers_pending:
                self._maybe_ack(agent, rnd)
            return
        if n > agent.epoch:
            # marker overtook the request: remember it and schedule the cut
            agent.early_markers.setdefault(n, set()).add(msg.src)
            agent.set_pending(n)
        # markers for already-completed rounds are stale noise; ignore.

    def _on_token(self, agent: CoordinatedAgent, n: int) -> None:
        rnd = agent.round
        if rnd is not None and rnd.n == n:
            if not rnd.token_event.triggered:
                rnd.token_event.succeed()
        elif n > agent.epoch or (rnd is None and n == agent.epoch):
            agent.early_tokens.add(n)
        # (token returning to the coordinator after its round closed: drop)

    # -- the cut -----------------------------------------------------------------

    def at_point(self, agent: CoordinatedAgent) -> Generator[Any, Any, None]:
        if agent.pending_cut is None or agent.pending_cut <= agent.epoch:
            return
        if agent.round is not None:
            # previous round still completing in the background; defer to
            # the next checkpoint point. Three quick rounds on sor-96,
            # ising-96 or nqueens-10 do hit this: set_pending keeps the
            # newest round, so a deferred one is superseded, coord_nbm and
            # coord_nbms commit 1 round of 3, and the NBMS ring wedges.
            return
        n = agent.pending_cut
        agent.pending_cut = None
        if n in agent.aborted_rounds:
            return  # the round was cancelled before this rank could cut
        yield from self._cut(agent, n)

    def _cut(self, agent: CoordinatedAgent, n: int) -> Generator[Any, Any, None]:
        rt = agent.runtime
        record = agent.capture(n)
        others = self._marker_targets(rt, agent.rank)
        rnd = _Round(n, record, self._write_bytes(record), others, rt.engine)
        rnd.markers_pending -= agent.early_markers.pop(n, set())
        agent.round = rnd
        agent.epoch = n
        rt.tracer.add("chk.cuts")
        rt.tracer.event("proto.cut", rank=agent.rank, round=n, scheme=self.name)
        # pre-cut messages still queued in the mailbox are in-transit state
        for m in agent.comm.mailbox.pending:
            if m.epoch < n:
                record.channel_msgs.append(agent.retain(m))
        # markers claim the outgoing link now (FIFO after pre-cut sends,
        # before any post-cut application sends) and fly in the background.
        for dst in others:
            rt.spawn(
                agent.comm.send_control(dst, KIND_MARKER, n=n),
                name=f"marker:{n}:{agent.rank}->{dst}",
            )
        if n in agent.early_tokens:
            agent.early_tokens.discard(n)
            rnd.token_event.succeed()
        yield from self.save(agent, rnd)

    # -- staggering ----------------------------------------------------------------

    def write_gate(self, agent: CoordinatedAgent, rnd: _Round) -> Optional[Event]:
        """NBMS/NBCS: a background writer waits for its ring's token. Ring
        leaders (the coordinator's ring, plus one rank per additional
        storage server) hold their ring's token implicitly and write
        first."""
        if (
            self.staggered
            and self.memory_ckpt
            and agent.rank != self._ring_leader[agent.rank]
        ):
            return rnd.token_event
        return None

    def blocking_write(self, agent: CoordinatedAgent, rnd: _Round):
        """NBS: blocked writes serialise on their server's FIFO slot,
        granted in cut order."""
        if not self.staggered:
            return (yield from super().blocking_write(agent, rnd))
        rt = agent.runtime
        slot = self._write_slot[rt.cluster.storage.server_index(agent.rank)]
        with slot.request() as req:
            yield req
            return (yield from super().blocking_write(agent, rnd))

    def _write_finished(self, agent: CoordinatedAgent, rnd: _Round) -> None:
        if rnd.aborted:
            return  # the round died while the write was in flight
        super()._write_finished(agent, rnd)
        rnd.write_done = True
        if self.staggered and self.memory_ckpt:  # NBS uses the FIFO slot
            nxt = self._ring_next[agent.rank]
            if nxt != self._ring_leader[agent.rank]:
                agent.runtime.tracer.event(
                    "proto.token_pass", round=rnd.n, src=agent.rank, dst=nxt
                )
                agent.runtime.spawn(
                    agent.comm.send_control(nxt, KIND_CONTROL, type=CTL_TOKEN, n=rnd.n),
                    name=f"token:{rnd.n}:{agent.rank}->{nxt}",
                )
        self._maybe_ack(agent, rnd)

    # -- round abort (a rank's write exhausted its retries) -----------------------

    def _write_failed(self, agent: CoordinatedAgent, rnd: _Round) -> None:
        """This rank cannot persist checkpoint *rnd.n*: the round can never
        gather all acks, so cancel it cleanly for everyone instead of
        wedging the protocol."""
        super()._write_failed(agent, rnd)
        rt = agent.runtime
        rt.tracer.event("proto.abort_report", rank=agent.rank, round=rnd.n)
        self._apply_abort(agent, rnd.n)
        if agent.rank == self.coordinator_rank:
            self._on_abort(agent, rnd.n)
        else:
            rt.spawn(
                agent.comm.send_control(
                    self.coordinator_rank, KIND_CONTROL, type=CTL_ABORT, n=rnd.n
                ),
                name=f"abort:{rnd.n}:r{agent.rank}",
            )

    def _on_abort(self, agent_at_coord: CoordinatedAgent, n: int) -> None:
        """Coordinator side: cancel round *n* once and broadcast the abort."""
        rt = agent_at_coord.runtime
        if n in self._aborted:
            return
        self._aborted.add(n)
        self._acks.pop(n, None)
        rt.tracer.add("chk.rounds_aborted")
        rt.tracer.event("proto.abort", round=n)
        comm = rt.comms[self.coordinator_rank]
        for dst in range(rt.n_ranks):
            if dst != self.coordinator_rank:
                rt.spawn(
                    comm.send_control(dst, KIND_CONTROL, type=CTL_ABORT, n=n),
                    name=f"abort:{n}->{dst}",
                )
        self._apply_abort(agent_at_coord, n)

    def _apply_abort(self, agent: CoordinatedAgent, n: int) -> None:
        """Rank-local cancellation of round *n* (idempotent)."""
        rt = agent.runtime
        if n not in agent.aborted_rounds:
            rt.tracer.event("proto.abort_apply", rank=agent.rank, round=n)
        agent.aborted_rounds.add(n)
        rnd = agent.round
        if rnd is not None and rnd.n == n:
            rnd.aborted = True
            if not rnd.token_event.triggered:
                # wake a staggered writer stuck waiting for a token that
                # will never come; it bails out on rnd.aborted
                rnd.token_event.succeed()
            agent.round = None
        agent.early_markers.pop(n, None)
        agent.early_tokens.discard(n)
        if agent.pending_cut is not None and agent.pending_cut <= n:
            agent.pending_cut = None
        try:
            if not rt.store.get(agent.rank, n).committed:
                rt.store.discard(agent.rank, n)
        except KeyError:
            pass
        if agent.inc is not None:
            # the incremental chain now has a hole at n; force the next
            # checkpoint to be a full one.
            agent.inc.reset()

    def _maybe_ack(self, agent: CoordinatedAgent, rnd: _Round) -> None:
        if rnd.aborted or rnd.acked or not rnd.write_done or rnd.markers_pending:
            return
        rnd.acked = True
        agent.round = None  # channel recording is complete
        rt = agent.runtime
        rt.tracer.event("proto.ack", rank=agent.rank, round=rnd.n)
        if agent.rank == self.coordinator_rank:
            self._on_ack(agent, agent.rank, rnd.n)
        else:
            rt.spawn(
                agent.comm.send_control(
                    self.coordinator_rank, KIND_CONTROL, type=CTL_ACK, n=rnd.n
                ),
                name=f"ack:{rnd.n}:r{agent.rank}",
            )

    # -- coordinator-side commit --------------------------------------------------

    def _on_ack(self, agent_at_coord: CoordinatedAgent, src: int, n: int) -> None:
        rt = agent_at_coord.runtime
        if n in self._aborted:
            return  # stale ack racing the abort broadcast
        acks = self._acks.setdefault(n, set())
        acks.add(src)
        if len(acks) < rt.n_ranks:
            return
        del self._acks[n]
        rt.tracer.event("proto.commit", round=n, acks=tuple(sorted(acks)))
        comm = rt.comms[self.coordinator_rank]
        for dst in range(rt.n_ranks):
            if dst != self.coordinator_rank:
                rt.spawn(
                    comm.send_control(dst, KIND_CONTROL, type=CTL_COMMIT, n=n),
                    name=f"commit:{n}->{dst}",
                )
        self._apply_commit(rt.agents[self.coordinator_rank], n)

    def _apply_commit(self, agent: CoordinatedAgent, n: int) -> None:
        rt = agent.runtime
        rt.tracer.event("proto.commit_apply", rank=agent.rank, round=n)
        rt.store.commit(agent.rank, n)
        # an incremental checkpoint needs its chain back to the last full
        # one; only records older than the chain base are disposable.
        keep_from = rt.store.chain_base(agent.rank, n)
        rt.store.discard_older_than(agent.rank, keep_from)
        rt.tracer.add("chk.commits")

    # -- recovery -------------------------------------------------------------------

    def recovery_line(self, runtime: "CheckpointRuntime") -> Dict[int, Any]:
        """The newest usable global checkpoint.

        A round *n* is usable when every rank holds a written, restorable
        (unquarantined, chain-intact) record *n* and at least one rank
        committed it: a processed COMMIT(n) proves the coordinator had all
        acks, hence everyone's write and markers finished — so tentative
        members are committed on the spot (2PC commit-on-recovery).
        Quarantined or missing records simply exclude their round, and the
        search falls back to the newest older committed line."""
        store = runtime.store
        common: Optional[Set[int]] = None
        committed_idx: Set[int] = set()
        for rank in range(runtime.n_ranks):
            ok = set()
            for rec in store.chain(rank):
                if rec.written_at is None or rec.quarantined:
                    continue
                if not store.chain_intact(rank, rec.index):
                    continue
                ok.add(rec.index)
                if rec.committed:
                    committed_idx.add(rec.index)
            common = ok if common is None else common & ok
        usable = {i for i in (common or set()) if i in committed_idx}
        if not usable:
            return {r: None for r in range(runtime.n_ranks)}
        n = max(usable)
        line: Dict[int, Any] = {}
        for r in range(runtime.n_ranks):
            rec = store.get(r, n)
            if not rec.committed:
                store.commit(r, n)
                runtime.tracer.add("chk.commit_on_recovery")
                runtime.tracer.event("proto.commit_on_recovery", rank=r, round=n)
            line[r] = rec
        return line

    def line_sound(self, runtime: "CheckpointRuntime", line, cut_line) -> bool:
        # a committed global round restores every rank to the *same* index
        # (orphan messages across it are tolerated: piecewise-deterministic
        # re-execution regenerates them and sequence numbers drop the dups)
        return len({cut.index for cut in cut_line.values()}) == 1

    def on_crash(self, runtime: "CheckpointRuntime") -> None:
        self._acks.clear()
        self._aborted.clear()

    def reset_agent(self, agent: SchemeAgent) -> None:
        assert isinstance(agent, CoordinatedAgent)
        agent.round = None
        agent.early_markers.clear()
        agent.early_tokens.clear()
        agent.aborted_rounds.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CoordinatedScheme {self.name} times={self.times}>"

