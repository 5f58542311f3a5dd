"""The synchronous round engine.

Executes the model of Section II of the paper:

* In round ``r`` every *active* alive node runs its protocol callback with
  the messages delivered to it this round, and queues outgoing messages.
* Per ordered edge, one queued message is placed on the wire per round
  (CONGEST); further messages on the same edge wait in FIFO order.
* The adversary then chooses which faulty nodes crash *in this round*; an
  adversary-chosen subset of a crashing node's wire messages is lost, the
  rest are delivered.  A crashed node is inactive forever after (its
  queued-but-untransmitted messages are discarded).
* Wire messages are delivered at the start of round ``r + 1``.

The engine never iterates over the ``n^2`` edges — the complete topology
is implicit and only materialised edges (actual sends) cost work, which is
what makes simulating sublinear-message protocols on large ``n`` cheap.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import BudgetExceeded, SimulationError
from ..faults.adversary import Adversary, FaultLedger
from ..obs.timing import (
    NULL_TIMERS,
    PHASE_CRASH,
    PHASE_DELIVER,
    PHASE_STEP,
    PHASE_TRANSMIT,
    PhaseTimers,
)
from ..params import CongestBudget
from ..rng import RngFactory
from ..types import Knowledge, NodeId, Round
from .delivery import SYNCHRONOUS, DeliverySchedule
from .message import Delivery, Envelope, Message
from .metrics import Metrics
from .node import NEVER, Context, Protocol
from .trace import Trace, TraceEvent, new_event

#: Safety valve: a run may never execute more rounds than this.
HARD_MAX_ROUNDS = 1_000_000


class PendingSenders:
    """The nodes whose queue dict is non-empty, in ascending-id order.

    A set for membership plus an order-preserving list consumed each round.
    Enqueues happen in ascending node order within a round (nodes step in
    id order), so the list is almost always already sorted; ``dirty``
    marks the rare out-of-order append and the round loop re-sorts only
    then, instead of ``sorted(set)`` every round.

    The contexts call :meth:`mark`.  The object holds no reference to the
    :class:`Network`, so a finished run is not a reference cycle and is
    freed without the cyclic collector.
    """

    __slots__ = ("members", "order", "dirty")

    def __init__(self) -> None:
        self.members: Set[NodeId] = set()
        self.order: List[NodeId] = []
        self.dirty = False

    def mark(self, src: NodeId) -> None:
        """Schedule ``src``, whose queue dict just became non-empty."""
        members = self.members
        if src not in members:
            members.add(src)
            order = self.order
            if order and src < order[-1]:
                self.dirty = True
            order.append(src)


@dataclass
class RunResult:
    """Everything observable after a run."""

    n: int
    protocols: Sequence[Protocol]
    metrics: Metrics
    trace: Optional[Trace]
    faulty: Set[NodeId]
    crashed: Dict[NodeId, Round]
    #: Last round the engine actually executed (<= ``horizon`` when the
    #: quiescence fast-forward cut the run short).
    rounds: Round
    #: The requested round count (the nominal schedule length).
    horizon: Round = 0
    #: Delay bound Δ of the run's delivery schedule (0 = synchronous).
    max_delay: int = 0

    @property
    def alive(self) -> List[NodeId]:
        """Nodes that had not crashed by the end of the run."""
        return [u for u in range(self.n) if u not in self.crashed]

    @property
    def nonfaulty(self) -> List[NodeId]:
        """Nodes outside the static faulty set."""
        return [u for u in range(self.n) if u not in self.faulty]

    def protocol(self, node: NodeId) -> Protocol:
        """The protocol instance that ran on ``node``."""
        return self.protocols[node]

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Wall-clock per engine phase (empty unless profiled)."""
        return self.metrics.phase_seconds


class Network:
    """A complete synchronous network of ``n`` nodes under crash faults."""

    def __init__(
        self,
        n: int,
        protocol_factory: Callable[[NodeId], Protocol],
        *,
        seed: int = 0,
        adversary: Optional[Adversary] = None,
        max_faulty: int = 0,
        inputs: Optional[Sequence[int]] = None,
        knowledge: Knowledge = Knowledge.KT0,
        congest: Optional[CongestBudget] = None,
        enforce_congest: bool = True,
        collect_trace: bool = False,
        message_budget: Optional[int] = None,
        budget_mode: str = "suppress",
        timers: Optional[PhaseTimers] = None,
        delivery: Optional[DeliverySchedule] = None,
    ) -> None:
        if n < 2:
            raise SimulationError(f"need at least 2 nodes, got {n}")
        self.n = n
        self._rngs = RngFactory(seed)
        self.adversary = adversary or Adversary()
        self.knowledge = knowledge
        self.congest = congest or CongestBudget(n)
        self.enforce_congest = enforce_congest
        self.metrics = Metrics()
        self.trace: Optional[Trace] = Trace() if collect_trace else None
        # Phase profiling is opt-in; the shared disabled instance keeps
        # the round loop's checks to one boolean per phase.
        self._timers = timers if timers is not None else NULL_TIMERS
        if budget_mode not in ("suppress", "raise"):
            raise SimulationError(f"unknown budget_mode {budget_mode!r}")
        self.message_budget = message_budget
        self.budget_mode = budget_mode
        self.budget_exhausted = False
        # Bounded-delay partial synchrony.  Δ=0 (the default) never calls
        # the schedule inside the round loop — ``_sync`` leaves the delivery
        # phase without a ``delay`` callback, so every message takes one
        # round.
        self.delivery = delivery if delivery is not None else SYNCHRONOUS
        self._sync = self.delivery.is_synchronous
        # In-flight delayed messages: arrival round -> envelopes, plus a
        # running total so quiescence checks cost one int comparison.
        self._in_flight: Dict[Round, List[Envelope]] = {}
        self._in_flight_total = 0

        # Per-sender FIFO queues: sender -> dst -> deque of Messages.  Each
        # node's context appends to its own dict and marks itself in
        # ``_pending`` when the dict goes from empty to non-empty.
        self._queues: List[Dict[NodeId, Deque[Message]]] = [dict() for _ in range(n)]
        self._pending = PendingSenders()
        enforce_kt0 = knowledge is Knowledge.KT0
        bits_cap = self.congest.bits_per_message if enforce_congest else math.inf
        self.contexts: List[Context] = [
            Context(
                u, n, self._rngs.node_stream(u), enforce_kt0, self._queues[u],
                bits_cap, self._pending.mark,
            )
            for u in range(n)
        ]
        if knowledge is Knowledge.KT1:
            # Nodes know all their neighbours' handles up-front — their
            # *other* n - 1 ports, consistent with KT0/``all_ports()``
            # semantics where ``_known`` never contains the node itself.
            for ctx in self.contexts:
                ctx._known.update(u for u in range(n) if u != ctx.node_id)
        self.protocols: List[Protocol] = [protocol_factory(u) for u in range(n)]

        self.ledger = FaultLedger(
            self.adversary, n, max_faulty, self._rngs.adversary_stream(), inputs
        )
        self.faulty = self.ledger.faulty
        self.crashed = self.ledger.crashed

        self._inboxes: Dict[NodeId, List[Delivery]] = {}
        # Wake schedule: a min-heap of (round, node) entries with lazy
        # deletion — an entry is live iff it matches the node's current
        # ``_next_wake``.  Every node starts awake in round 1.
        self._wake_heap: List[Tuple[Round, NodeId]] = [(1, u) for u in range(n)]

    # ------------------------------------------------------------------
    # Round machinery
    # ------------------------------------------------------------------

    def run(self, total_rounds: Round) -> RunResult:
        """Execute ``total_rounds`` synchronous rounds and finalize."""
        if total_rounds < 1:
            raise SimulationError(f"total_rounds must be >= 1, got {total_rounds}")
        if total_rounds > HARD_MAX_ROUNDS:
            raise SimulationError(
                f"total_rounds {total_rounds} exceeds hard cap {HARD_MAX_ROUNDS}"
            )

        for r in range(1, total_rounds + 1):
            if self._quiescent() and self.adversary.done(
                self.ledger.view(r, {}, self.protocols)
            ):
                # Nothing can happen in any later round; fast-forward.
                break
            self._execute_round(r)

        # Messages whose scheduled arrival lies past the horizon are still
        # in flight when the run ends.  They were sent, so the conservation
        # identity demands an accounted fate: they expire undelivered.
        # (A quiescence break never reaches here with in-flight messages —
        # a run is only quiescent when the delay queue is empty.)
        if self._in_flight_total:
            self._expire_in_flight()

        # Rounds execute contiguously from 1, so the executed count is also
        # the last executed round; the requested horizon is kept separately.
        self.metrics.rounds = self.metrics.rounds_executed
        self.metrics.horizon = total_rounds
        # on_stop sees the last round that actually executed — when the
        # quiescence fast-forward cut the run short, that is earlier than
        # the nominal horizon (which stays available as ``horizon``).
        last_executed = self.metrics.rounds_executed
        for u, protocol in enumerate(self.protocols):
            if u not in self.crashed:
                ctx = self.contexts[u]
                ctx.round = last_executed
                protocol.on_stop(ctx)
        if self._timers.enabled:
            for phase, seconds in self._timers.as_dict().items():
                self.metrics.phase_seconds[phase] = (
                    self.metrics.phase_seconds.get(phase, 0.0) + seconds
                )
        return RunResult(
            n=self.n,
            protocols=self.protocols,
            metrics=self.metrics,
            trace=self.trace,
            faulty=self.faulty,
            crashed=dict(self.crashed),
            rounds=self.metrics.rounds_executed,
            horizon=total_rounds,
            max_delay=self.delivery.max_delay,
        )

    def _entry_live(self, entry: Tuple[Round, NodeId]) -> bool:
        """True iff a wake-heap entry still matches its node's schedule."""
        round_, u = entry
        if u in self.crashed:
            return False
        ctx = self.contexts[u]
        return ctx._next_wake != NEVER and ctx._next_wake == round_

    def _quiescent(self) -> bool:
        """True when no future activity is possible without a new message.

        Delayed messages still in flight count as future activity: a run is
        only quiescent when the delay queue is empty, otherwise the
        fast-forward would skip their arrival rounds.
        """
        if self._pending.members or self._inboxes or self._in_flight_total:
            return False
        heap = self._wake_heap
        while heap and not self._entry_live(heap[0]):
            heapq.heappop(heap)
        return not heap

    def _execute_round(self, r: Round) -> None:
        self.metrics.begin_round()
        # Delayed messages scheduled to arrive this round join the inbox
        # map *before* the swap, after the synchronous (one-round) traffic
        # already deposited by round r - 1's delivery phase — so a delayed
        # arrival also wakes an idle receiver, exactly like a regular one.
        if self._in_flight_total:
            arrivals = self._in_flight.pop(r, None)
            if arrivals:
                self._in_flight_total -= len(arrivals)
                self._absorb_arrivals(arrivals, r)
        inboxes = self._inboxes
        self._inboxes = {}
        crashed = self.crashed
        contexts = self.contexts
        protocols = self.protocols
        # Profiling: one boolean gate per phase boundary when disabled
        # (the no-op path), five perf_counter reads per round when on.
        timers = self._timers
        profiling = timers.enabled
        if profiling:
            _perf = time.perf_counter
            _mark = _perf()

        # 1. Protocol steps for active alive nodes (scheduled wakes plus
        # nodes with deliveries).  Heap pops come out ordered by
        # (round, node) and every live popped entry has round == r (rounds
        # execute contiguously, so older entries were consumed earlier),
        # which makes ``due`` ascending by construction — only the
        # delivery-woken nodes outside it need sorting.
        heap = self._wake_heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        entry_live = self._entry_live
        due: List[NodeId] = []
        while heap and heap[0][0] <= r:
            entry = heappop(heap)
            if entry_live(entry) and (not due or due[-1] != entry[1]):
                # The duplicate guard matters for protocols that are woken
                # by deliveries mid-wait and re-arm the same wake_at
                # boundary: each such invocation pushes another (round,
                # node) entry, and all of them are live when the boundary
                # arrives.  Without the guard the node would step several
                # times in one round, re-reading the same inbox.  Ordered
                # pops put duplicates adjacently, so checking the tail of
                # ``due`` is enough.
                due.append(entry[1])
        if inboxes:
            due_set = set(due)
            # A delivery wakes an idle receiver but never a halted one:
            # halt() is permanent, so resurrecting the node here would
            # reset its wake below and spin it for the rest of the run.
            extra = [
                u
                for u in inboxes
                if u not in due_set
                and u not in crashed
                and not contexts[u]._halted
            ]
            if extra:
                extra.sort()
                due = list(heapq.merge(due, extra))
        for u in due:
            ctx = contexts[u]
            inbox = inboxes.get(u) or []
            ctx.round = r
            ctx._next_wake = r + 1  # stay active by default
            if inbox:
                known_add = ctx._known.add
                for delivery in inbox:
                    known_add(delivery.sender)
            protocol = protocols[u]
            if r == 1:
                protocol.on_start(ctx)
            protocol.on_round(ctx, inbox)
            next_wake = ctx._next_wake
            if next_wake != NEVER:
                heappush(heap, (next_wake, u))
        if profiling:
            _now = _perf()
            timers.add(PHASE_STEP, _now - _mark)
            _mark = _now

        # 2. Wire transmission: one queued message per ordered edge.
        #
        # The pending order is consumed in ascending-id order (re-sorted
        # only after an out-of-order enqueue) and rebuilt with the senders
        # that still hold a backlog, so stale entries never accumulate.
        pending_senders = self._pending
        order = pending_senders.order
        if pending_senders.dirty:
            order.sort()
            pending_senders.dirty = False
        pending = pending_senders.members
        all_queues = self._queues
        track_outboxes = self.adversary.dynamic_selection
        faulty_alive = self.ledger.alive
        metrics = self.metrics
        # Traced runs append event tuples straight to the trace's list.
        record = self.trace.events.append if self.trace is not None else None
        budget = self.message_budget
        # Send accounting is batched per sender: one counter update per
        # sender instead of one per message.  The budget check adds the
        # sender's not-yet-counted sends, so it sees the same running
        # total a per-message count would.
        per_kind = metrics.per_kind_messages
        per_node = metrics.per_node_sent
        per_round = metrics.per_round_messages
        wire: List[Envelope] = []
        outboxes: Dict[NodeId, List[Envelope]] = {}
        still_pending: List[NodeId] = []
        for u in order:
            if u not in pending or u in crashed:
                continue
            queues = all_queues[u]
            sent: List[Envelope] = []
            emptied: List[NodeId] = []
            bits_total = 0
            for dst, queue in queues.items():
                message = queue.popleft()
                if not queue:
                    emptied.append(dst)
                if budget is not None and metrics.messages_sent + len(sent) >= budget:
                    # The suppress mode models "an algorithm that sends at
                    # most B messages" for the lower-bound experiments
                    # (Theorems 4.2/5.2): once the global budget is spent,
                    # no further message leaves any node.
                    self.budget_exhausted = True
                    if self.budget_mode == "raise":
                        raise BudgetExceeded(
                            f"message budget {budget} exhausted in round {r}"
                        )
                    continue
                envelope = Envelope(u, dst, message, r)
                sent.append(envelope)
                bits_total += message.bits
                kind = message.kind
                per_kind[kind] += 1
                if record is not None:
                    record(new_event(TraceEvent, (r, "send", u, dst, kind, None)))
            for dst in emptied:
                del queues[dst]
            if queues:
                still_pending.append(u)
            else:
                pending.discard(u)
            if sent:
                count = len(sent)
                metrics.messages_sent += count
                metrics.bits_sent += bits_total
                per_node[u] = per_node.get(u, 0) + count
                per_round[-1] += count
                wire.extend(sent)
                if track_outboxes or u in faulty_alive:
                    outboxes[u] = sent
        pending_senders.order = still_pending
        if profiling:
            _now = _perf()
            timers.add(PHASE_TRANSMIT, _now - _mark)
            _mark = _now

        # 3. Adversary crashes.
        ledger = self.ledger
        view = ledger.view(r, outboxes, protocols)
        orders = self.adversary.plan_round(view, ledger.rng)
        # CONGEST guarantees (src, dst) uniquely identifies a wire message
        # within a round, so drops can be keyed by edge.
        dropped: Set[Tuple[NodeId, NodeId]] = set()
        for victim, order in ledger.crash(orders, r):
            self.metrics.record_crash()
            if record is not None:
                record(new_event(TraceEvent, (r, "crash", victim, None, None, None)))
            # Discard untransmitted queue content of the crashed node.
            self._queues[victim].clear()
            pending.discard(victim)
            for envelope in outboxes.get(victim, []):
                if not order.keep(envelope):
                    dropped.add((envelope.sender, envelope.dst))
        if profiling:
            _now = _perf()
            timers.add(PHASE_CRASH, _now - _mark)
            _mark = _now

        # 4. Delivery scheduling for round r + 1.  The envelope itself is
        # what the receiver gets, stamped with ``round_received``; with
        # tracing on, the deliver event records the same round, so the
        # validator checks the real latency.
        #
        # Under a Δ>0 schedule the adversary may hold any surviving wire
        # message extra rounds: those go to the in-flight queue and are
        # absorbed at the top of their arrival round instead.  Under Δ=0
        # ``delay`` is None and the schedule is never consulted.
        new_inboxes = self._inboxes
        next_round = r + 1
        delay = None if self._sync else self.delivery.delay
        max_extra = self.delivery.max_delay
        in_flight = self._in_flight
        delivered = 0
        expired = 0
        for envelope in wire:
            dst = envelope.dst
            if dropped and (envelope.sender, dst) in dropped:
                metrics.record_drop()
                if record is not None:
                    record(new_event(TraceEvent, (
                        r, "drop", envelope.sender, dst, envelope.kind, None
                    )))
                continue
            if delay is not None:
                extra = delay(envelope)
                if extra > 0:
                    # Held in flight; its fate (deliver or expire) is
                    # resolved when the arrival round begins.  The bound is
                    # clamped so a buggy schedule cannot exceed Δ.
                    if extra > max_extra:
                        extra = max_extra
                    arrival = next_round + extra
                    bucket = in_flight.get(arrival)
                    if bucket is None:
                        in_flight[arrival] = [envelope]
                    else:
                        bucket.append(envelope)
                    self._in_flight_total += 1
                    continue
            if dst in crashed:
                # Receiver is dead: the message expires.  It still counts
                # as sent (the paper's measure), so conservation demands it
                # be accounted: sent == delivered + dropped + expired.
                expired += 1
                if record is not None:
                    record(new_event(TraceEvent, (
                        r, "expire", envelope.sender, dst, envelope.kind, None
                    )))
                continue
            delivered += 1
            envelope.round_received = next_round
            if record is not None:
                record(new_event(TraceEvent, (
                    r, "deliver", envelope.sender, dst, envelope.kind, next_round
                )))
            inbox = new_inboxes.get(dst)
            if inbox is None:
                new_inboxes[dst] = [envelope]
            else:
                inbox.append(envelope)
        if delivered:
            metrics.delivery_latency[1] += delivered
        metrics.messages_delivered += delivered
        metrics.messages_expired += expired
        if profiling:
            timers.add(PHASE_DELIVER, _perf() - _mark)

    def _absorb_arrivals(self, arrivals: List[Envelope], r: Round) -> None:
        """Resolve delayed messages whose arrival round is ``r``.

        Runs before the round's inbox swap, so arrivals land in the same
        inbox map as the synchronous traffic deposited by round ``r - 1``
        and wake idle receivers identically.  A receiver that crashed while
        the message was in flight expires it here (checked at arrival, not
        at send — the crash may postdate the send round).
        """
        metrics = self.metrics
        record = self.trace.events.append if self.trace is not None else None
        crashed = self.crashed
        inboxes = self._inboxes
        latency = metrics.delivery_latency
        delivered = 0
        expired = 0
        for envelope in arrivals:
            dst = envelope.dst
            if dst in crashed:
                expired += 1
                if record is not None:
                    record(new_event(TraceEvent, (
                        envelope.round_sent, "expire", envelope.sender, dst,
                        envelope.kind, r,
                    )))
                continue
            delivered += 1
            latency[r - envelope.round_sent] += 1
            envelope.round_received = r
            if record is not None:
                record(new_event(TraceEvent, (
                    envelope.round_sent, "deliver", envelope.sender, dst,
                    envelope.kind, r,
                )))
            inbox = inboxes.get(dst)
            if inbox is None:
                inboxes[dst] = [envelope]
            else:
                inbox.append(envelope)
        metrics.messages_delivered += delivered
        metrics.messages_expired += expired

    def _expire_in_flight(self) -> None:
        """Expire every message still in flight when the run ends."""
        metrics = self.metrics
        record = self.trace.events.append if self.trace is not None else None
        expired = 0
        for arrival in sorted(self._in_flight):
            for envelope in self._in_flight[arrival]:
                expired += 1
                if record is not None:
                    record(new_event(TraceEvent, (
                        envelope.round_sent, "expire", envelope.sender,
                        envelope.dst, envelope.kind, arrival,
                    )))
        self._in_flight.clear()
        self._in_flight_total = 0
        metrics.messages_expired += expired
