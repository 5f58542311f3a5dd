"""Fault-tolerant implicit leader election (paper, Section IV-A).

Protocol sketch (all sampling quantities from :class:`repro.params.Params`):

1. Every node draws a random *rank* in ``[1, n^4]`` (its ID) and becomes a
   **candidate** with probability ``6 log n / (alpha n)`` (Lemma 1).
2. Each candidate samples ``2 (n log n / alpha)^(1/2)`` **referees** and
   registers its rank with them; referees forward the rank lists back, so
   every candidate learns (w.h.p.) the ranks of all other candidates
   (Lemma 3: every candidate pair shares a non-faulty referee).
3. Iteratively (``Theta(log n/alpha)`` iterations of 4 rounds each):

   * each unresolved candidate *proposes* the minimum rank of its
     ``rankList`` (Step 1); a candidate proposing its own rank marks
     itself leader;
   * referees aggregate and forward the **maximum** proposed rank, with a
     flag saying whether that rank was proposed by its owner (Step 2);
   * candidates adopt an owner-confirmed maximum, echo it, or — when the
     maximum is unknown to them — prune their ``rankList`` and propose a
     higher rank next (Step 3);
   * a candidate whose proposal sees no progress for a full iteration
     concludes the proposed node crashed, removes the rank, and advances
     to the next minimum (Step 4).

The protocol converges on the largest rank that is ever self-proposed by a
node that stays alive long enough for one referee round-trip; each crash
can stall at most one iteration, and the committee has at most
``O(log n/alpha)`` members, hence the iteration budget.

Interpretation decisions beyond the paper's prose (see DESIGN.md §5):

* **Live-leader re-confirmation.**  A marked leader that observes an
  unflagged aggregate of its own rank (someone probing it) re-sends its
  confirmation.  Without this, a candidate that missed the original
  confirmation would time the leader's rank out and the network could
  elect two leaders.  The paper's "u doesn't respond" line refers to
  flagged (already-confirmed) aggregates, which we likewise do not answer.
* **Echo throttling.**  Candidates support/echo a given rank at most once
  (the paper sends each such message "in the next round" once); this keeps
  the message complexity at the Theorem 4.1 bound.
* **Empty-rankList fallback.**  If every known rank has been disproved, a
  candidate falls back to ``{own rank}``; this is unreachable in the
  w.h.p. regime but guarantees liveness in pathological executions.

Code layout: the candidate role (Steps 1, 3 and 4) is :class:`CandState`,
an automaton that sees no context.  Each round it takes the folded
LE_AGG maximum and returns the message batches it wants sent to its
referees and the round it wants to wake next.  Both engines run that one
automaton.  :class:`LeaderElectionProtocol` is the reference adapter: it
keeps the referee role (Steps 2 and 4), feeds LE_LIST ranks into the
automaton's ``rank_list``, and turns each batch into one ``ctx.send`` per
referee, in sample order.  The vec engine (:mod:`repro.sim.vec.election`)
drives the same automaton from its arrays.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..errors import ProtocolViolation
from ..params import Params
from ..sim.message import Delivery, Message
from ..sim.node import NEVER, Context, Protocol
from ..types import NodeState
from .ranks import draw_rank
from .schedule import LeaderElectionSchedule

MSG_RANK = "LE_RANK"  # candidate -> referee: (rank,)                 registration
MSG_LIST = "LE_LIST"  # referee -> candidate: (rank,)                 one known rank
MSG_PROPOSE = "LE_PROP"  # candidate -> referee: (sender_rank, rank)  Step 1
MSG_AGG = "LE_AGG"  # referee -> candidate: (owner_flag, rank)        Steps 2/4
MSG_CONFIRM = "LE_CONF"  # candidate -> referee: (sender_rank, rank)  Step 3


class CandState:
    """The candidate role of one committee member, free of any context.

    :meth:`invoke` runs one round of the role and returns its emit
    batches ``(kind, sender_rank, value)``: each is one message that goes
    to every referee of the candidate.  :attr:`next_wake` is the round the
    candidate wants to run next (``NEVER``: only when a message arrives).
    :attr:`rank_list` is the candidate's rankList.  It must be filled
    before the first :meth:`invoke`: the reference adapter starts it at
    ``{rank}`` and adds each LE_LIST rank, while the vec engine fills it
    from its delivered-ranks bitmap at the first PROPOSE round.
    """

    __slots__ = (
        "rank",
        "schedule",
        "rank_list",
        "proposed",
        "supported",
        "outstanding",
        "deadline",
        "marked",
        "confirmed",
        "leader_rank",
        "state",
        "round",
        "next_wake",
        "emits",
    )

    def __init__(self, rank: int, schedule: LeaderElectionSchedule) -> None:
        self.rank = rank
        self.schedule = schedule
        self.rank_list: Optional[Set[int]] = None
        self.proposed: Set[int] = set()
        self.supported: Set[int] = set()
        self.outstanding: Optional[int] = None
        self.deadline: Optional[int] = None
        self.marked = False
        self.confirmed = False
        self.leader_rank: Optional[int] = None
        self.state = NodeState.UNDECIDED
        self.round = 0
        #: Joining the committee schedules the first PROPOSE round.
        self.next_wake = schedule.iteration_start
        self.emits: List[Tuple[str, int, int]] = []

    def invoke(
        self, round_: int, agg: Optional[Tuple[int, bool]]
    ) -> List[Tuple[str, int, int]]:
        """Run the role for round ``round_``; return its emit batches.

        ``agg`` is the round's LE_AGG deliveries folded to ``(maximum
        rank, owner flag)``, the flag OR-ed over ties; ``None`` when none
        arrived.  A round emits at most one batch.
        """
        self.round = round_
        self.next_wake = round_ + 1  # the engines' default: stay active
        self.emits = []
        if agg is not None:
            self._handle_aggregate(agg[0], agg[1])
        self._act()
        return self.emits

    def on_stop(self, last_round: int) -> None:
        """Settle the outputs of an alive candidate at the end of the run."""
        self.round = last_round
        if self.leader_rank is None:
            # Paper: candidates agree on the minimum rank left in their
            # rankList at termination.
            self.leader_rank = min(self.rank_list) if self.rank_list else self.rank
        self.state = NodeState.ELECTED if self.marked else NodeState.NON_ELECTED

    def _handle_aggregate(self, pmax: int, owner: bool) -> None:
        """Step 3: react to the maximum aggregated rank of this round."""
        rank_list = self.rank_list
        assert rank_list is not None
        # Prune every rank strictly below the observed maximum (they can
        # no longer win); the paper prunes on every higher-rank receipt.
        if any(r < pmax for r in rank_list):
            self.rank_list = rank_list = {r for r in rank_list if r >= pmax}
        if self.marked and pmax > self.rank:
            # A higher rank displaced us; unmark.
            self.marked = False
            self.confirmed = False
            self.state = NodeState.UNDECIDED
            self.leader_rank = None

        if pmax == self.rank:
            if owner:
                # Our own confirmation came back: leadership established.
                self.marked = True
                self.confirmed = True
                self.state = NodeState.ELECTED
                self.leader_rank = self.rank
                self.outstanding = None
                self.deadline = None
            else:
                # Someone is probing our rank (their referees never saw our
                # confirmation): re-confirm so they can adopt instead of
                # timing us out.  [DESIGN.md §5: live-leader re-confirmation]
                self.marked = True
                self.state = NodeState.ELECTED
                self.leader_rank = self.rank
                self._send_confirmation()
            return

        if self.leader_rank is not None and self.confirmed and pmax < self.leader_rank:
            return  # stale echo of an already-beaten rank

        if owner:
            # The rank's owner itself proposed/confirmed it: adopt.
            previously_confirmed = self.confirmed and self.leader_rank == pmax
            self.leader_rank = pmax
            self.confirmed = True
            self.marked = False
            self.state = NodeState.UNDECIDED
            self.outstanding = None
            self.deadline = None
            if pmax not in self.supported and not previously_confirmed:
                # Paper: the adopter echoes the winner once, spreading it to
                # candidates whose referees missed the confirmation.
                self.supported.add(pmax)
                self.emits.append((MSG_CONFIRM, self.rank, pmax))
            return

        if pmax in rank_list:
            # Unconfirmed maximum we know about: support it (echo), then
            # await its owner's confirmation (Step 4 timeout otherwise).
            if self.confirmed and self.leader_rank == pmax:
                return
            self.confirmed = False
            self.leader_rank = pmax
            if self.outstanding != pmax:
                self.outstanding = pmax
                self.deadline = self.schedule.confirmation_deadline(self.round)
                self._wake_for_deadline()
            if pmax not in self.supported:
                # Echo throttling: support a rank at most once.
                self.supported.add(pmax)
                self.emits.append((MSG_CONFIRM, self.rank, pmax))
            return

        # Unknown maximum: distrust it; propose a higher rank of our own
        # list at the next opportunity (rankList is already pruned, and
        # ``_act`` runs right after this handler).
        if self.outstanding is not None and self.outstanding < pmax:
            self.outstanding = None
            self.deadline = None

    def _act(self) -> None:
        """Step 1/Step 4 driver: timeouts and new proposals."""
        round_ = self.round
        if round_ < self.schedule.iteration_start:
            # Pre-processing phase: just collect rank lists.
            self._wake_at(self.schedule.iteration_start)
            return

        if self.outstanding is not None and self.deadline is not None:
            if round_ >= self.deadline:
                # Step 4: the proposed/supported rank never got confirmed —
                # its owner is presumed crashed.  Drop it and move on.
                timed_out = self.outstanding
                self.outstanding = None
                self.deadline = None
                if timed_out == self.rank:
                    # Our own confirmation went unanswered; retry rather
                    # than disown our rank.
                    self._send_confirmation()
                else:
                    assert self.rank_list is not None
                    self.rank_list.discard(timed_out)
                    self.supported.discard(timed_out)
                    if self.leader_rank == timed_out and not self.confirmed:
                        self.leader_rank = None

        if self.confirmed:
            self.next_wake = NEVER
            return

        if self.outstanding is None:
            self._propose_next()

        self._wake_for_deadline()

    def _propose_next(self) -> None:
        """Step 1: propose the minimum unproposed rank of the rankList."""
        if not self.rank_list:
            # Liveness fallback (DESIGN.md §5): every known rank has been
            # disproved; fall back to our own.
            self.rank_list = {self.rank}
            self.proposed.clear()
        unproposed = [r for r in self.rank_list if r not in self.proposed]
        if not unproposed:
            # Everything was proposed already and nothing confirmed: probe
            # the smallest remaining rank again.
            self.proposed -= self.rank_list
            unproposed = sorted(self.rank_list)
        proposal = min(unproposed)
        self.proposed.add(proposal)
        self.outstanding = proposal
        self.deadline = self.schedule.confirmation_deadline(self.round)
        if proposal == self.rank:
            # Step 1: proposing our own rank marks us leader (tentatively,
            # until the confirmation echo arrives).
            self.marked = True
            self.state = NodeState.ELECTED
            self.leader_rank = self.rank
        self.emits.append((MSG_PROPOSE, self.rank, proposal))

    def _send_confirmation(self) -> None:
        """Send CONF(own, own): the owner (re-)asserts its leadership."""
        self.outstanding = self.rank
        self.deadline = self.schedule.confirmation_deadline(self.round)
        self.emits.append((MSG_CONFIRM, self.rank, self.rank))
        self._wake_for_deadline()

    def _wake_for_deadline(self) -> None:
        """Sleep until the confirmation deadline (or for good if none)."""
        if self.deadline is not None and self.deadline > self.round:
            self._wake_at(self.deadline)
        elif self.confirmed:
            self.next_wake = NEVER

    def _wake_at(self, round_: int) -> None:
        if round_ <= self.round:
            raise ProtocolViolation(
                f"wake_at({round_}) is not in the future (round {self.round})"
            )
        self.next_wake = round_


class LeaderElectionProtocol(Protocol):
    """One node's view of the Section IV-A protocol.

    Every node runs the same code; the candidate and referee roles are
    sub-states (a node can hold both).  The referee role lives here, the
    candidate role in a :class:`CandState` that this class adapts to the
    engine's context.  Outputs:

    * :attr:`state` — ELECTED / NON_ELECTED / UNDECIDED (implicit LE);
    * :attr:`leader_rank` — the rank this node believes won (candidates
      only; ``None`` for passive nodes);
    * :attr:`rank` — the node's own rank.
    """

    def __init__(self, node_id: int, params: Params, schedule: LeaderElectionSchedule) -> None:
        self.node_id = node_id
        self.params = params
        self.schedule = schedule

        self.rank: Optional[int] = None
        self.is_candidate = False
        self.state = NodeState.UNDECIDED
        self.leader_rank: Optional[int] = None

        # Candidate role: the automaton (``None`` off the committee) and
        # the referees it talks to.
        self._cand: Optional[CandState] = None
        self._referees: List[int] = []

        # Referee state.
        self._registered: dict = {}  # sender node -> announced rank

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.rank = self._draw_rank(ctx)
        if ctx.rng.random() < self.params.candidate_probability:
            self._become_candidate(ctx)
        else:
            ctx.idle()

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        cand = self._cand
        proposals = []  # (sender_rank, rank) seen as referee this round
        agg_best: Optional[int] = None
        agg_owner = False
        new_registrations = []

        for delivery in inbox:
            kind = delivery.kind
            if kind == MSG_RANK:
                new_registrations.append((delivery.sender, delivery.fields[0]))
            elif kind == MSG_LIST:
                # Only candidates registered a rank, so only they get lists.
                cand.rank_list.add(delivery.fields[0])  # type: ignore[union-attr]
            elif kind in (MSG_PROPOSE, MSG_CONFIRM):
                proposals.append(delivery.fields)
            elif kind == MSG_AGG:
                flag, rank = delivery.fields
                if agg_best is None or rank > agg_best:
                    agg_best, agg_owner = rank, bool(flag)
                elif rank == agg_best and flag:
                    agg_owner = True

        if new_registrations:
            self._referee_register(ctx, new_registrations)
        if proposals:
            self._referee_aggregate(ctx, proposals)
        if cand is None:
            ctx.idle()
            return
        emits = cand.invoke(
            ctx.round, None if agg_best is None else (agg_best, agg_owner)
        )
        for kind, sender_rank, value in emits:
            message = Message(kind, (sender_rank, value))
            for referee in self._referees:
                ctx.send(referee, message)
        self.state = cand.state
        self.leader_rank = cand.leader_rank
        if cand.next_wake == NEVER:
            ctx.idle()
        else:
            ctx.wake_at(cand.next_wake)

    def on_stop(self, ctx: Context) -> None:
        cand = self._cand
        if cand is not None:
            cand.on_stop(ctx.round)
            self.state = cand.state
            self.leader_rank = cand.leader_rank
            return
        if self.is_candidate:
            # Volunteered without joining through the coin (an
            # equivocator): its rankList holds at most its own rank.
            self.leader_rank = self.rank
        self.state = NodeState.NON_ELECTED

    def _draw_rank(self, ctx: Context) -> int:
        """Draw this node's rank (subclass hook — e.g. the leader-based
        agreement reduction encodes the input bit in the rank)."""
        return draw_rank(ctx.rng, self.params.n, self.params.rank_exponent)

    def _become_candidate(self, ctx: Context) -> None:
        """Join the committee: start the automaton, sample the referees and
        register this node's rank with them."""
        assert self.rank is not None
        self.is_candidate = True
        self._cand = CandState(self.rank, self.schedule)
        self._cand.rank_list = {self.rank}
        self._referees = ctx.sample_nodes(self.params.referee_count)
        announce = Message(MSG_RANK, (self.rank,))
        for referee in self._referees:
            ctx.send(referee, announce)
        ctx.wake_at(self.schedule.iteration_start)

    # ------------------------------------------------------------------
    # Referee role
    # ------------------------------------------------------------------

    def _referee_register(self, ctx: Context, arrivals: List[tuple]) -> None:
        """Record new candidates and exchange rank lists (pre-processing).

        Sends each existing candidate the new ranks, and each new candidate
        every other known rank, one rank per message (the engine's per-edge
        FIFO spreads them over rounds — CONGEST).
        """
        known_before = dict(self._registered)
        for sender, rank in arrivals:
            self._registered[sender] = rank
        cache: dict = {}

        def list_message(rank: int) -> Message:
            message = cache.get(rank)
            if message is None:
                message = cache[rank] = Message(MSG_LIST, (rank,))
            return message

        for sender, rank in arrivals:
            for other, other_rank in known_before.items():
                ctx.send(other, list_message(rank))
                ctx.send(sender, list_message(other_rank))
        # Ranks among the new arrivals themselves.
        for i, (sender, rank) in enumerate(arrivals):
            for other, other_rank in arrivals[i + 1 :]:
                ctx.send(other, list_message(rank))
                ctx.send(sender, list_message(other_rank))

    def _referee_aggregate(self, ctx: Context, proposals: List[tuple]) -> None:
        """Steps 2/4: forward the maximum proposed rank to all registered
        candidates, flagging whether its owner proposed it."""
        best = max(rank for _, rank in proposals)
        owner = any(
            sender_rank == rank == best for sender_rank, rank in proposals
        )
        reply = Message(MSG_AGG, (int(owner), best))
        for candidate in self._registered:
            ctx.send(candidate, reply)
