"""Explicit extensions of the two implicit protocols.

Both Section IV-A and Section V-A note that the implicit solutions extend
to the explicit problems with one extra broadcast round and
``O(n log n / alpha)`` extra messages: every candidate that reached an
agreement broadcasts the outcome through all of its ports in parallel, and
every node adopts what it hears.  Broadcasting from *all* candidates (not
just the leader) keeps the extension fault-tolerant — it succeeds as long
as one alive candidate holds the agreed outcome.
"""

from __future__ import annotations

from typing import List, Optional

from ..params import Params
from ..sim.message import Delivery, Message
from ..sim.node import NEVER, Context, Protocol
from ..types import Decision
from .agreement import AgreementProtocol
from .leader_election import LeaderElectionProtocol
from .schedule import AgreementSchedule, LeaderElectionSchedule

MSG_LEADER = "LE_XPL"  # candidate -> everyone: (leader_rank,)
MSG_DECISION = "AG_XPL"  # candidate -> everyone: (bit,)


def _keep_wake(ctx: Context, round_: int) -> None:
    """Ensure the node wakes by ``round_`` without cancelling earlier wakes."""
    if ctx.round >= round_:
        return
    if ctx._next_wake == NEVER or ctx._next_wake > round_:
        ctx.wake_at(round_)


class ExplicitLeaderElectionProtocol(LeaderElectionProtocol):
    """Implicit leader election + a final all-ports broadcast round.

    Extra output: :attr:`explicit_leader_rank` — the leader's rank as known
    by *every* node (the explicit problem's requirement).
    """

    def __init__(self, node_id: int, params: Params, schedule: LeaderElectionSchedule) -> None:
        super().__init__(node_id, params, schedule)
        self.explicit_leader_rank: Optional[int] = None
        self._broadcast_done = False

    @property
    def broadcast_round(self) -> int:
        """The round in which candidates broadcast the winner."""
        return self.schedule.last_round + 1

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        announcements = [
            delivery.fields[0]
            for delivery in inbox
            if delivery.kind == MSG_LEADER
        ]
        rest = [d for d in inbox if d.kind != MSG_LEADER]
        super().on_round(ctx, rest)
        if announcements:
            # Conflicting announcements are resolved towards the maximum,
            # consistent with the implicit protocol's max-convergence.
            best = max(announcements)
            if self.explicit_leader_rank is None or best > self.explicit_leader_rank:
                self.explicit_leader_rank = best
        if self.is_candidate and not self._broadcast_done:
            if ctx.round >= self.broadcast_round:
                self._broadcast(ctx)
            else:
                _keep_wake(ctx, self.broadcast_round)

    def _broadcast(self, ctx: Context) -> None:
        self._broadcast_done = True
        belief = self.leader_rank
        if belief is None:
            assert self._cand is not None  # only candidates broadcast
            rank_list = self._cand.rank_list
            belief = min(rank_list) if rank_list else self.rank
        if belief is None:
            return
        if self.explicit_leader_rank is None or belief > self.explicit_leader_rank:
            self.explicit_leader_rank = belief
        message = Message(MSG_LEADER, (belief,))
        for port in ctx.all_ports():
            ctx.send(port, message)


class ExplicitAgreementProtocol(AgreementProtocol):
    """Implicit agreement + a final all-ports broadcast round.

    Extra output: :attr:`explicit_decision` — the agreed bit as known by
    *every* node.
    """

    def __init__(
        self,
        node_id: int,
        params: Params,
        schedule: AgreementSchedule,
        input_bit: int,
    ) -> None:
        super().__init__(node_id, params, schedule, input_bit)
        self.explicit_decision: Optional[int] = None
        self._broadcast_done = False

    @property
    def broadcast_round(self) -> int:
        """The round in which candidates broadcast the agreed bit."""
        return self.schedule.last_round + 1

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        announcements = [
            delivery.fields[0]
            for delivery in inbox
            if delivery.kind == MSG_DECISION
        ]
        rest = [d for d in inbox if d.kind != MSG_DECISION]
        super().on_round(ctx, rest)
        if announcements:
            # The protocol is zero-biased; resolve conflicts towards 0.
            best = min(announcements)
            if self.explicit_decision is None or best < self.explicit_decision:
                self.explicit_decision = best
        if self.is_candidate and not self._broadcast_done:
            if ctx.round >= self.broadcast_round:
                self._broadcast(ctx)
            else:
                _keep_wake(ctx, self.broadcast_round)

    def _broadcast(self, ctx: Context) -> None:
        self._broadcast_done = True
        if self.decision is Decision.UNDECIDED:
            bit = self.input_bit  # same rule as on_stop
        else:
            bit = self.decision.bit
        if self.explicit_decision is None or bit < self.explicit_decision:
            self.explicit_decision = bit
        message = Message(MSG_DECISION, (bit,))
        for port in ctx.all_ports():
            ctx.send(port, message)

    def on_stop(self, ctx: Context) -> None:
        super().on_stop(ctx)
        if self.explicit_decision is None and self.decision is not Decision.UNDECIDED:
            self.explicit_decision = self.decision.bit
