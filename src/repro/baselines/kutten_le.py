"""Fault-free sublinear implicit leader election — Kutten et al. [21].

The reference point for "the fault-tolerant bound matches the fault-free
one" (paper, Section I-A and experiment E12).  Algorithm (the O(1)-round
randomized election of [21], simplified to its core):

* every node draws a rank in ``[1, n^4]`` and becomes a *candidate* with
  probability ``c log n / n`` (expected ``c log n`` candidates);
* each candidate sends its rank to ``c' (n log n)^(1/2)`` random referees
  — by a birthday argument every pair of candidates hits a common referee
  w.h.p.;
* each referee replies to each of its candidates with the maximum rank it
  received;
* a candidate that sees only its own rank as every reply's maximum outputs
  ELECTED; all other nodes output NON_ELECTED.

Message complexity ``O(n^1/2 log^{3/2} n)``, 2 rounds — exactly the
fault-free analogue of the Section IV-A structure (this is why the paper's
algorithm degenerates to [21] at ``alpha = 1``).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.families import FAMILIES
from ..params import Params
from ..sim.message import Delivery, Message
from ..sim.node import Context, Protocol
from ..types import NodeState
from .base import BaselineOutcome

MSG_RANK = "KLE_RANK"  # candidate -> referee: (rank,)
MSG_MAX = "KLE_MAX"  # referee -> candidate: (max_rank,)


class KuttenLeaderElectionProtocol(Protocol):
    """One node of the [21]-style fault-free election.

    ``params`` are the paper's at ``alpha = 1``: candidates with
    probability ``6 log n / n``, ``2 (n log n)^1/2`` referees, ranks in
    ``[1, n^4]``.
    """

    def __init__(self, node_id: int, params: Params) -> None:
        self.node_id = node_id
        self.params = params
        self.rank: Optional[int] = None
        self.is_candidate = False
        self.state = NodeState.UNDECIDED
        self._referees: List[int] = []
        self._reply_max: Optional[int] = None
        self._senders: List[int] = []

    def on_start(self, ctx: Context) -> None:
        self.rank = ctx.rng.randint(1, self.params.rank_space)
        self.is_candidate = ctx.rng.random() < self.params.candidate_probability
        if self.is_candidate:
            self._referees = ctx.sample_nodes(self.params.referee_count)
            message = Message(MSG_RANK, (self.rank,))
            for referee in self._referees:
                ctx.send(referee, message)
        ctx.idle()

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        ranks = [d.fields[0] for d in inbox if d.kind == MSG_RANK]
        maxima = [d.fields[0] for d in inbox if d.kind == MSG_MAX]
        if ranks:
            # Referee role: reply with the maximum rank seen.
            best = max(ranks)
            reply = Message(MSG_MAX, (best,))
            for delivery in inbox:
                if delivery.kind == MSG_RANK:
                    ctx.send(delivery.sender, reply)
        if maxima:
            observed = max(maxima)
            if self._reply_max is None or observed > self._reply_max:
                self._reply_max = observed
        ctx.idle()

    def on_stop(self, ctx: Context) -> None:
        if self.is_candidate and self._reply_max == self.rank:
            self.state = NodeState.ELECTED
        else:
            self.state = NodeState.NON_ELECTED


def kutten_elect_leader(n: int, seed: int = 0) -> BaselineOutcome:
    """Run the fault-free [21]-style election and evaluate it.

    Success: exactly one node outputs ELECTED.
    """
    return FAMILIES["kutten_le"].run(n, seed=seed)
