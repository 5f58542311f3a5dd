"""Randomized gossip consensus — Chlebus–Kowalski [36] style.

Table I row: explicit agreement, O(n log n) messages and O(log n) rounds
*in expectation*, tolerates a linear fraction of crash faults.

Simplified construction (documented deviation — the original's gossip
schedule is deterministic-expander based; we use uniform push gossip,
which has the same message/round asymptotics in expectation):

* every node keeps a current estimate (initially its input bit);
* for ``T = ceil(4 log n)`` rounds, every node pushes its estimate to
  2 uniformly random nodes each round (total ``2 n T =
  O(n log n)`` messages — the Table I column);
* estimates improve towards the minimum; after ``T`` rounds every node
  decides its estimate.

A value held by at least one non-faulty node at any point spreads to all
alive nodes in O(log n) rounds w.h.p. (standard push-gossip epidemics,
including the coupon-collector tail — hence pushing every round, not only
on change), so all alive nodes decide the same minimum w.h.p.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..core.families import FAMILIES
from ..faults.adversary import Adversary
from ..sim.message import Delivery, Message
from ..sim.node import Context, Protocol
from .base import BaselineOutcome, check_inputs

MSG_GOSSIP = "CK_GOS"  # node -> node: (bit,)


#: Nodes each node pushes its estimate to, every round.
FANOUT = 2


def gossip_rounds(n: int) -> int:
    """``ceil(4 log n)`` gossip rounds."""
    return max(2, math.ceil(4.0 * math.log(n)))


class GossipConsensusProtocol(Protocol):
    """One node of the push-gossip consensus."""

    def __init__(self, node_id: int, n: int, input_bit: int, rounds: int) -> None:
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit}")
        self.node_id = node_id
        self.n = n
        self.rounds = rounds
        self.fanout = min(FANOUT, n - 1)
        self.estimate = input_bit
        self.decided: Optional[int] = None

    def on_start(self, ctx: Context) -> None:
        self._push(ctx)

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        # Fold in arrivals first: pushes from round ``rounds`` land in
        # round ``rounds + 1`` and still count towards the decision.
        for delivery in inbox:
            if delivery.kind == MSG_GOSSIP and delivery.fields[0] < self.estimate:
                self.estimate = delivery.fields[0]
        if ctx.round > self.rounds:
            if self.decided is None:
                self.decided = self.estimate
            ctx.idle()
            return
        self._push(ctx)

    def _push(self, ctx: Context) -> None:
        message = Message(MSG_GOSSIP, (self.estimate,))
        for target in ctx.sample_nodes(self.fanout):
            ctx.send(target, message)
        # Stay active (no ctx.idle()): we push again every round until the
        # decision round fires.

    def on_stop(self, ctx: Context) -> None:
        if self.decided is None:
            self.decided = self.estimate


def gossip_consensus(
    n: int,
    inputs: Sequence[int],
    seed: int = 0,
    adversary: Optional[Adversary] = None,
    faulty_count: int = 0,
) -> BaselineOutcome:
    """Run the [36]-style gossip consensus and evaluate it.

    Success: every alive node decided the same valid bit.
    """
    check_inputs(n, inputs)
    return FAMILIES["chlebus_kowalski"].run(
        n,
        seed=seed,
        adversary=adversary or Adversary(),
        inputs=inputs,
        faulty_count=faulty_count,
    )
