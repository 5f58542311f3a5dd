"""Committee-based explicit crash agreement — Gilbert–Kowalski [24] style.

Table I row: O(n) messages in KT1 (O(n log n) when neighbours are unknown,
as the paper notes), O(log n) rounds, tolerates up to ``n/2 - 1`` crashes.

Simplified construction (documented deviation — the original uses a
recursive group hierarchy to shave the log factor and to defeat fully
adaptive committee-killing):

* a deterministic committee ``K = {0, .., k-1}``, ``k = ceil(c log n)``,
  is known to everyone (KT1: node IDs are global knowledge);
* round 1: every node sends its input bit to every committee member
  (``n k`` messages);
* the committee floods its minimum bit internally for ``ceil(log2 k) + 1``
  rounds (``k^2`` messages per round — committee members that have
  nothing new stay silent);
* the committee broadcasts the decision to everyone (``k n`` messages);
  every node decides the first bit it hears (minimum on ties).

Under a uniformly chosen faulty set of size ``< n/2`` the committee
contains a non-faulty member w.h.p. (``2^{-k}`` failure), which suffices
for the Table I comparison.  A fully adaptive adversary could crash the
fixed committee — that is exactly the weakness the original's group
hierarchy removes, and we do not claim it here.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from ..core.families import FAMILIES
from ..faults.adversary import Adversary
from ..sim.message import Delivery, Message
from ..sim.node import Context, Protocol
from .base import BaselineOutcome, check_inputs

MSG_INPUT = "GK_IN"  # node -> committee: (bit,)
MSG_FLOOD = "GK_FLOOD"  # committee internal: (bit,)
MSG_DECIDE = "GK_DEC"  # committee -> node: (bit,)


def committee_size(n: int) -> int:
    """``ceil(3 log n)`` committee members, at most ``n``."""
    return min(n, max(1, math.ceil(3.0 * math.log(n))))


class CommitteeAgreementProtocol(Protocol):
    """One node of the committee-based explicit agreement."""

    def __init__(self, node_id: int, n: int, input_bit: int, k: int) -> None:
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit}")
        self.node_id = node_id
        self.n = n
        self.input_bit = input_bit
        self.k = k
        self.decided: Optional[int] = None
        self._committee_min: Optional[int] = None
        self._flood_rounds = math.ceil(math.log2(max(2, k))) + 1
        self._broadcast_round = 2 + self._flood_rounds

    @property
    def in_committee(self) -> bool:
        """Deterministic committee membership (KT1 knowledge)."""
        return self.node_id < self.k

    def on_start(self, ctx: Context) -> None:
        message = Message(MSG_INPUT, (self.input_bit,))
        for member in range(self.k):
            if member != self.node_id:
                ctx.send(member, message)
        if self.in_committee:
            self._committee_min = self.input_bit
            ctx.wake_at(self._broadcast_round)
        else:
            ctx.idle()

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        incoming_bits = [
            d.fields[0]
            for d in inbox
            if d.kind in (MSG_INPUT, MSG_FLOOD)
        ]
        decisions = [d.fields[0] for d in inbox if d.kind == MSG_DECIDE]

        if decisions and self.decided is None:
            self.decided = min(decisions)

        if not self.in_committee:
            ctx.idle()
            return

        if incoming_bits:
            observed = min(incoming_bits)
            if self._committee_min is None or observed < self._committee_min:
                self._committee_min = observed
                if ctx.round < self._broadcast_round:
                    # Flood the improvement to the rest of the committee.
                    flood = Message(MSG_FLOOD, (observed,))
                    for member in range(self.k):
                        if member != self.node_id:
                            ctx.send(member, flood)

        if ctx.round >= self._broadcast_round and self.decided is None:
            bit = self._committee_min if self._committee_min is not None else self.input_bit
            self.decided = bit
            decide = Message(MSG_DECIDE, (bit,))
            for node in range(self.n):
                if node != self.node_id:
                    ctx.send(node, decide)
            ctx.idle()
            return

        if ctx.round < self._broadcast_round:
            ctx.wake_at(self._broadcast_round)


def committee_agreement(
    n: int,
    inputs: Sequence[int],
    seed: int = 0,
    adversary: Optional[Adversary] = None,
    faulty_count: int = 0,
) -> BaselineOutcome:
    """Run the [24]-style explicit agreement and evaluate it.

    Success: every alive node decided the same valid bit.
    """
    check_inputs(n, inputs)
    return FAMILIES["gilbert_kowalski"].run(
        n,
        seed=seed,
        adversary=adversary or Adversary(),
        inputs=inputs,
        faulty_count=faulty_count,
    )
