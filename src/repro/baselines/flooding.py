"""Deterministic flooding consensus (the classical O(n^2) baseline).

The naive crash-tolerant consensus every textbook starts from (cf. the
deterministic rows of Table I): every node broadcasts its estimate, and
re-broadcasts whenever the estimate improves, for ``f + 1`` rounds.  With
binary inputs each node broadcasts at most twice, so the message
complexity is ``O(n^2)``; the round complexity is ``f + 1``; it tolerates
any ``f < n`` crashes, deterministically.

This is the upper anchor of the message-complexity comparison: correct
under every adversary, but quadratic — exactly what the paper's sublinear
protocols are measured against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.families import FAMILIES
from ..faults.adversary import Adversary
from ..sim.message import Delivery, Message
from ..sim.node import Context, Protocol
from .base import BaselineOutcome, check_inputs

MSG_FLOOD = "FLD_VAL"  # node -> everyone: (bit,)


class FloodingConsensusProtocol(Protocol):
    """One node of the flooding consensus."""

    def __init__(self, node_id: int, n: int, input_bit: int, rounds: int) -> None:
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit}")
        self.node_id = node_id
        self.n = n
        self.rounds = rounds
        self.estimate = input_bit
        self.decided: Optional[int] = None

    def on_start(self, ctx: Context) -> None:
        self._broadcast(ctx)

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        # Fold in this round's arrivals first: messages broadcast in round
        # ``rounds`` land in round ``rounds + 1`` and still count.
        improved = False
        for delivery in inbox:
            if delivery.kind == MSG_FLOOD and delivery.fields[0] < self.estimate:
                self.estimate = delivery.fields[0]
                improved = True
        if ctx.round > self.rounds:
            if self.decided is None:
                self.decided = self.estimate
            ctx.idle()
            return
        if improved:
            self._broadcast(ctx)
        ctx.wake_at(self.rounds + 1)

    def _broadcast(self, ctx: Context) -> None:
        message = Message(MSG_FLOOD, (self.estimate,))
        for node in range(self.n):
            if node != self.node_id:
                ctx.send(node, message)

    def on_stop(self, ctx: Context) -> None:
        if self.decided is None:
            self.decided = self.estimate


def flooding_consensus(
    n: int,
    inputs: Sequence[int],
    seed: int = 0,
    adversary: Optional[Adversary] = None,
    faulty_count: int = 0,
    backend: str = "ref",
) -> BaselineOutcome:
    """Run flooding consensus (f + 1 rounds) and evaluate it.

    Success: every alive node decided the same valid bit.  This holds for
    *every* crash adversary: in each round either no one crashes (all
    estimates converge to the global minimum alive estimate and stay
    there) or the adversary spends one of its ``f`` crashes, and there are
    ``f + 1`` rounds.

    ``backend="vec"`` runs the numpy engine (identical results; falls
    back to the reference engine for unsupported configurations).
    """
    check_inputs(n, inputs)
    return FAMILIES["flooding"].run(
        n,
        seed=seed,
        adversary=adversary or Adversary(),
        inputs=inputs,
        faulty_count=faulty_count,
        backend=backend,
    )
