"""Deterministic rotating-coordinator consensus ([35]/[37]-style row).

Table I's deterministic protocols run in ``O(f)`` rounds with ``Omega~(n)``
messages.  The classic representative: ``f + 1`` phases, phase ``i``
coordinated by node ``i`` (KT1: identities are global), coordinator
broadcasts its estimate and everyone adopts it.

Correctness under any crash adversary: at least one of the ``f + 1``
coordinators is non-faulty; after its phase all alive nodes hold its
estimate, and later coordinators can only re-broadcast that same value.

Messages ``O(n f)``, rounds ``O(f)``, tolerates any ``f < n``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.families import FAMILIES
from ..faults.adversary import Adversary
from ..sim.message import Delivery, Message
from ..sim.node import Context, Protocol
from .base import BaselineOutcome, check_inputs

MSG_ESTIMATE = "RC_EST"  # coordinator -> everyone: (bit,)


class RotatingCoordinatorProtocol(Protocol):
    """One node of the rotating-coordinator consensus."""

    def __init__(self, node_id: int, n: int, input_bit: int, phases: int) -> None:
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit}")
        self.node_id = node_id
        self.n = n
        self.phases = phases
        self.estimate = input_bit
        self.decided: Optional[int] = None

    def on_start(self, ctx: Context) -> None:
        self._step(ctx)

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        for delivery in inbox:
            if delivery.kind == MSG_ESTIMATE:
                # Adopt the coordinator's estimate unconditionally.
                self.estimate = delivery.fields[0]
        self._step(ctx)

    def _step(self, ctx: Context) -> None:
        phase = ctx.round  # one round per phase
        if phase > self.phases:
            if self.decided is None:
                self.decided = self.estimate
            ctx.idle()
            return
        coordinator = (phase - 1) % self.n
        if coordinator == self.node_id:
            message = Message(MSG_ESTIMATE, (self.estimate,))
            for node in range(self.n):
                if node != self.node_id:
                    ctx.send(node, message)
        # Stay active (no ctx.idle()): every node participates each phase.

    def on_stop(self, ctx: Context) -> None:
        if self.decided is None:
            self.decided = self.estimate


def rotating_coordinator_consensus(
    n: int,
    inputs: Sequence[int],
    seed: int = 0,
    adversary: Optional[Adversary] = None,
    faulty_count: int = 0,
) -> BaselineOutcome:
    """Run rotating-coordinator consensus (f + 1 phases) and evaluate it."""
    check_inputs(n, inputs)
    return FAMILIES["rotating_coordinator"].run(
        n,
        seed=seed,
        adversary=adversary or Adversary(),
        inputs=inputs,
        faulty_count=faulty_count,
    )
