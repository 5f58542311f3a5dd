"""Fault-free sublinear implicit agreement — Augustine et al. [23].

The fault-free reference for experiment E12's agreement column.  The
committee structure mirrors :mod:`.kutten_le`: a ``Theta(log n)``
candidate committee exchanges input bits through ``Theta((n log n)^1/2)``
random referees and decides the minimum bit observed (zero-biased, like
the paper's Section V-A protocol at ``alpha = 1``).

Message complexity ``O(n^1/2 log^{3/2} n)``, 2 rounds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.families import FAMILIES
from ..params import Params
from ..sim.message import Delivery, Message
from ..sim.node import Context, Protocol
from .base import BaselineOutcome, check_inputs

MSG_BIT = "AAG_BIT"  # candidate -> referee: (bit,)
MSG_MIN = "AAG_MIN"  # referee -> candidate: (min_bit,)


class AugustineAgreementProtocol(Protocol):
    """One node of the [23]-style fault-free implicit agreement.

    ``params`` are the paper's at ``alpha = 1``, as for
    :class:`~repro.baselines.kutten_le.KuttenLeaderElectionProtocol`.
    """

    def __init__(self, node_id: int, params: Params, input_bit: int) -> None:
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit}")
        self.node_id = node_id
        self.params = params
        self.input_bit = input_bit
        self.is_candidate = False
        self.decided: Optional[int] = None
        self._observed_min: Optional[int] = None

    def on_start(self, ctx: Context) -> None:
        self.is_candidate = ctx.rng.random() < self.params.candidate_probability
        if self.is_candidate:
            message = Message(MSG_BIT, (self.input_bit,))
            for referee in ctx.sample_nodes(self.params.referee_count):
                ctx.send(referee, message)
        ctx.idle()

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        bits = [d.fields[0] for d in inbox if d.kind == MSG_BIT]
        minima = [d.fields[0] for d in inbox if d.kind == MSG_MIN]
        if bits:
            reply = Message(MSG_MIN, (min(bits),))
            for delivery in inbox:
                if delivery.kind == MSG_BIT:
                    ctx.send(delivery.sender, reply)
        if minima:
            observed = min(minima)
            if self._observed_min is None or observed < self._observed_min:
                self._observed_min = observed
        ctx.idle()

    def on_stop(self, ctx: Context) -> None:
        if not self.is_candidate:
            return
        if self._observed_min is not None:
            self.decided = min(self._observed_min, self.input_bit)
        else:
            self.decided = self.input_bit


def augustine_agree(n: int, inputs: Sequence[int], seed: int = 0) -> BaselineOutcome:
    """Run the fault-free [23]-style implicit agreement and evaluate it."""
    check_inputs(n, inputs)
    return FAMILIES["augustine_agreement"].run(n, seed=seed, inputs=inputs)
