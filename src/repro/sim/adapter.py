"""Transport-agnostic per-node runtime (the sim/wire seam).

:class:`repro.sim.network.Network` interleaves *per-node* protocol logic
(step, transmit, wake bookkeeping) with *global* logic (crash planning,
delivery, accounting).  The real-network backend (:mod:`repro.net`) needs
exactly the per-node half, running inside one OS process per node, while a
coordinator replays the global half over TCP.

:class:`NodeRuntime` extracts that per-node half without forking the
engine: it reuses the real :class:`~repro.sim.node.Context` (so KT0
enforcement, CONGEST checks, RNG streams, and every Protocol subclass
behave bit-for-bit as in the sim).  The context appends its sends onto
this runtime's own per-destination queue dict, exactly as it appends
onto the engine's ``Network._queues[u]``, so both owners transmit from
the same structure filled by the same code.

Faithfulness contract (mirrors ``Network._execute_round``):

* a node steps in round ``r`` iff its scheduled wake is ``r`` or it has
  deliveries and is not halted (:meth:`NodeRuntime.should_step`);
* a step sets ``ctx.round = r`` and defaults the next wake to ``r + 1``,
  records delivery senders as known, runs ``on_start`` in round 1 before
  ``on_round``, and preserves a protocol-set ``wake_at``/``idle``
  (:meth:`NodeRuntime.step`);
* transmission pops one queued message per ordered edge per round in
  destination insertion order, independent of whether the node stepped
  (:meth:`NodeRuntime.transmit`);
* ``on_stop`` runs once with ``ctx.round`` set to the last executed round
  (:meth:`NodeRuntime.stop`).

Everything here is a pure function of ``(protocol, rng, inputs)`` — no
clocks, no ambient randomness — so a wire run seeded like a sim run makes
identical protocol decisions.
"""

from __future__ import annotations

import math
import random
from typing import Deque, Dict, List, Optional

from ..params import CongestBudget
from ..types import Knowledge, NodeId, Round
from .message import Delivery, Envelope, Message
from .node import NEVER, Context, Protocol


def _unscheduled(node: NodeId) -> None:
    """A runtime transmits every round, so a new backlog needs no notice."""


class NodeRuntime:
    """One node's engine-faithful state machine, transport not included.

    The caller (the sim-replica test driver or a :mod:`repro.net` node
    process) owns the round loop; this class owns everything the engine
    would do *for this node* within a round.
    """

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        protocol: Protocol,
        rng: random.Random,
        *,
        knowledge: Knowledge = Knowledge.KT0,
        congest: Optional[CongestBudget] = None,
        enforce_congest: bool = True,
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.protocol = protocol
        # Per-destination FIFO queues, insertion-ordered exactly like the
        # engine's ``_queues[src]`` dict (transmit order must match); the
        # context appends to this dict itself.
        self._queues: Dict[NodeId, Deque[Message]] = {}
        bits_cap = (congest or CongestBudget(n)).bits_per_message
        self.ctx = Context(
            node_id,
            n,
            rng,
            knowledge is Knowledge.KT0,
            self._queues,
            bits_cap if enforce_congest else math.inf,
            _unscheduled,
        )
        if knowledge is Knowledge.KT1:
            self.ctx._known.update(u for u in range(n) if u != node_id)
        self._stopped = False

    # ------------------------------------------------------------------
    # Engine-replica round API
    # ------------------------------------------------------------------

    @property
    def next_wake(self) -> Round:
        """The node's scheduled wake round (``NEVER`` = idle/halted)."""
        return self.ctx._next_wake

    @property
    def halted(self) -> bool:
        """True once the protocol called :meth:`Context.halt`."""
        return self.ctx._halted

    @property
    def backlog(self) -> int:
        """Messages queued but not yet transmitted."""
        return sum(len(queue) for queue in self._queues.values())

    def should_step(self, round_: Round, has_inbox: bool) -> bool:
        """Whether the engine would run ``on_round`` this round.

        Mirrors the wake-heap pop (a live entry has ``_next_wake ==
        round_``) plus the delivery-wake rule (a delivery wakes an idle
        node but never a halted one).
        """
        if self.ctx._next_wake == round_:
            return True
        return has_inbox and not self.ctx._halted

    def step(self, round_: Round, inbox: List[Delivery]) -> None:
        """Run the protocol callback for ``round_`` (caller checked
        :meth:`should_step`).

        ``inbox`` must be ordered ascending by sender id — the order the
        engine's ascending-sender transmit phase produces.
        """
        ctx = self.ctx
        ctx.round = round_
        ctx._next_wake = round_ + 1  # stay active by default
        if inbox:
            known_add = ctx._known.add
            for delivery in inbox:
                known_add(delivery.sender)
        if round_ == 1:
            self.protocol.on_start(ctx)
        self.protocol.on_round(ctx, inbox)

    def transmit(self, round_: Round) -> List[Envelope]:
        """Pop one queued message per ordered edge onto the wire.

        Runs every round the node is alive — a backlog drains even while
        the node idles or after it halts, exactly as in the engine (the
        pending-sender scan is independent of the step phase).
        """
        if not self._queues:
            return []
        sent: List[Envelope] = []
        emptied: List[NodeId] = []
        for dst, queue in self._queues.items():
            sent.append(Envelope(self.node_id, dst, queue.popleft(), round_))
            if not queue:
                emptied.append(dst)
        for dst in emptied:
            del self._queues[dst]
        return sent

    def discard_backlog(self) -> int:
        """Drop all queued messages (the engine does this on crash)."""
        dropped = self.backlog
        self._queues.clear()
        return dropped

    def stop(self, last_round: Round) -> None:
        """Run ``on_stop`` with the last executed round (alive nodes)."""
        if self._stopped:
            return
        self._stopped = True
        self.ctx.round = last_round
        self.protocol.on_stop(self.ctx)
