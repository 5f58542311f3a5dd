"""Protocol base class and the per-node engine API (:class:`Context`).

A protocol instance runs on exactly one node.  The engine drives it with:

* :meth:`Protocol.on_start` once, in round 1, before any messages;
* :meth:`Protocol.on_round` in every round the node is *active* (a node is
  active until it calls :meth:`Context.idle`; an idle node is re-activated
  by an incoming message or a scheduled :meth:`Context.wake_at`);
* :meth:`Protocol.on_stop` once, at the end of the run, for nodes that
  have not crashed; ``ctx.round`` is then the last round that actually
  executed (smaller than the nominal horizon when the quiescence
  fast-forward cut the run short).

All interaction with the network goes through the :class:`Context`.  Under
KT0 the context enforces the paper's anonymity discipline: a node may only
address (a) ports obtained from :meth:`Context.sample_nodes` and (b) the
``sender`` handle of a delivered message.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, NoReturn, Set

from ..errors import CongestViolation, KnowledgeViolation, ProtocolViolation
from ..types import NodeId, Round
from .message import Delivery, Message

#: Sentinel wake round meaning "never" (idle until a message arrives).
NEVER: Round = -1


class Protocol:
    """Base class for node protocols.

    Subclasses override the three lifecycle hooks and expose their outputs
    as attributes; the engine never inspects protocol internals.
    """

    def on_start(self, ctx: "Context") -> None:
        """Called once in round 1 before any message exchange."""

    def on_round(self, ctx: "Context", inbox: List[Delivery]) -> None:
        """Called each active round with the messages delivered this round."""

    def on_stop(self, ctx: "Context") -> None:
        """Called at the end of the run (alive nodes only).

        ``ctx.round`` holds the last executed round — not the nominal
        horizon, which may be larger when the run went quiescent early.
        """


class Context:
    """Engine API handed to a protocol on every callback.

    The context is long-lived (one per node per run); ``round`` and the
    wake bookkeeping are refreshed by the engine between callbacks.  Sends
    go straight onto ``queues``, the node's per-destination FIFO dict that
    its owner (the engine or a :class:`~repro.sim.adapter.NodeRuntime`)
    transmits from; ``on_pending(node_id)`` runs when that dict goes from
    empty to non-empty.  ``bits_cap`` is the CONGEST bound (``math.inf``
    when unenforced).
    """

    __slots__ = (
        "node_id", "n", "rng", "round", "_next_wake", "_known", "_halted",
        "_enforce_kt0", "_queues", "_bits_cap", "_on_pending",
    )

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        rng: random.Random,
        enforce_kt0: bool,
        queues: Dict[NodeId, Deque[Message]],
        bits_cap: float,
        on_pending: Callable[[NodeId], None],
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.rng = rng
        self.round: Round = 0
        self._next_wake: Round = 1
        self._known: Set[NodeId] = set()
        self._halted = False
        self._enforce_kt0 = enforce_kt0
        self._queues = queues
        self._bits_cap = bits_cap
        self._on_pending = on_pending

    # ------------------------------------------------------------------
    # Sending and sampling
    # ------------------------------------------------------------------

    def send(self, dst: NodeId, message: Message) -> None:
        """Queue ``message`` for ``dst``.

        Messages on the same ordered edge are transmitted one per round
        (CONGEST); distinct destinations go out in parallel.
        """
        if (
            self._halted
            or dst == self.node_id
            or not 0 <= dst < self.n
            or (self._enforce_kt0 and dst not in self._known)
            or message.bits > self._bits_cap
        ):
            self._reject(dst, message)
        queues = self._queues
        queue = queues.get(dst)
        if queue is None:
            if not queues:
                self._on_pending(self.node_id)
            queues[dst] = queue = deque()
        queue.append(message)

    def send_many(self, dsts: Iterable[NodeId], message: Message) -> None:
        """Queue the same message for every destination in ``dsts``, in
        order: the same checks and queue appends as one :meth:`send` per
        destination."""
        node, n, queues = self.node_id, self.n, self._queues
        known = self._known if self._enforce_kt0 else None
        blocked = self._halted or message.bits > self._bits_cap
        for dst in dsts:
            if (
                blocked
                or dst == node
                or not 0 <= dst < n
                or (known is not None and dst not in known)
            ):
                self._reject(dst, message)
            queue = queues.get(dst)
            if queue is None:
                if not queues:
                    self._on_pending(node)
                queues[dst] = queue = deque()
            queue.append(message)

    def _reject(self, dst: NodeId, message: Message) -> NoReturn:
        """Raise the error of the first check that a send fails."""
        if self._halted:
            raise ProtocolViolation(f"node {self.node_id} sent after halting")
        if dst == self.node_id:
            raise ProtocolViolation(f"node {self.node_id} sent to itself")
        if not 0 <= dst < self.n:
            raise ProtocolViolation(f"invalid destination {dst}")
        if self._enforce_kt0 and dst not in self._known:
            raise KnowledgeViolation(
                f"KT0: node {self.node_id} addressed unknown node {dst}"
            )
        raise CongestViolation(
            f"message {message.kind!r} is {message.bits} bits; CONGEST "
            f"budget is {self._bits_cap} bits for n={self.n}"
        )

    def sample_nodes(self, k: int) -> List[NodeId]:
        """Sample ``k`` distinct uniform ports (other nodes) — KT0 style.

        In a complete anonymous network, choosing ``k`` distinct random
        ports is exactly choosing ``k`` distinct random other nodes; the
        sampled handles become legal send addresses.
        """
        if not 0 <= k <= self.n - 1:
            raise ProtocolViolation(
                f"cannot sample {k} of {self.n - 1} ports"
            )
        population = range(self.n)
        sampled: List[NodeId] = []
        seen = {self.node_id}
        # Rejection sampling: k is always o(n) in these protocols, but fall
        # back to random.sample when k is a large fraction of n.
        if k > (self.n - 1) // 2:
            candidates = [i for i in population if i != self.node_id]
            sampled = self.rng.sample(candidates, k)
        else:
            randrange = self.rng.randrange
            seen_add = seen.add
            append = sampled.append
            n = self.n
            while len(sampled) < k:
                pick = randrange(n)
                if pick not in seen:
                    seen_add(pick)
                    append(pick)
        self._known.update(sampled)
        return sampled

    def all_ports(self) -> List[NodeId]:
        """All ``n - 1`` ports of this node (KT0-legal: a node may always
        send through every one of its own ports, e.g. to broadcast).

        The handles become legal send addresses.
        """
        ports = [u for u in range(self.n) if u != self.node_id]
        self._known.update(ports)
        return ports

    def learn(self, node: NodeId) -> None:
        """Record that this node legitimately knows ``node``.

        Called by the engine for message senders; protocols may also call
        it when a learned handle is carried inside a payload they received
        (forwarded introductions are allowed in KT0: knowledge travels with
        messages).
        """
        self._known.add(node)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def idle(self) -> None:
        """Sleep until a message arrives (cancels any scheduled wake)."""
        self._next_wake = NEVER

    def wake_at(self, round_: Round) -> None:
        """Ensure :meth:`Protocol.on_round` runs in round ``round_``."""
        if round_ <= self.round:
            raise ProtocolViolation(
                f"wake_at({round_}) is not in the future (round {self.round})"
            )
        self._next_wake = round_

    def halt(self) -> None:
        """Permanently stop participating (the node keeps its outputs)."""
        self._halted = True
        self._next_wake = NEVER

    @property
    def halted(self) -> bool:
        """True once :meth:`halt` has been called."""
        return self._halted
