"""Structured execution traces.

Tracing is optional (it costs memory proportional to the message count).
A trace is an append-only list of :class:`TraceEvent` tuples.  It is
checked by :func:`repro.sim.validate.validate_run` and consumed by
:mod:`repro.lowerbound`, which rebuilds the paper's *communication graph*
and *influence clouds* from the recorded sends.  The engine appends to
``Trace.events`` directly; :meth:`Trace.record` is for other callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, NamedTuple, Optional, Set, Tuple, cast

from ..types import NodeId, Round


class TraceEvent(NamedTuple):
    """One traced event.

    ``kind`` is one of ``"send"``, ``"deliver"``, ``"drop"``, ``"expire"``,
    ``"crash"``.  ``"drop"`` marks a message lost by the adversary's
    keep-filter in its sender's crash round; ``"expire"`` marks a message
    whose receiver had already crashed by delivery time.  For message
    events ``src``/``dst``/``message_kind`` are set; for crash events only
    ``src``.  ``round`` is always the round of the matching *send*
    (deliveries, drops, and expiries are keyed by the round their message
    was put on the wire); for ``"deliver"`` events ``round_received``
    additionally records the round the receiver saw the message — the
    model's one-round latency demands ``round + 1``, relaxed to
    ``[round + 1, round + 1 + Δ]`` under a Δ-bounded
    :class:`~repro.sim.delivery.DeliverySchedule`
    (:func:`repro.sim.validate.validate_run` enforces the bound).
    ``"expire"`` events of *delayed* messages also carry
    ``round_received`` — the arrival round at which the dead receiver was
    discovered, or the post-horizon round of a message still in flight
    when the run ended.

    A ``NamedTuple``: it compares, hashes and pickles by value, and a
    tuple of ints and strings drops out of the cyclic collector's
    tracking after its first young collection, so a traced run's tens of
    thousands of events are not rescanned by later collections.  The engine builds
    events with ``tuple.__new__`` directly (see :data:`new_event`).
    """

    round: Round
    kind: str
    src: NodeId
    dst: Optional[NodeId] = None
    message_kind: Optional[str] = None
    round_received: Optional[Round] = None


#: ``new_event(TraceEvent, (round, kind, src, dst, message_kind,
#: round_received))`` builds an event in C, skipping the Python-level
#: ``__new__`` that ``TraceEvent(...)`` runs; the engine's traced loops
#: use it.  All six fields must be given.
new_event = cast(Callable[[type, Tuple[Any, ...]], TraceEvent], tuple.__new__)


@dataclass
class Trace:
    """Append-only event log of one run."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(self, event: TraceEvent) -> None:
        """Append one event."""
        self.events.append(event)

    # -- queries used by the lower-bound tooling ------------------------

    def sends(self) -> Iterator[TraceEvent]:
        """All send events, in order."""
        return (e for e in self.events if e.kind == "send")

    def deliveries(self) -> Iterator[TraceEvent]:
        """All delivery events, in order."""
        return (e for e in self.events if e.kind == "deliver")

    def drops(self) -> Iterator[TraceEvent]:
        """All drop events (lost in the sender's crash round), in order."""
        return (e for e in self.events if e.kind == "drop")

    def expiries(self) -> Iterator[TraceEvent]:
        """All expire events (receiver already dead), in order."""
        return (e for e in self.events if e.kind == "expire")

    def crashes(self) -> Iterator[TraceEvent]:
        """All crash events, in order."""
        return (e for e in self.events if e.kind == "crash")

    def delivered_edges(self) -> Iterator[Tuple[NodeId, NodeId, Round]]:
        """``(src, dst, round)`` for every delivered message."""
        for event in self.deliveries():
            assert event.dst is not None
            yield event.src, event.dst, event.round

    def communicating_nodes(self) -> Set[NodeId]:
        """Nodes that sent or received at least one delivered message."""
        nodes: Set[NodeId] = set()
        for src, dst, _ in self.delivered_edges():
            nodes.add(src)
            nodes.add(dst)
        return nodes

    def message_count(self) -> int:
        """Number of send events recorded."""
        return sum(1 for _ in self.sends())

    def __len__(self) -> int:
        return len(self.events)
