"""Round-by-round replay of an execution trace (debugging aid).

``replay(trace)`` folds a :class:`~repro.sim.trace.Trace` into one
:class:`RoundSummary` per executed round — message counts by kind, active
senders, crashes — so protocol behaviour can be inspected without
re-running anything; :func:`timeline_table` renders the result as an
aligned text table.  Message events are keyed by their send round, so
every summary satisfies ``sent == delivered + dropped + expired``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..types import NodeId, Round
from .trace import Trace


@dataclass
class RoundSummary:
    """Everything that happened in one round."""

    round: Round
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    expired: int = 0
    by_kind: "Counter[str]" = field(default_factory=Counter)
    senders: Set[NodeId] = field(default_factory=set)
    crashed: List[NodeId] = field(default_factory=list)

    def as_row(self) -> Dict[str, object]:
        """Flat form for :func:`repro.analysis.tables.format_table`."""
        kinds = ", ".join(
            f"{kind}:{count}" for kind, count in sorted(self.by_kind.items())
        )
        return {
            "round": self.round,
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "expired": self.expired,
            "senders": len(self.senders),
            "crashed": len(self.crashed),
            "kinds": kinds,
        }


def replay(trace: Trace) -> List[RoundSummary]:
    """Fold a trace into per-round summaries (rounds with events only)."""
    rounds: Dict[Round, RoundSummary] = {}

    def bucket(round_: Round) -> RoundSummary:
        summary = rounds.get(round_)
        if summary is None:
            summary = rounds[round_] = RoundSummary(round=round_)
        return summary

    for event in trace.events:
        summary = bucket(event.round)
        if event.kind == "send":
            summary.sent += 1
            summary.senders.add(event.src)
            if event.message_kind:
                summary.by_kind[event.message_kind] += 1
        elif event.kind == "deliver":
            summary.delivered += 1
        elif event.kind == "drop":
            summary.dropped += 1
        elif event.kind == "expire":
            summary.expired += 1
        elif event.kind == "crash":
            summary.crashed.append(event.src)
    return [rounds[r] for r in sorted(rounds)]


def timeline_table(trace: Trace, limit: int = 0) -> str:
    """Render the replay as an aligned text table (``limit`` rows, 0=all)."""
    from ..analysis.tables import format_table

    summaries = replay(trace)
    if limit:
        summaries = summaries[:limit]
    return format_table(
        [s.as_row() for s in summaries],
        columns=[
            "round", "sent", "delivered", "dropped", "expired", "senders",
            "crashed", "kinds",
        ],
        title="execution timeline",
    )


def busiest_round(trace: Trace) -> RoundSummary:
    """The round with the most sends (useful for CONGEST-pressure checks)."""
    summaries = replay(trace)
    if not summaries:
        raise ValueError("trace is empty")
    return max(summaries, key=lambda s: s.sent)
