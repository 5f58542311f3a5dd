"""Shared plumbing for baseline protocols.

Each baseline exposes a ``<name>(n, seed, ...) -> BaselineOutcome`` entry
point that checks its inputs and runs the baseline's row of
:data:`repro.core.families.FAMILIES`; :class:`BaselineOutcome` is a
protocol-agnostic record with the fields the Table I comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..sim.metrics import Metrics
from ..sim.trace import Trace


@dataclass
class BaselineOutcome:
    """Outcome of one baseline run, comparable across protocols."""

    protocol: str
    n: int
    faulty: Set[int]
    crashed: Dict[int, int]
    metrics: Metrics
    #: For agreement-family baselines: node -> decided bit (alive nodes).
    decisions: Dict[int, int] = field(default_factory=dict)
    #: For election-family baselines: alive nodes that output ELECTED.
    elected: List[int] = field(default_factory=list)
    #: Agreement inputs, when applicable.
    inputs: Optional[Sequence[int]] = None
    #: Whether the run met its protocol's correctness condition.
    success: bool = False
    #: Event trace when the run was collected with ``collect_trace=True``.
    trace: Optional[Trace] = None
    #: Delivery-delay bound of the run (0 = fully synchronous delivery).
    max_delay: int = 0

    @property
    def messages(self) -> int:
        """Total messages sent."""
        return self.metrics.messages_sent

    @property
    def rounds(self) -> int:
        """Last round the engine actually executed."""
        return self.metrics.rounds

    @property
    def horizon(self) -> int:
        """Requested round count (the protocol's nominal schedule)."""
        return self.metrics.horizon

    def summary(self) -> Dict[str, object]:
        """Headline facts for tables."""
        return {
            "protocol": self.protocol,
            "n": self.n,
            "faulty": len(self.faulty),
            "success": self.success,
            "messages": self.messages,
            "rounds": self.rounds,
            "crashes": self.metrics.crashes,
        }


def check_inputs(n: int, inputs: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``inputs`` holds ``n`` bits."""
    if len(inputs) != n:
        raise ValueError(f"got {len(inputs)} inputs for n={n}")
    for bit in inputs:
        if bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {bit}")


def evaluate_explicit_agreement(
    outcome: BaselineOutcome, alive: Sequence[int]
) -> bool:
    """Explicit agreement: every alive node decided, all equal, valid."""
    assert outcome.inputs is not None
    if set(alive) - set(outcome.decisions):
        return False
    bits = {outcome.decisions[u] for u in alive}
    if len(bits) != 1:
        return False
    return bits.pop() in set(outcome.inputs)


def evaluate_implicit_agreement(
    outcome: BaselineOutcome, alive: Sequence[int]
) -> bool:
    """Implicit agreement: >= 1 alive decided, all decided equal, valid."""
    assert outcome.inputs is not None
    decided = [outcome.decisions[u] for u in alive if u in outcome.decisions]
    if not decided:
        return False
    if len(set(decided)) != 1:
        return False
    return decided[0] in set(outcome.inputs)
