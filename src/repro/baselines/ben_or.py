"""Ben-Or randomized binary consensus, delay-tolerant by construction.

The paper's protocols (and every baseline so far) assume *synchronous*
delivery: a message sent in round ``r`` arrives in round ``r + 1``.  This
module lands the repo's first protocol designed for the **bounded-delay**
model (:mod:`repro.sim.delivery`): Ben-Or's classic two-stage phase
structure decides by *counting certificates*, never by round arithmetic,
so the same state machine is correct for every delay bound Δ — only its
timetable stretches by a factor of ``1 + Δ``.

Phase ``p`` (all nodes in lockstep, each stage spanning ``1 + Δ`` rounds
so every message sent at a stage boundary has arrived by the next one):

1. **report** — broadcast ``(p, estimate)``.  A value reported by a
   strict majority of *all* nodes (``> n/2``) becomes the proposal;
   otherwise propose ⊥.  Two different values can never both clear the
   bar (each node reports one value per phase), which is the safety core.
2. **propose** — broadcast ``(p, value-or-⊥)``.  Seeing ``f + 1``
   proposals for the same value ``v`` decides ``v`` (at least one of the
   proposers is non-faulty, so every other node saw ``v`` proposed at
   least once and adopts it); seeing at least one ``v`` adopts it as the
   new estimate; seeing only ⊥ flips a fair coin.

A decided node broadcasts a ``decide`` certificate once and halts;
receivers adopt it immediately.  That certificate is exactly Ben-Or's
Byzantine weakness: it is unauthenticated, so a single lying node can
forge one (:class:`BenOrDecideForger`) and collapse validity — the
protocol tolerates ``f < n/2`` *crash* faults, not one liar.  The chaos
layer's ``ben_or`` scenario measures both facts.

Expected phases are constant under full delivery (all nodes see the same
report multiset, so a coin-round produces a strict majority with constant
probability); the horizon caps at :data:`DEFAULT_MAX_PHASES` phases —
running out costs liveness only, never safety.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from ..core.families import FAMILIES
from ..faults.adversary import Adversary
from ..faults.byzantine import ByzantinePlan, ProtocolFactory
from ..sim.delivery import DeliverySchedule
from ..sim.message import Delivery, Message
from ..sim.node import Context, Protocol
from ..types import NodeId
from .base import BaselineOutcome, check_inputs

MSG_REPORT = "BO_R"  # (phase, bit)
MSG_PROPOSAL = "BO_P"  # (phase, value) — value 0/1 or BOT
MSG_DECIDE = "BO_D"  # (bit,) — unauthenticated decide certificate

#: The ⊥ proposal ("no majority seen this phase").
BOT = 2

#: Phase cap: exceeding it costs liveness (undecided), never safety.
DEFAULT_MAX_PHASES = 20


def ben_or_horizon(max_delay: int = 0, max_phases: int = DEFAULT_MAX_PHASES) -> int:
    """Nominal round horizon: two stages per phase, each ``1 + Δ`` rounds,
    plus one stage of decide-certificate propagation."""
    step = 1 + max_delay
    return 2 * step * max_phases + step + 1


class BenOrProtocol(Protocol):
    """One node of Ben-Or consensus, parameterised by the delay bound."""

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        input_bit: int,
        faulty_bound: int,
        max_delay: int = 0,
        max_phases: int = DEFAULT_MAX_PHASES,
    ) -> None:
        if input_bit not in (0, 1):
            raise ValueError(f"input bit must be 0 or 1, got {input_bit}")
        self.node_id = node_id
        self.n = n
        self.estimate = input_bit
        self.faulty_bound = faulty_bound
        self.step = 1 + max_delay
        self.max_phases = max_phases
        self.phase = 1
        self.decided: Optional[int] = None
        self._reports: "Counter[int]" = Counter()
        self._proposals: "Counter[int]" = Counter()
        self._peers: List[NodeId] = []
        #: Round of the next stage boundary; "propose"/"report" says which.
        self._action_round = 0
        self._stage = "propose"

    # -- lifecycle -------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self._peers = ctx.all_ports()
        self._reports[self.estimate] += 1  # count own report
        self._broadcast(ctx, Message(MSG_REPORT, (self.phase, self.estimate)))
        self._stage = "propose"
        self._action_round = 1 + self.step
        ctx.wake_at(self._action_round)

    def on_round(self, ctx: Context, inbox: List[Delivery]) -> None:
        self._ingest(ctx, inbox)
        if self.decided is not None:
            return
        if self.phase > self.max_phases:
            ctx.idle()  # out of phases: stay undecided
            return
        if ctx.round < self._action_round:
            # Woken early by a delivery mid-stage: keep buffering.
            ctx.wake_at(self._action_round)
            return
        if self._stage == "propose":
            self._close_report_stage(ctx)
        else:
            self._close_proposal_stage(ctx)

    def on_stop(self, ctx: Context) -> None:
        """Undecided at the horizon stays undecided (liveness loss only)."""

    # -- stages ----------------------------------------------------------

    def _close_report_stage(self, ctx: Context) -> None:
        value = BOT
        for bit, count in self._reports.items():
            if 2 * count > self.n:
                value = bit
                break
        self._proposals[value] += 1  # count own proposal
        self._broadcast(ctx, Message(MSG_PROPOSAL, (self.phase, value)))
        self._stage = "report"
        self._action_round += self.step
        ctx.wake_at(self._action_round)

    def _close_proposal_stage(self, ctx: Context) -> None:
        supported = {
            value: count
            for value, count in self._proposals.items()
            if value != BOT
        }
        if supported:
            # At most one value can have majority-backed proposals, but a
            # Byzantine proposer may inject a second: take the best-backed
            # (ties to the smaller bit) so honest nodes stay deterministic.
            best = min(supported, key=lambda v: (-supported[v], v))
            if supported[best] >= self.faulty_bound + 1:
                self._decide(ctx, best)
                return
            self.estimate = best
        else:
            self.estimate = 1 if ctx.rng.random() < 0.5 else 0
        self.phase += 1
        if self.phase > self.max_phases:
            ctx.idle()  # out of phases: stay undecided
            return
        self._reports = Counter()
        self._proposals = Counter()
        self._reports[self.estimate] += 1  # count own report
        self._broadcast(ctx, Message(MSG_REPORT, (self.phase, self.estimate)))
        self._stage = "propose"
        self._action_round += self.step
        ctx.wake_at(self._action_round)

    # -- plumbing --------------------------------------------------------

    def _ingest(self, ctx: Context, inbox: List[Delivery]) -> None:
        for delivery in inbox:
            if delivery.kind == MSG_REPORT:
                phase, bit = delivery.fields
                if phase == self.phase:
                    self._reports[bit] += 1
            elif delivery.kind == MSG_PROPOSAL:
                phase, value = delivery.fields
                if phase == self.phase:
                    self._proposals[value] += 1
            elif delivery.kind == MSG_DECIDE and self.decided is None:
                self._decide(ctx, delivery.fields[0])

    def _decide(self, ctx: Context, bit: int) -> None:
        self.decided = bit
        self._broadcast(ctx, Message(MSG_DECIDE, (bit,)))
        ctx.halt()

    def _broadcast(self, ctx, message: Message) -> None:
        for dst in self._peers:
            ctx.send(dst, message)


class BenOrDecideForger(Protocol):
    """Byzantine Ben-Or node: forges a decide certificate for 0.

    The certificate is unauthenticated, so every honest node adopts the
    forged 0 on receipt — one liar collapses validity even though Ben-Or
    tolerates ``f < n/2`` crashes.  This is the ``zero_forger`` mode of
    the ``ben_or`` chaos scenario.
    """

    def __init__(self, node_id: NodeId, n: int) -> None:
        self.node_id = node_id
        self.n = n
        self.decided: Optional[int] = 0

    def on_start(self, ctx: Context) -> None:
        forged = Message(MSG_DECIDE, (0,))
        for dst in ctx.all_ports():
            ctx.send(dst, forged)
        ctx.halt()


def ben_or_attackers(n: int) -> Dict[str, ProtocolFactory]:
    """Attacker constructors for the Ben-Or family."""
    return {
        "zero_forger": lambda u: BenOrDecideForger(u, n),
    }


def ben_or_consensus(
    n: int,
    inputs: Sequence[int],
    seed: int = 0,
    adversary: Optional[Adversary] = None,
    faulty_count: Optional[int] = None,
    delivery: Optional[DeliverySchedule] = None,
    byzantine: Optional[ByzantinePlan] = None,
    max_phases: int = DEFAULT_MAX_PHASES,
    collect_trace: bool = False,
    timers=None,
) -> BaselineOutcome:
    """Run Ben-Or consensus under ``delivery`` and evaluate it.

    ``faulty_count`` defaults to the protocol's resilience bound
    ``(n - 1) // 2``; a :class:`ByzantinePlan` swaps the designated
    nodes' protocols (omission wraps, ``zero_forger`` forges decide
    certificates) and charges them to the same budget.
    """
    check_inputs(n, inputs)
    return FAMILIES["ben_or"].run(
        n,
        seed=seed,
        adversary=adversary if adversary is not None else Adversary(),
        inputs=inputs,
        faulty_count=(n - 1) // 2 if faulty_count is None else faulty_count,
        delivery=delivery,
        byzantine=byzantine,
        options={"max_phases": max_phases},
        collect_trace=collect_trace,
        timers=timers,
    )
