"""First-class Byzantine and omission faults.

The paper's model (and :mod:`repro.faults.adversary`) is *crash* faults: a
faulty node follows the protocol until it stops.  This module adds the two
stronger rungs of the classic fault hierarchy:

* **omission** — :class:`SelectiveOmission` wraps any honest protocol and
  silently drops a deterministic fraction of its outgoing messages; the
  node still computes honestly, it just fails to speak;
* **Byzantine** — attacker protocols that actively lie:
  :class:`ZeroForger` (agreement: injects a value it does not hold,
  breaking validity), :class:`RankForger` (election: claims the guaranteed
  minimum rank, stealing the election), :class:`Equivocator` (election:
  tells each half of its referees a different rank, splitting views).

A :class:`ByzantinePlan` assigns a per-node misbehaviour mode; it composes
with any crash strategy through :class:`ByzantineAdversary`, so a single
run can mix crashing, omitting, and lying nodes under one fault budget —
this is the "selectable per-node alongside crashes" model of ROADMAP
item 5.  Everything is deterministic: omission coins hash a recorded salt
(:func:`repro.rng.derive_seed`), never an RNG at send time, so fuzzed
plans replay and shrink exactly.

The attackers only do things any KT0 node could do (send well-formed
CONGEST messages through sampled ports); no engine rules are bent.  The
measured collapse of the paper's guarantees under these attackers is the
content of experiment E15 and motivates why sub-linear *Byzantine*
agreement (the paper's open problem 3) is open.  Whole runs go through
the usual entry points: ``elect_leader(..., byzantine=plan)`` and
``agree(..., byzantine=plan)`` swap the plan's attackers in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Sequence, Set

from ..core.agreement import MSG_VALUE, AgreementProtocol
from ..core.leader_election import (
    MSG_CONFIRM,
    MSG_PROPOSE,
    MSG_RANK,
    LeaderElectionProtocol,
)
from ..errors import ConfigurationError
from ..rng import derive_seed
from ..sim.message import Message
from ..sim.node import Protocol
from ..types import NodeId
from .adversary import Adversary, CrashOrder, RoundView

#: Modes a :class:`ByzantinePlan` may assign to a node, by protocol family.
ELECTION_MODES = ("rank_forger", "equivocator", "omission")
AGREEMENT_MODES = ("zero_forger", "omission")
#: All recognised per-node misbehaviour modes.
BYZANTINE_MODES = ("zero_forger", "rank_forger", "equivocator", "omission")

#: Resolution of the deterministic omission coin.
_OMISSION_BUCKETS = 1 << 20


# ----------------------------------------------------------------------
# Attacker protocols
# ----------------------------------------------------------------------


class ZeroForger(AgreementProtocol):
    """Byzantine agreement candidate: forges a 0 despite holding a 1."""

    def on_start(self, ctx) -> None:
        self.is_candidate = True  # always joins the committee
        self._referees = ctx.sample_nodes(self.params.referee_count)
        # Lie: register a 0 regardless of the real input bit.
        forged = Message(MSG_VALUE, (0,))
        for referee in self._referees:
            ctx.send(referee, forged)
        self._sent_zero = True
        ctx.idle()


class RankForger(LeaderElectionProtocol):
    """Byzantine election candidate: claims rank 1 (the guaranteed
    minimum, hence the guaranteed winner)."""

    def _draw_rank(self, ctx) -> int:
        return 1  # the smallest admissible rank always wins

    def on_start(self, ctx) -> None:
        super().on_start(ctx)
        if not self.is_candidate:
            # A Byzantine node always volunteers.
            self.is_candidate = True
            self._rank_list = {self.rank}
            self._referees = ctx.sample_nodes(self.params.referee_count)
            announce = Message(MSG_RANK, (self.rank,))
            for referee in self._referees:
                ctx.send(referee, announce)
            ctx.wake_at(self.schedule.iteration_start)


class Equivocator(LeaderElectionProtocol):
    """Byzantine election candidate: tells each half of its referees a
    different rank, then supports both, splitting the committee's view."""

    def on_start(self, ctx) -> None:
        super().on_start(ctx)
        self.is_candidate = True
        if not self._referees:
            self._referees = ctx.sample_nodes(self.params.referee_count)
        self._low_rank = 2
        self._high_rank = self.params.rank_space - 1
        half = len(self._referees) // 2
        for referee in self._referees[:half]:
            ctx.send(referee, Message(MSG_RANK, (self._low_rank,)))
        for referee in self._referees[half:]:
            ctx.send(referee, Message(MSG_RANK, (self._high_rank,)))
        ctx.wake_at(self.schedule.iteration_start)

    def on_round(self, ctx, inbox) -> None:
        # Keep referees confused: claim both identities as own proposals.
        half = len(self._referees) // 2
        if ctx.round >= self.schedule.iteration_start and ctx.round % 4 == 0:
            for referee in self._referees[:half]:
                ctx.send(referee, Message(MSG_PROPOSE, (self._low_rank, self._low_rank)))
            for referee in self._referees[half:]:
                ctx.send(
                    referee,
                    Message(MSG_CONFIRM, (self._high_rank, self._high_rank)),
                )
        # Still act as a referee for others (delegating the passive logic).
        proposals = [
            d.fields for d in inbox if d.kind in (MSG_PROPOSE, MSG_CONFIRM)
        ]
        registrations = [
            (d.sender, d.fields[0]) for d in inbox if d.kind == MSG_RANK
        ]
        if registrations:
            self._referee_register(ctx, registrations)
        if proposals:
            self._referee_aggregate(ctx, proposals)
        ctx.wake_at(ctx.round + 4)


# ----------------------------------------------------------------------
# Selective omission
# ----------------------------------------------------------------------


class _OmittingContext:
    """Context proxy that silently swallows a fraction of outgoing sends.

    The coin is ``derive_seed(salt, dst, round)`` — deterministic per
    (destination, round), so a replay of the same plan omits the same
    messages.  Everything else delegates to the real
    :class:`~repro.sim.node.Context`.
    """

    __slots__ = ("_ctx", "_threshold", "_salt")

    def __init__(self, ctx, fraction: float, salt: int) -> None:
        self._ctx = ctx
        self._threshold = int(fraction * _OMISSION_BUCKETS)
        self._salt = salt

    def send(self, dst: NodeId, message: Message) -> None:
        coin = derive_seed(self._salt, dst, self._ctx.round) % _OMISSION_BUCKETS
        if coin < self._threshold:
            return  # omitted: the node believes it spoke, nobody heard
        self._ctx.send(dst, message)

    def send_many(self, dsts: Sequence[NodeId], message: Message) -> None:
        # Must route through the proxy's send (the real context's
        # send_many would bypass the omission coin).
        for dst in dsts:
            self.send(dst, message)

    def __getattr__(self, name: str):
        return getattr(self._ctx, name)


class SelectiveOmission(Protocol):
    """Wrap an honest protocol so it drops part of its outgoing traffic.

    The inner protocol runs unmodified — same state machine, same RNG
    draws — but each of its sends is suppressed with probability
    ``fraction`` (deterministically, keyed on ``salt``).  Attribute reads
    fall through to the inner protocol, so result evaluators see the usual
    ``state`` / ``decision`` / ``rank`` attributes.
    """

    def __init__(self, inner: Protocol, fraction: float, salt: int) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(
                f"omission fraction must be in [0,1], got {fraction}"
            )
        self.inner = inner
        self.fraction = fraction
        self.salt = salt

    def _wrap(self, ctx) -> _OmittingContext:
        return _OmittingContext(ctx, self.fraction, self.salt)

    def on_start(self, ctx) -> None:
        self.inner.on_start(self._wrap(ctx))

    def on_round(self, ctx, inbox) -> None:
        self.inner.on_round(self._wrap(ctx), inbox)

    def on_stop(self, ctx) -> None:
        self.inner.on_stop(self._wrap(ctx))

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


# ----------------------------------------------------------------------
# Per-node fault plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ByzantinePlan:
    """Per-node misbehaviour assignment (the Byzantine side of a run).

    ``modes`` maps a node id to one of :data:`BYZANTINE_MODES`.  The plan
    is inert data: :func:`plan_factory` turns it into a protocol factory,
    :class:`ByzantineAdversary` charges it against the fault budget.  Like
    :class:`~repro.chaos.script.CrashScript`, a plan is structurally
    editable (for the shrinker) and JSON round-trippable (for the chaos
    journal).
    """

    modes: Mapping[NodeId, str] = field(default_factory=dict)
    #: Probability that a :class:`SelectiveOmission` node drops any one
    #: outgoing message.
    omission_fraction: float = 0.75
    #: Salt for the deterministic omission coins.
    salt: int = 0

    def __post_init__(self) -> None:
        for node, mode in self.modes.items():
            if mode not in BYZANTINE_MODES:
                raise ConfigurationError(
                    f"unknown byzantine mode {mode!r} for node {node}; "
                    f"choose from {BYZANTINE_MODES}"
                )
        if not 0.0 <= self.omission_fraction <= 1.0:
            raise ConfigurationError(
                f"omission_fraction must be in [0,1], "
                f"got {self.omission_fraction}"
            )

    @property
    def nodes(self) -> Set[NodeId]:
        """The Byzantine node set (counts against the fault budget)."""
        return set(self.modes)

    def __len__(self) -> int:
        return len(self.modes)

    # -- structural edits (used by the shrinker) -----------------------

    def without_node(self, node: NodeId) -> "ByzantinePlan":
        """The same plan with ``node`` honest again."""
        modes = {u: m for u, m in self.modes.items() if u != node}
        return ByzantinePlan(
            modes=modes,
            omission_fraction=self.omission_fraction,
            salt=self.salt,
        )

    def with_mode(self, node: NodeId, mode: str) -> "ByzantinePlan":
        """The same plan with ``node`` reassigned to ``mode``."""
        modes = dict(self.modes)
        modes[node] = mode
        return ByzantinePlan(
            modes=modes,
            omission_fraction=self.omission_fraction,
            salt=self.salt,
        )

    # -- serialisation --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form; inverse of :meth:`from_dict`."""
        return {
            "modes": {str(u): mode for u, mode in sorted(self.modes.items())},
            "omission_fraction": self.omission_fraction,
            "salt": self.salt,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ByzantinePlan":
        modes_raw = data.get("modes", {})
        return cls(
            modes={int(u): str(m) for u, m in dict(modes_raw).items()},  # type: ignore[arg-type]
            omission_fraction=float(data.get("omission_fraction", 0.75)),  # type: ignore[arg-type]
            salt=int(data.get("salt", 0)),  # type: ignore[arg-type]
        )


#: A per-node protocol constructor.
ProtocolFactory = Callable[[NodeId], Protocol]


def plan_factory(
    plan: ByzantinePlan,
    honest_factory: ProtocolFactory,
    attacker_factories: Optional[Mapping[str, ProtocolFactory]] = None,
) -> ProtocolFactory:
    """Wrap ``honest_factory`` so plan-designated nodes misbehave.

    ``attacker_factories`` maps protocol-family-specific modes (e.g.
    ``rank_forger``) to constructors; ``omission`` needs none — it wraps
    the honest instance.  An unmapped non-omission mode is a configuration
    error naming the node, so a plan sampled for the wrong protocol family
    fails loudly instead of running half-honest.
    """
    attackers = dict(attacker_factories or {})

    def factory(u: NodeId) -> Protocol:
        mode = plan.modes.get(u)
        if mode is None:
            return honest_factory(u)
        if mode == "omission":
            return SelectiveOmission(
                honest_factory(u),
                plan.omission_fraction,
                derive_seed(plan.salt, "omission", u),
            )
        maker = attackers.get(mode)
        if maker is None:
            raise ConfigurationError(
                f"byzantine mode {mode!r} (node {u}) is not available for "
                f"this protocol family; known modes: "
                f"{('omission',) + tuple(sorted(attackers))}"
            )
        return maker(u)

    return factory


def election_attackers(params, schedule) -> Dict[str, ProtocolFactory]:
    """Attacker constructors for the leader-election family."""
    return {
        "rank_forger": lambda u: RankForger(u, params, schedule),
        "equivocator": lambda u: Equivocator(u, params, schedule),
    }


def agreement_attackers(
    params, schedule, inputs: Sequence[int]
) -> Dict[str, ProtocolFactory]:
    """Attacker constructors for the agreement family."""
    return {
        "zero_forger": lambda u: ZeroForger(u, params, schedule, inputs[u]),
    }


# ----------------------------------------------------------------------
# Budget-charged composition with crash adversaries
# ----------------------------------------------------------------------


class ByzantineAdversary(Adversary):
    """Compose a :class:`ByzantinePlan` with any crash adversary.

    The Byzantine nodes join the static faulty set (they *are* faulty —
    the paper's budget ``f <= (1 - alpha) n`` covers all misbehaviour),
    but they never crash: their damage happens at the protocol layer.  The
    wrapped crash adversary sees a view without them and plans crashes for
    the remaining budget, so one run mixes lying, omitting, and crashing
    nodes under a single fault budget.
    """

    def __init__(
        self, plan: ByzantinePlan, crash: Optional[Adversary] = None
    ) -> None:
        self.plan = plan
        self.crash = crash if crash is not None else Adversary()
        self._byzantine = frozenset(plan.modes)
        self.dynamic_selection = self.crash.dynamic_selection

    def select_faulty(
        self,
        n: int,
        max_faulty: int,
        rng: random.Random,
        inputs: Optional[Sequence[int]] = None,
    ) -> Set[NodeId]:
        byzantine = set(self._byzantine)
        if len(byzantine) > max_faulty:
            raise ConfigurationError(
                f"byzantine plan assigns {len(byzantine)} nodes, fault "
                f"budget is {max_faulty}"
            )
        remaining = max_faulty - len(byzantine)
        crash_faulty = (
            set(self.crash.select_faulty(n, remaining, rng, inputs))
            - byzantine
        )
        return byzantine | crash_faulty

    def _crash_view(self, view: RoundView) -> RoundView:
        """The wrapped adversary's view: Byzantine nodes are not crashable."""
        byzantine = self._byzantine
        return replace(
            view, faulty_alive={u for u in view.faulty_alive if u not in byzantine}
        )

    def plan_round(
        self, view: RoundView, rng: random.Random
    ) -> Dict[NodeId, CrashOrder]:
        orders = self.crash.plan_round(self._crash_view(view), rng)
        # Defence in depth: a buggy strategy must not crash a Byzantine
        # node (they stay up and keep lying).
        return {u: o for u, o in orders.items() if u not in self._byzantine}

    def done(self, view: RoundView) -> bool:
        # Byzantine nodes never crash, so only the crash part gates the
        # quiescence fast-forward.
        return self.crash.done(self._crash_view(view))

    def name(self) -> str:
        return f"byz[{len(self._byzantine)}]+{self.crash.name()}"
