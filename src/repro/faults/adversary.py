"""Adversary interface.

The engine consults the adversary twice:

* once before the run, :meth:`Adversary.select_faulty` — the *static*
  choice of the faulty set (paper, Section II: "a static adversary ...
  selects the faulty nodes before the execution starts");
* every round, :meth:`Adversary.plan_round` — the *adaptive* choice of
  which faulty nodes crash this round and which subset of each crashing
  node's outgoing messages is still delivered.

The adversary is omniscient: the :class:`RoundView` exposes the messages
faulty nodes are sending this round and (for fully adaptive strategies)
the protocol objects themselves.  Both engines keep the resulting fault
state in one :class:`FaultLedger`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from ..types import NodeId, Round

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoid cycles)
    from ..sim.message import Envelope
    from ..sim.node import Protocol


@dataclass(frozen=True)
class CrashOrder:
    """Instruction to crash one node this round.

    ``keep`` decides, per outgoing envelope of the crashing node in its
    crash round, whether the message is still delivered.  The two common
    extremes have named constructors.
    """

    keep: Callable[["Envelope"], bool]

    @staticmethod
    def drop_all() -> "CrashOrder":
        """Crash losing every message of the crash round."""
        return CrashOrder(keep=lambda envelope: False)

    @staticmethod
    def keep_all() -> "CrashOrder":
        """Crash after the crash round's messages are all delivered."""
        return CrashOrder(keep=lambda envelope: True)

    @staticmethod
    def keep_fraction(fraction: float, rng: random.Random) -> "CrashOrder":
        """Deliver each crash-round message independently w.p. ``fraction``."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0,1], got {fraction}")
        return CrashOrder(keep=lambda envelope: rng.random() < fraction)

    @staticmethod
    def keep_destinations(kept: Set[NodeId]) -> "CrashOrder":
        """Deliver only messages addressed to nodes in ``kept``."""
        return CrashOrder(keep=lambda envelope: envelope.dst in kept)


@dataclass
class RoundView:
    """What the adversary sees when planning a round."""

    round: Round
    n: int
    #: Faulty nodes that have not crashed yet.  Engines pass their live
    #: set itself: read it, never mutate it, and do not keep it past the
    #: call it was handed to.
    faulty_alive: Set[NodeId]
    #: Nodes already crashed, with their crash round.
    crashed: Dict[NodeId, Round]
    #: This round's outgoing envelopes of each faulty alive node (for a
    #: dynamic-selection adversary: of *every* sending node).
    outboxes: Mapping[NodeId, Sequence["Envelope"]]
    #: All protocol instances (index = node id); adaptive strategies may
    #: inspect but must not mutate them.
    protocols: Sequence["Protocol"] = field(default_factory=list)
    #: How many more nodes a dynamic-selection adversary may corrupt.
    budget_remaining: int = 0

    def sending_faulty(self) -> List[NodeId]:
        """Faulty alive nodes sending at least one message now, in id order."""
        return [u for u in sorted(self.faulty_alive) if self.outboxes.get(u)]


class Adversary:
    """Base adversary: fault-free (never selects, never crashes)."""

    def select_faulty(
        self,
        n: int,
        max_faulty: int,
        rng: random.Random,
        inputs: Optional[Sequence[int]] = None,
    ) -> Set[NodeId]:
        """Choose the static faulty set (size ``<= max_faulty``).

        ``inputs`` carries the agreement input bits when relevant — the
        static adversary assigns inputs and faults together in the paper's
        model, so it may correlate them.
        """
        return set()

    #: Whether this adversary selects its victims *during* the execution
    #: (an *adaptive-selection* adversary).  The paper's model is static
    #: selection (False); the adaptive variant exists so experiment E14
    #: can demonstrate why the distinction matters.  When True, the engine
    #: allows :meth:`plan_round` to crash any node, charging each new
    #: victim against the fault budget.
    dynamic_selection: bool = False

    def plan_round(self, view: RoundView, rng: random.Random) -> Dict[NodeId, CrashOrder]:
        """Return the nodes crashing this round with their delivery filters.

        Keys must be members of ``view.faulty_alive`` — unless
        :attr:`dynamic_selection` is True, in which case any alive node may
        be targeted while the fault budget lasts.
        """
        return {}

    def done(self, view: RoundView) -> bool:
        """True when the adversary will issue no further crashes.

        The engine may fast-forward quiescent suffixes of a run only once
        this returns True, so strategies with late scheduled crashes must
        report accurately.  The default is conservative: done when every
        faulty node has crashed.
        """
        return not view.faulty_alive

    # -- convenience ----------------------------------------------------

    def name(self) -> str:
        """Short human-readable name (used in experiment tables)."""
        return type(self).__name__


class FaultLedger:
    """The fault state of one run: the checked static selection, the
    crash rounds, and ``alive`` (the faulty nodes not crashed yet), which
    :meth:`crash` updates in place so :meth:`view` never rebuilds it.
    """

    def __init__(
        self,
        adversary: Adversary,
        n: int,
        max_faulty: int,
        rng: random.Random,
        inputs: Optional[Sequence[int]] = None,
    ) -> None:
        self.adversary = adversary
        self.n = n
        self.max_faulty = max_faulty
        #: The adversary stream: selection, then every ``plan_round``.
        self.rng = rng
        self.faulty: Set[NodeId] = set(
            adversary.select_faulty(n, max_faulty, rng, inputs)
        )
        if len(self.faulty) > max_faulty:
            raise SimulationError(
                f"adversary selected {len(self.faulty)} faulty nodes, "
                f"budget is {max_faulty}"
            )
        unknown = sorted(u for u in self.faulty if not 0 <= u < n)
        if unknown:
            raise SimulationError(
                f"adversary selected node ids {unknown} outside the "
                f"network's range(n) for n={n}"
            )
        self.crashed: Dict[NodeId, Round] = {}
        self.alive: Set[NodeId] = set(self.faulty)

    def view(
        self,
        round_: Round,
        outboxes: Mapping[NodeId, Sequence["Envelope"]],
        protocols: Sequence["Protocol"] = (),
    ) -> RoundView:
        """The adversary's view of ``round_``; O(1), shares ``alive``."""
        return RoundView(
            round=round_,
            n=self.n,
            faulty_alive=self.alive,
            crashed=self.crashed,
            outboxes=outboxes,
            protocols=protocols,
            budget_remaining=max(0, self.max_faulty - len(self.faulty)),
        )

    def crash(
        self, orders: Mapping[NodeId, CrashOrder], round_: Round
    ) -> List[Tuple[NodeId, CrashOrder]]:
        """Apply ``plan_round``'s orders; return the new crashes in order.

        A victim outside the faulty set is an adversary bug, unless the
        adversary selects dynamically: then the victim is corrupted on the
        spot and charged to the budget (paper: static selection only —
        this path exists for experiment E14's demonstration).  Victims
        that already crashed are skipped.
        """
        new: List[Tuple[NodeId, CrashOrder]] = []
        for victim, order in orders.items():
            if victim not in self.faulty:
                if not self.adversary.dynamic_selection:
                    raise SimulationError(
                        f"adversary crashed non-faulty node {victim}"
                    )
                if len(self.faulty) >= self.max_faulty:
                    raise SimulationError(
                        "dynamic-selection adversary exceeded the fault "
                        f"budget {self.max_faulty}"
                    )
                self.faulty.add(victim)
            elif victim in self.crashed:
                continue
            self.crashed[victim] = round_
            self.alive.discard(victim)
            new.append((victim, order))
        return new
