"""Concrete adversary strategies.

Each strategy is one way an adaptive crash adversary can attack the
protocols.  The portfolio covers the failure modes the paper's proofs
reason about:

* :class:`NoFaults` — the fault-free baseline environment.
* :class:`EagerCrash` — everything faulty crashes in round 1 dropping all
  messages (the "all initiators dead" scenario of Lemma 4).
* :class:`LazyCrash` — faulty nodes survive the whole run and crash in its
  last round (tests the "leader may crash after election" footnote).
* :class:`RandomCrash` — each faulty node crashes in an independently
  random round with a random subset of its last messages delivered.
* :class:`StaggeredCrash` — one crash every ``k`` rounds, in a fixed
  order (the proof's "a single node may crash in each iteration").
* :class:`SplitDeliveryCrash` — crashing nodes deliver to exactly half of
  their destinations, maximising view divergence between receivers.
* :class:`AdaptiveMinProposerCrash` — fully adaptive: watches the wire and
  crashes, among faulty senders, the one currently sending the *smallest*
  rank/value, mid-broadcast, delivering to half its referees.  This is the
  natural worst case for the Section IV-A algorithm (kill the would-be
  leader every iteration).

Every strategy takes its victims in id order, so the order in which
``keep_fraction`` draws from the adversary stream never depends on how a
set happens to iterate.

Every strategy here issues *crashes* only.  To additionally assign some
nodes omission or Byzantine behaviour, wrap any of these in
:class:`repro.faults.byzantine.ByzantineAdversary` with a per-node
:class:`~repro.faults.byzantine.ByzantinePlan` — the wrapped strategy
keeps planning crashes for the non-Byzantine remainder of the fault
budget.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set

from ..types import NodeId, Round
from .adversary import Adversary, CrashOrder, RoundView


def _uniform_faulty(
    n: int, max_faulty: int, rng: random.Random
) -> Set[NodeId]:
    """The default static choice: a uniform random faulty set of full size."""
    if max_faulty <= 0:
        return set()
    return set(rng.sample(range(n), min(max_faulty, n)))


def _smaller_half(view: RoundView, node: NodeId) -> CrashOrder:
    """Deliver only to the smaller half of ``node``'s destinations."""
    destinations = sorted(envelope.dst for envelope in view.outboxes.get(node, []))
    return CrashOrder.keep_destinations(set(destinations[: len(destinations) // 2]))


class NoFaults(Adversary):
    """Fault-free environment: empty faulty set, no crashes."""

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        return set()

    def done(self, view: RoundView) -> bool:
        return True

    def name(self) -> str:
        return "no-faults"


class EagerCrash(Adversary):
    """All faulty nodes crash in round 1, losing every round-1 message."""

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        return _uniform_faulty(n, max_faulty, rng)

    def plan_round(self, view: RoundView, rng: random.Random):
        if view.round != 1:
            return {}
        return {u: CrashOrder.drop_all() for u in sorted(view.faulty_alive)}

    def done(self, view: RoundView) -> bool:
        return view.round > 1 or not view.faulty_alive

    def name(self) -> str:
        return "eager"


class LazyCrash(Adversary):
    """Faulty nodes behave correctly until ``crash_round``, then crash.

    With ``crash_round=None`` they never crash at all (pure "faulty but
    well-behaved" run — the adversary footnote of Definition 1).
    """

    def __init__(self, crash_round: Optional[int] = None) -> None:
        self.crash_round = crash_round

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        return _uniform_faulty(n, max_faulty, rng)

    def plan_round(self, view: RoundView, rng: random.Random):
        if self.crash_round is None or view.round != self.crash_round:
            return {}
        return {u: CrashOrder.drop_all() for u in sorted(view.faulty_alive)}

    def done(self, view: RoundView) -> bool:
        if self.crash_round is None:
            return True
        return view.round > self.crash_round or not view.faulty_alive

    def name(self) -> str:
        return f"lazy@{self.crash_round}" if self.crash_round else "lazy-never"


class _ScheduledCrash(Adversary):
    """Each faulty node crashes in an independent uniform round of
    ``[1, horizon]``; subclasses decide which last messages survive.

    The schedule is bucketed by round, victims in id order, so a round
    costs only its own victims and :meth:`done` is O(1).
    """

    def __init__(self, horizon: int) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self.horizon = horizon
        self._by_round: Dict[Round, List[NodeId]] = {}

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        faulty = _uniform_faulty(n, max_faulty, rng)
        by_round: Dict[Round, List[NodeId]] = {}
        for u in faulty:
            by_round.setdefault(rng.randint(1, self.horizon), []).append(u)
        for victims in by_round.values():
            victims.sort()
        self._by_round = by_round
        return faulty

    def _crash_order(
        self, view: RoundView, node: NodeId, rng: random.Random
    ) -> CrashOrder:
        raise NotImplementedError

    def plan_round(self, view: RoundView, rng: random.Random):
        alive = view.faulty_alive
        return {
            u: self._crash_order(view, u, rng)
            for u in self._by_round.get(view.round, ())
            if u in alive
        }

    def done(self, view: RoundView) -> bool:
        return view.round > self.horizon or not view.faulty_alive


class RandomCrash(_ScheduledCrash):
    """Each faulty node crashes in a random round of ``[1, horizon]``.

    In its crash round, each of its wire messages is delivered
    independently with probability ``keep_probability``.
    """

    def __init__(self, horizon: int, keep_probability: float = 0.5) -> None:
        super().__init__(horizon)
        if not 0.0 <= keep_probability <= 1.0:
            raise ValueError(
                f"keep_probability must be in [0,1], got {keep_probability}"
            )
        self.keep_probability = keep_probability

    def _crash_order(self, view, node, rng):
        return CrashOrder.keep_fraction(self.keep_probability, rng)

    def name(self) -> str:
        return f"random@{self.horizon}"


class StaggeredCrash(Adversary):
    """One faulty node crashes every ``period`` rounds, dropping everything.

    Mirrors the convergence argument of Theorem 4.1 ("a single node may
    crash in each iteration").
    """

    def __init__(self, period: int = 4, start_round: int = 1) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.period = period
        self.start_round = start_round
        self._order: Sequence[NodeId] = ()

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        faulty = _uniform_faulty(n, max_faulty, rng)
        order = sorted(faulty)
        rng.shuffle(order)
        self._order = order
        return faulty

    def plan_round(self, view: RoundView, rng: random.Random):
        since = view.round - self.start_round
        if since < 0 or since % self.period != 0:
            return {}
        index = since // self.period
        if index >= len(self._order):
            return {}
        victim = self._order[index]
        if victim not in view.faulty_alive:
            return {}
        return {victim: CrashOrder.drop_all()}

    def done(self, view: RoundView) -> bool:
        if not view.faulty_alive:
            return True
        last = self.start_round + self.period * (len(self._order) - 1)
        return view.round > last

    def name(self) -> str:
        return f"staggered/{self.period}"


class SplitDeliveryCrash(_ScheduledCrash):
    """Like :class:`RandomCrash`, but a crashing node delivers to exactly
    the lexicographically smaller half of its destinations.

    This maximises the chance that two receivers end up with inconsistent
    views of the crashed sender, the core difficulty of Section IV-A.
    """

    def _crash_order(self, view, node, rng):
        return _smaller_half(view, node)

    def name(self) -> str:
        return f"split@{self.horizon}"


class AdaptiveMinProposerCrash(Adversary):
    """Fully adaptive attack on rank-based protocols.

    Every ``period`` rounds it inspects the wire: among faulty senders it
    crashes the one whose outgoing messages carry the smallest integer
    field (the would-be minimum-rank leader, or the value-0 propagator in
    the agreement protocol), delivering to only half of its destinations.
    """

    def __init__(self, period: int = 1) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.period = period
        self._budget: int = 0

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        faulty = _uniform_faulty(n, max_faulty, rng)
        self._budget = len(faulty)
        return faulty

    @staticmethod
    def _min_field(view: RoundView, node: NodeId) -> Optional[int]:
        values = [
            value
            for envelope in view.outboxes.get(node, [])
            for value in envelope.message.fields
            if value is not None
        ]
        return min(values) if values else None

    def plan_round(self, view: RoundView, rng: random.Random):
        if view.round % self.period != 0:
            return {}
        scored = []
        for u in view.sending_faulty():
            smallest = self._min_field(view, u)
            if smallest is not None:
                scored.append((smallest, u))
        if not scored:
            return {}
        _, victim = min(scored)
        return {victim: _smaller_half(view, victim)}

    def done(self, view: RoundView) -> bool:
        # Adaptive: may strike whenever a faulty node is still sending, but
        # once the network is quiescent nothing it does is observable.
        return True

    def name(self) -> str:
        return "adaptive-min"


class RefereeCrash(Adversary):
    """Attacks Lemma 3: crashes the *referees* of candidates.

    Watches round-1 registrations and crashes, among the faulty nodes,
    precisely those that were sampled as referees (they are identifiable:
    faulty referees receive registrations in round 2 and forward rank
    lists from round 2 on — this adversary crashes them before they can,
    dropping everything).  Lemma 3's w.h.p. guarantee — every candidate
    pair keeps a common *non-faulty* referee — is exactly what the
    protocol needs to survive this strategy.
    """

    def __init__(self, crash_round: int = 2) -> None:
        if crash_round < 1:
            raise ValueError(f"crash_round must be >= 1, got {crash_round}")
        self.crash_round = crash_round

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        return _uniform_faulty(n, max_faulty, rng)

    def plan_round(self, view: RoundView, rng: random.Random):
        if view.round != self.crash_round:
            return {}
        # Faulty nodes acting as referees are exactly the faulty senders
        # at the start of the forwarding phase.
        victims = view.sending_faulty()
        return {u: CrashOrder.drop_all() for u in victims}

    def done(self, view: RoundView) -> bool:
        return view.round > self.crash_round or not view.faulty_alive

    def name(self) -> str:
        return f"referee-crash@{self.crash_round}"


class CandidateHunter(Adversary):
    """Adaptive-*selection* adversary: corrupts whoever speaks first.

    The paper's model fixes the faulty set before the execution (static
    selection).  This strategy shows why: it watches round 1, corrupts
    exactly the nodes that send (the self-selected candidates) up to the
    fault budget, and crashes them dropping everything.  Against it, the
    committee approach fails whenever the committee fits inside the
    budget — experiment E14 measures the collapse.
    """

    dynamic_selection = True

    def __init__(self, rounds: int = 3) -> None:
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        return set()  # selection happens adaptively

    def plan_round(self, view: RoundView, rng: random.Random):
        if view.round > self.rounds:
            return {}
        budget = view.budget_remaining + len(view.faulty_alive)
        orders: Dict[NodeId, CrashOrder] = {}
        for sender in sorted(view.outboxes):
            if sender in view.crashed:
                continue
            if len(orders) >= budget:
                break
            orders[sender] = CrashOrder.drop_all()
        return orders

    def done(self, view: RoundView) -> bool:
        return view.round > self.rounds

    def name(self) -> str:
        return f"candidate-hunter@{self.rounds}"


def standard_portfolio(horizon: int) -> Sequence[Adversary]:
    """The adversary portfolio used across tests and experiments."""
    return (
        NoFaults(),
        EagerCrash(),
        LazyCrash(crash_round=max(1, horizon - 1)),
        RandomCrash(horizon=horizon),
        StaggeredCrash(period=4),
        SplitDeliveryCrash(horizon=horizon),
        AdaptiveMinProposerCrash(),
    )


def named_adversary(name: str, horizon: int) -> Adversary:
    """Instantiate a portfolio adversary by short name (CLI/experiments)."""
    table = {
        "none": NoFaults(),
        "eager": EagerCrash(),
        "lazy": LazyCrash(crash_round=max(1, horizon - 1)),
        "random": RandomCrash(horizon=horizon),
        "staggered": StaggeredCrash(period=4),
        "split": SplitDeliveryCrash(horizon=horizon),
        "adaptive": AdaptiveMinProposerCrash(),
        "hunter": CandidateHunter(),
        "referees": RefereeCrash(),
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"unknown adversary {name!r}; choose from {sorted(table)}"
        ) from None
