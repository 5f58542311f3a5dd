"""Shared machinery of the vectorized engine backend.

Everything here exists to make the array engines *bit-compatible* with
the reference engine:

* :func:`mirror_sample` replays :meth:`repro.sim.node.Context.sample_nodes`
  draw-for-draw on a node's private rng stream;
* :func:`field_bits` is the closed form of the CONGEST field size used by
  :func:`repro.sim.message.payload_bits` (no log arithmetic in hot loops);
* :class:`LazyOutboxes` hands the *real* adversary objects the outbox of a
  crash victim in the reference engine's exact wire order, materialising
  real :class:`~repro.sim.message.Envelope` objects only on demand — so
  ``CrashOrder.keep()`` consumes the adversary rng in the identical
  sequence;
* :class:`VecEngineBase` drives the real :class:`~repro.faults.Adversary`
  (``select_faulty`` / ``plan_round`` / ``done``) through the same
  :class:`~repro.faults.adversary.FaultLedger` as the reference engine.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ...errors import VecUnsupported
from ...faults.adversary import Adversary, FaultLedger
from ...faults.strategies import (
    EagerCrash,
    LazyCrash,
    NoFaults,
    RandomCrash,
    RefereeCrash,
    SplitDeliveryCrash,
    StaggeredCrash,
)
from ...optdeps import require_numpy
from ...rng import RngFactory
from ...sim.message import Envelope
from ...sim.metrics import Metrics
from ...sim.network import RunResult
from ...types import NodeId, Round

#: Adversary classes the vec backend reproduces exactly.  The check is by
#: exact type: a subclass may override ``plan_round`` in ways the mirrored
#: view does not cover, so it conservatively falls back to the reference
#: engine.
VEC_ADVERSARIES: Tuple[type, ...] = (
    Adversary,
    NoFaults,
    EagerCrash,
    LazyCrash,
    RandomCrash,
    StaggeredCrash,
    SplitDeliveryCrash,
    RefereeCrash,
)


def ensure_vec_supported(
    adversary: Adversary,
    *,
    collect_trace: bool = False,
    message_budget: Optional[int] = None,
    timers: Optional[object] = None,
    delivery: Optional[object] = None,
    byzantine: Optional[object] = None,
) -> None:
    """Raise :class:`VecUnsupported` for configurations vec cannot mirror.

    Called before any engine state is built, so a caller may catch the
    error and fall back to the reference engine with zero side effects.
    """
    if type(adversary) not in VEC_ADVERSARIES:
        raise VecUnsupported(
            f"adversary {adversary.name()!r} ({type(adversary).__name__}) "
            "is not in the vec backend's exact-parity set"
        )
    if adversary.dynamic_selection:
        raise VecUnsupported("dynamic-selection adversaries are not vectorized")
    if collect_trace:
        raise VecUnsupported("trace collection requires the reference engine")
    if message_budget is not None:
        raise VecUnsupported("message budgets require the reference engine")
    if timers is not None:
        raise VecUnsupported("phase profiling requires the reference engine")
    if delivery is not None and getattr(delivery, "max_delay", 0):
        raise VecUnsupported("bounded-delay delivery requires the reference engine")
    if byzantine is not None and getattr(byzantine, "modes", None):
        raise VecUnsupported("Byzantine plans require the reference engine")


def mirror_sample(
    rng: random.Random, n: int, self_id: int, k: int
) -> List[int]:
    """Exact replay of ``Context.sample_nodes`` on a node's rng stream."""
    if k > (n - 1) // 2:
        candidates = [i for i in range(n) if i != self_id]
        return rng.sample(candidates, k)
    sampled: List[int] = []
    seen = {self_id}
    randrange = rng.randrange
    seen_add = seen.add
    append = sampled.append
    while len(sampled) < k:
        pick = randrange(n)
        if pick not in seen:
            seen_add(pick)
            append(pick)
    return sampled


def field_bits(value: int) -> int:
    """CONGEST size of one non-None integer field.

    Closed form of ``max(1, ceil(log2(|v| + 2)))`` for ``v >= 0``:
    ``(v + 1).bit_length()``.
    """
    return (value + 1).bit_length()


class LazyOutboxes(Mapping):
    """The ``RoundView.outboxes`` mapping, materialised on demand.

    The reference engine only tracks outboxes of faulty senders (static
    selection), so the mapping's domain is the faulty alive nodes that
    transmitted this round; each value is the sender's wire batch in the
    reference engine's exact envelope order.
    """

    def __init__(self, engine: "VecEngineBase", round_: Round) -> None:
        self._engine = engine
        self._round = round_

    def __getitem__(self, sender: NodeId) -> Sequence[Envelope]:
        outbox = self._engine._outbox_envelopes(sender, self._round)
        if not outbox:
            raise KeyError(sender)
        return outbox

    def get(self, sender: NodeId, default: Any = None) -> Any:
        outbox = self._engine._outbox_envelopes(sender, self._round)
        return outbox if outbox else default

    def __contains__(self, sender: object) -> bool:
        if not isinstance(sender, int):
            return False
        return bool(self._engine._outbox_envelopes(sender, self._round))

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._engine._outbox_senders(self._round))

    def __len__(self) -> int:
        return len(self._engine._outbox_senders(self._round))


class VecEngineBase:
    """Adversary plumbing shared by the protocol-specific array engines.

    Subclasses provide two hooks:

    * ``_outbox_envelopes(sender, r)`` — the sender's transmitted wire
      batch this round as real envelopes, in reference wire order;
    * ``_discard_queues(victim, r)`` — drop the victim's untransmitted
      backlog from the queued-total bookkeeping.
    """

    n: int
    total_rounds: Round
    #: numpy module, and the per-node sent counts as an int64 array.
    np: Any
    pn: Any

    def _init_adversary(
        self,
        seed: int,
        adversary: Adversary,
        max_faulty: int,
        inputs: Optional[Sequence[int]],
    ) -> None:
        self.adversary = adversary
        self.ledger = FaultLedger(
            adversary, self.n, max_faulty, RngFactory(seed).adversary_stream(), inputs
        )
        self.faulty = self.ledger.faulty
        self.crashed = self.ledger.crashed
        self.metrics = Metrics()
        self._outbox_cache: Dict[NodeId, List[Envelope]] = {}

    # -- hooks ----------------------------------------------------------

    def _outbox_envelopes(self, sender: NodeId, r: Round) -> List[Envelope]:
        raise NotImplementedError

    def _discard_queues(self, victim: NodeId, r: Round) -> None:
        raise NotImplementedError

    # -- adversary driving ----------------------------------------------

    def _outbox_senders(self, r: Round) -> List[NodeId]:
        """Faulty alive senders with a non-empty batch, in id order."""
        return [u for u in sorted(self.ledger.alive) if self._outbox_envelopes(u, r)]

    def _adversary_done(self, r: Round) -> bool:
        return self.adversary.done(self.ledger.view(r, {}))

    def _crash_phase(self, r: Round) -> Set[Tuple[NodeId, NodeId]]:
        """Run ``plan_round`` and process the orders; return dropped edges.

        Mirrors the reference engine: the victim's transmitted batch this
        round is filtered per envelope by ``order.keep`` (in wire order —
        this is where ``keep_fraction`` consumes the adversary rng), its
        untransmitted backlog is discarded, and drops are keyed by edge
        (CONGEST: unique per round).
        """
        self._outbox_cache = {}
        ledger = self.ledger
        orders = self.adversary.plan_round(
            ledger.view(r, LazyOutboxes(self, r)), ledger.rng
        )
        dropped: Set[Tuple[NodeId, NodeId]] = set()
        for victim, order in ledger.crash(orders, r):
            self.metrics.record_crash()
            self._discard_queues(victim, r)
            for envelope in self._outbox_envelopes(victim, r):
                if not order.keep(envelope):
                    dropped.add((envelope.src, envelope.dst))
                    self.metrics.record_drop()
        return dropped

    def _cached_outbox(self, sender: NodeId, build) -> List[Envelope]:
        outbox = self._outbox_cache.get(sender)
        if outbox is None:
            outbox = self._outbox_cache[sender] = build()
        return outbox

    def _run_result(self, protocols: Sequence[Any]) -> RunResult:
        """Finalize the metrics and package the run like the reference."""
        metrics = self.metrics
        metrics.rounds = metrics.rounds_executed
        metrics.horizon = self.total_rounds
        for u in self.np.flatnonzero(self.pn).tolist():
            metrics.per_node_sent[u] = int(self.pn[u])
        return RunResult(
            n=self.n,
            protocols=protocols,
            metrics=metrics,
            trace=None,
            faulty=self.faulty,
            crashed=dict(self.crashed),
            rounds=metrics.rounds_executed,
            horizon=self.total_rounds,
            max_delay=0,
        )


def np_module() -> Any:
    """The numpy module (raises :class:`BackendUnavailable` when absent)."""
    return require_numpy()
