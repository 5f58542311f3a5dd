"""Vectorized flooding-consensus engine (exact mirror of the reference run).

The O(n^2) baseline floods the complete graph, so materialising edges is
exactly the cost the vec backend exists to avoid.  Two observations make
the run arithmetic instead:

* with binary inputs, every re-broadcast after round 1 carries ``0`` (an
  estimate only ever improves ``1 -> 0``), so "node u hears a zero in
  round r" is pure set logic over the round's zero-broadcaster set: one
  surviving non-victim zero-sender reaches *every* alive node, and victim
  senders reach everyone outside their per-envelope drop set;
* a broadcast is ``n - 1`` identical envelopes, so per-sender
  delivered/expired counts are closed-form (``n - 1`` minus the crashed
  destinations minus the dropped ones) rather than per-envelope loops.

Crash victims still get real per-envelope treatment: their ``n - 1``
envelope batch is materialised in reference wire order (destinations
``0..n-1`` skipping self) so ``CrashOrder.keep`` consumes the adversary
rng identically.  Queues never backlog (every enqueue transmits the same
round), so there are no FIFOs at all.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...baselines.flooding import MSG_FLOOD
from ...faults.adversary import Adversary
from ...sim.message import Envelope, Message
from ...sim.network import RunResult
from ...types import NodeId, Round
from ._support import VecEngineBase, np_module

_NO_CRASH = 1 << 62

#: Wire size of one FLD_VAL message: base 8 + presence 1 + field_bits(bit).
_FLOOD_BITS = {0: 10, 1: 11}


class _FloodStub:
    """Protocol stand-in for :func:`baselines.flooding.flooding_consensus`."""

    __slots__ = ("decided", "estimate")

    def __init__(self, decided: Optional[int], estimate: int) -> None:
        self.decided = decided
        self.estimate = estimate


class _FloodingVec(VecEngineBase):
    """One flooding-consensus run, arithmetic form."""

    def __init__(
        self,
        n: int,
        inputs: Sequence[int],
        seed: int,
        adversary: Adversary,
        max_faulty: int,
        rounds: int,
        total_rounds: Round,
    ) -> None:
        np = np_module()
        self.np = np
        self.n = n
        self.inputs = list(inputs)
        self.rounds = rounds
        self.total_rounds = total_rounds
        # The protocol draws nothing from the node streams; only the
        # adversary stream is consumed.
        self._init_adversary(seed, adversary, max_faulty, self.inputs)
        self.crash_round = np.full(n, _NO_CRASH, dtype=np.int64)
        self.est = np.array(self.inputs, dtype=np.int64)
        #: Improvement facts staged by the previous round's delivery.
        self.saw_zero = np.zeros(n, dtype=bool)
        self.staged_delivered = 0
        # Per-round transmit records (victim outbox reconstruction).
        self._senders: Set[NodeId] = set()
        self._sender_bit: Dict[NodeId, int] = {}
        self.pn = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        for r in range(1, self.total_rounds + 1):
            # Every alive node holds a live wake for round rounds+1 until
            # it executes, so quiescence is only possible after that (or
            # once nobody is left alive).
            wakes_dead = r > self.rounds + 1 or len(self.crashed) == self.n
            if (
                r > 1
                and wakes_dead
                and not self.staged_delivered
                and self._adversary_done(r)
            ):
                break
            self._execute_round(r)
        return self._build_result()

    def _execute_round(self, r: Round) -> None:
        np = self.np
        metrics = self.metrics
        metrics.begin_round()

        saw_zero = self.saw_zero
        self.saw_zero = np.zeros(self.n, dtype=bool)

        # ---- step phase --------------------------------------------------
        # Fold staged improvements; nodes that improved re-broadcast,
        # except past the decision round (decide-then-idle comes first).
        improved = saw_zero  # staged only for alive est==1 receivers
        if improved.any():
            self.est[improved] = 0
        if r == 1:
            senders = list(range(self.n))
        elif r <= self.rounds:
            senders = np.flatnonzero(improved).tolist()
        else:
            senders = []
        self._senders = set(senders)
        self._sender_bit = {
            s: (self.inputs[s] if r == 1 else 0) for s in senders
        }

        # ---- transmit phase ---------------------------------------------
        per_msg = self.n - 1
        sent = len(senders) * per_msg
        if sent:
            bits_total = sum(
                _FLOOD_BITS[self._sender_bit[s]] for s in senders
            ) * per_msg
            metrics.messages_sent += sent
            metrics.bits_sent += bits_total
            metrics.per_kind_messages[MSG_FLOOD] += sent
            self.pn[np.asarray(senders, dtype=np.int64)] += per_msg
        metrics.per_round_messages[-1] += sent

        # ---- crash phase -------------------------------------------------
        dropped = self._crash_phase(r)
        dropped_by: Dict[NodeId, Set[NodeId]] = {}
        for src, dst in dropped:
            dropped_by.setdefault(src, set()).add(dst)

        # ---- delivery phase ----------------------------------------------
        delivered = 0
        expired = 0
        if senders:
            crashed_total = len(self.crashed)
            for s in senders:
                drops = dropped_by.get(s)
                if drops:
                    exp_s = sum(
                        1
                        for dst in self.crashed
                        if dst != s and dst not in drops
                    )
                    delivered += per_msg - len(drops) - exp_s
                else:
                    exp_s = crashed_total - (1 if s in self.crashed else 0)
                    delivered += per_msg - exp_s
                expired += exp_s

            # Zero propagation: who hears a zero this round?
            zero_senders = [s for s in senders if self._sender_bit[s] == 0]
            heard = np.zeros(self.n, dtype=bool)
            plain = [s for s in zero_senders if s not in dropped_by]
            if len(plain) >= 2:
                heard[:] = True
            elif len(plain) == 1:
                heard[:] = True
                heard[plain[0]] = False
            for s in zero_senders:
                drops = dropped_by.get(s)
                if drops is None:
                    continue
                reach = np.ones(self.n, dtype=bool)
                reach[s] = False
                reach[np.asarray(sorted(drops), dtype=np.int64)] = False
                heard |= reach
            self.saw_zero = (
                heard & (self.est == 1) & (self.crash_round > r)
            )

        metrics.messages_delivered += delivered
        metrics.messages_expired += expired
        if delivered:
            metrics.delivery_latency[1] += delivered
        self.staged_delivered = delivered

    # ------------------------------------------------------------------

    def _outbox_envelopes(self, sender: NodeId, r: Round) -> List[Envelope]:
        return self._cached_outbox(
            sender, lambda: self._build_outbox(sender, r)
        )

    def _build_outbox(self, sender: NodeId, r: Round) -> List[Envelope]:
        if sender not in self._senders or self.crash_round[sender] < r:
            return []
        msg = Message(MSG_FLOOD, (self._sender_bit[sender],))
        return [
            Envelope(sender, dst, msg, r)
            for dst in range(self.n)
            if dst != sender
        ]

    def _discard_queues(self, victim: NodeId, r: Round) -> None:
        self.crash_round[victim] = r  # queues are always empty post-transmit

    # ------------------------------------------------------------------

    def _build_result(self) -> RunResult:
        protocols = [
            _FloodStub(
                int(self.est[u]) if u not in self.crashed else None,
                int(self.est[u]),
            )
            for u in range(self.n)
        ]
        return self._run_result(protocols)


def run_flooding_vec(
    n: int,
    inputs: Sequence[int],
    seed: int,
    adversary: Adversary,
    max_faulty: int,
    rounds: int,
    total_rounds: Round,
) -> RunResult:
    """Run flooding consensus (``rounds = f + 1``) for ``total_rounds``
    rounds on the vec backend."""
    engine = _FloodingVec(n, inputs, seed, adversary, max_faulty, rounds, total_rounds)
    return engine.run()
