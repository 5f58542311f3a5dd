"""Vectorized agreement engine (exact mirror of the reference run).

The Section V-A protocol is far simpler than the election: after the
round-1 registration broadcast every node idles forever, so a node steps
exactly when messages arrive, and the whole protocol state is three
boolean facts per node (referee forwarded its zero / candidate decided
zero / candidate sent its zero).  One round is therefore:

* ``fwd_now`` — referees that just received a zero (``AG_VAL`` with bit 0
  or ``AG_Z2R``) and have not forwarded yet send ``AG_Z2C`` to all
  registered members: a boolean gather over the registered edge list;
* ``send_now`` — candidates that just received ``AG_Z2C`` and have not
  sent their zero yet decide 0 and send ``AG_Z2R`` to their referees;
* delivery folds are pure existence bits (``saw a zero``), which are
  trivially order-independent.

Mutually sampling candidate pairs again need real FIFOs (a node can
enqueue ``AG_Z2C`` as a referee and ``AG_Z2R`` as a candidate on the same
reverse edge in one round — the referee role runs first, exactly as in
``AgreementProtocol.on_round``); every other edge carries at most one
message per round.  Crash parity works as in the election engine: crash
victims' wire batches are reconstructed in reference envelope order
(leftover FIFO backlog first, then the ``AG_Z2C`` fan-out in ascending
registration order, then the ``AG_Z2R`` batch in sample order).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ...core.agreement import (
    MSG_VALUE,
    MSG_ZERO_TO_CANDIDATE,
    MSG_ZERO_TO_REFEREE,
)
from ...core.schedule import AgreementSchedule
from ...errors import SimulationError
from ...faults.adversary import Adversary
from ...params import Params
from ...sim.message import Envelope, Message
from ...sim.network import RunResult
from ...types import Decision, NodeId, Round
from ._support import VecEngineBase, mirror_sample, np_module, replay_nodes

_NO_CRASH = 1 << 62

#: Wire sizes: base 8, plus (presence 1 + field_bits(bit)) for AG_VAL.
_VAL_BITS = {0: 10, 1: 11}
_ZERO_BITS = 8


class _AGStub:
    """Protocol stand-in for :func:`runner._evaluate_agreement`."""

    __slots__ = ("is_candidate", "decision", "input_bit")

    def __init__(
        self, is_candidate: bool, decision: Decision, input_bit: int
    ) -> None:
        self.is_candidate = is_candidate
        self.decision = decision
        self.input_bit = input_bit


class _AgreementVec(VecEngineBase):
    """One agreement run, array-form."""

    def __init__(
        self,
        params: Params,
        schedule: AgreementSchedule,
        seed: int,
        adversary: Adversary,
        max_faulty: int,
        input_bits: Sequence[int],
        total_rounds: Round,
    ) -> None:
        np = np_module()
        self.np = np
        self.n = n = params.n
        self.total_rounds = total_rounds
        self.input_bits = list(input_bits)

        # Replay the candidate coin and referee sample per node.
        K = params.referee_count
        _, _, cand_rngs = replay_nodes(seed, n, params.candidate_probability)
        cand_nodes: List[NodeId] = list(cand_rngs)
        cand_refs = [mirror_sample(rng, n, u, K) for u, rng in cand_rngs.items()]
        self.m = m = len(cand_nodes)
        self.K = K
        self.cand_nodes = cand_nodes
        self.cand_refs = cand_refs
        self.cand_nodes_a = np.array(cand_nodes, dtype=np.int64)
        self.cand_index = np.full(n, -1, dtype=np.int64)
        if m:
            self.cand_index[self.cand_nodes_a] = np.arange(m, dtype=np.int64)
        self.cand_input = np.array(
            [self.input_bits[u] for u in cand_nodes], dtype=np.int64
        )

        E = m * K
        self.E = E
        self.e_ci = np.repeat(np.arange(m, dtype=np.int64), K)
        self.e_ref = (
            np.concatenate(
                [np.asarray(refs, dtype=np.int64) for refs in cand_refs]
            )
            if m
            else np.zeros(0, dtype=np.int64)
        )
        # Mutual-pair FIFO edges (see module docstring).
        self.e_py = np.zeros(E, dtype=bool)
        if m:
            sampled = np.zeros((m, n), dtype=bool)
            for ci in range(m):
                sampled[ci, np.asarray(cand_refs[ci], dtype=np.int64)] = True
            cx = self.cand_index[self.e_ref]
            is_cand = cx >= 0
            self.e_py[is_cand] = sampled[
                cx[is_cand], self.cand_nodes_a[self.e_ci[is_cand]]
            ]
            del sampled
        self.cand_vec_dsts: List[Any] = []
        self.cand_py_dsts: List[List[NodeId]] = []
        for ci in range(m):
            py_mask = self.e_py[ci * K : (ci + 1) * K]
            refs_a = np.asarray(cand_refs[ci], dtype=np.int64)
            self.cand_vec_dsts.append(refs_a[~py_mask])
            # repro: lint-ignore[VEC001] per-candidate setup, not hot path
            self.cand_py_dsts.append([int(d) for d in refs_a[py_mask]])

        self._init_adversary(seed, adversary, max_faulty, self.input_bits)
        self.crash_round = np.full(n, _NO_CRASH, dtype=np.int64)

        # Registration (round 2): CSR over delivered round-1 edges,
        # member lists in ascending candidate order (= inbox wire order).
        self.e_reg = np.zeros(E, dtype=bool)
        self.g_built = False
        self.g_ref = self.g_ci = self.g_py = None
        self.ref_start = np.zeros(n, dtype=np.int64)
        self.ref_d = np.zeros(n, dtype=np.int64)
        self.py_member_refs: Dict[NodeId, List[NodeId]] = {}

        # Protocol state.
        self.forwarded = np.zeros(n, dtype=bool)
        self.decided_zero = (
            self.cand_input == 0 if m else np.zeros(0, dtype=bool)
        )
        self.sent_zero = self.decided_zero.copy()

        # Staged delivery facts for the next round.
        self.saw_ref_zero = np.zeros(n, dtype=bool)
        self.saw_cand_zero = np.zeros(m, dtype=bool)
        self.staged_delivered = 0

        # Mutual-pair FIFOs.
        self.py_fifo: Dict[Tuple[NodeId, NodeId], Deque] = {}
        self.open_order: Dict[NodeId, List[NodeId]] = {}
        self.py_backlog = 0

        # Per-round transmit records (victim outbox reconstruction).
        self._open_prepush: Dict[NodeId, List[NodeId]] = {}
        self._py_popped: Dict[Tuple[NodeId, NodeId], Tuple[str, tuple]] = {}
        self._fwd_now = np.zeros(n, dtype=bool)
        self._send_now = np.zeros(m, dtype=bool)

        self.pn = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        for r in range(1, self.total_rounds + 1):
            if (
                r > 1
                and not self.staged_delivered
                and not self.py_backlog
                and self._adversary_done(r)
            ):
                break
            self._execute_round(r)
        return self._build_result()

    def _execute_round(self, r: Round) -> None:
        np = self.np
        metrics = self.metrics
        metrics.begin_round()

        saw_ref = self.saw_ref_zero
        saw_cand = self.saw_cand_zero
        self.saw_ref_zero = np.zeros(self.n, dtype=bool)
        self.saw_cand_zero = np.zeros(self.m, dtype=bool)

        self._open_prepush = {
            src: list(order) for src, order in self.open_order.items()
        }
        self._py_popped = {}

        # ---- step phase --------------------------------------------------
        fwd_now = np.zeros(self.n, dtype=bool)
        send_now = np.zeros(self.m, dtype=bool)
        if r >= 2:
            if r == 2 and self.E:
                self._build_registration()
            # Referee role first (matches on_round's statement order).
            fwd_now = saw_ref & ~self.forwarded & (self.ref_d > 0)
            self.forwarded |= fwd_now
            for x, members in self.py_member_refs.items():
                if fwd_now[x]:
                    for dst in members:
                        self._py_push(
                            x, dst, MSG_ZERO_TO_CANDIDATE, (), _ZERO_BITS
                        )
            # Candidate role: decide zero, send it once.
            if self.m:
                self.decided_zero |= saw_cand
                send_now = saw_cand & ~self.sent_zero
                self.sent_zero |= send_now
                for ci in np.flatnonzero(send_now).tolist():
                    for dst in self.cand_py_dsts[ci]:
                        self._py_push(
                            self.cand_nodes[ci],
                            dst,
                            MSG_ZERO_TO_REFEREE,
                            (),
                            _ZERO_BITS,
                        )
        self._fwd_now = fwd_now
        self._send_now = send_now

        # ---- transmit phase ---------------------------------------------
        sent = 0
        bits_total = 0
        kind_counts: Dict[str, int] = {}
        z2c_src = z2c_ci = None
        z2r_segs: List[Tuple[NodeId, Any]] = []
        py_wire: List[Tuple[NodeId, NodeId, str]] = []

        if r == 1:
            if self.E:
                sent += self.E
                bits_total += int(
                    sum(_VAL_BITS[int(b)] for b in self.cand_input.tolist())
                ) * self.K
                kind_counts[MSG_VALUE] = self.E
                self.pn[self.cand_nodes_a] += self.K
        else:
            if self.g_built and fwd_now.any():
                mask = fwd_now[self.g_ref] & ~self.g_py
                if mask.any():
                    z2c_src = self.g_ref[mask]
                    z2c_ci = self.g_ci[mask]
                    cnt = int(z2c_src.size)
                    sent += cnt
                    bits_total += _ZERO_BITS * cnt
                    kind_counts[MSG_ZERO_TO_CANDIDATE] = cnt
                    np.add.at(self.pn, z2c_src, 1)
            for ci in np.flatnonzero(send_now).tolist():
                dsts = self.cand_vec_dsts[ci]
                cnt = int(dsts.size)
                if cnt:
                    sent += cnt
                    bits_total += _ZERO_BITS * cnt
                    kind_counts[MSG_ZERO_TO_REFEREE] = (
                        kind_counts.get(MSG_ZERO_TO_REFEREE, 0) + cnt
                    )
                    self.pn[self.cand_nodes[ci]] += cnt
                    z2r_segs.append((self.cand_nodes[ci], dsts))

        if self.py_backlog:
            for src in list(self.open_order):
                order = self.open_order[src]
                for dst in list(order):
                    fifo = self.py_fifo[(src, dst)]
                    kind, fields, bits = fifo.popleft()
                    self.py_backlog -= 1
                    sent += 1
                    bits_total += bits
                    kind_counts[kind] = kind_counts.get(kind, 0) + 1
                    self.pn[src] += 1
                    self._py_popped[(src, dst)] = (kind, fields)
                    py_wire.append((src, dst, kind))
                    if not fifo:
                        del self.py_fifo[(src, dst)]
                        order.remove(dst)
                if not order:
                    del self.open_order[src]

        metrics.messages_sent += sent
        metrics.bits_sent += bits_total
        metrics.per_round_messages[-1] += sent
        for kind, cnt in kind_counts.items():
            metrics.per_kind_messages[kind] += cnt

        # ---- crash phase -------------------------------------------------
        dropped = self._crash_phase(r)
        dropped_by: Dict[NodeId, Any] = {}
        if dropped:
            by: Dict[NodeId, List[NodeId]] = {}
            for src, dst in dropped:
                by.setdefault(src, []).append(dst)
            dropped_by = {
                src: np.asarray(dsts, dtype=np.int64)
                for src, dsts in by.items()
            }

        # ---- delivery phase ----------------------------------------------
        delivered = 0
        expired = 0
        cr = self.crash_round

        def _keep(src_arr: Any, dst_arr: Any) -> Any:
            nonlocal expired
            keep = cr[dst_arr] > r
            expired += int(dst_arr.size - keep.sum())
            if dropped_by:
                drop = np.zeros(dst_arr.shape, dtype=bool)
                for v, vd in dropped_by.items():
                    sel = (
                        src_arr == v
                        if not np.isscalar(src_arr)
                        else (np.full(dst_arr.shape, src_arr == v))
                    )
                    if sel.any():
                        drop |= sel & np.isin(dst_arr, vd)
                expired -= int((drop & ~keep).sum())
                keep &= ~drop
            return keep

        if r == 1 and self.E:
            keep = _keep(self.cand_nodes_a[self.e_ci], self.e_ref)
            self.e_reg = keep
            delivered += int(keep.sum())
            zero_edge = keep & (self.cand_input[self.e_ci] == 0)
            self.saw_ref_zero[self.e_ref[zero_edge]] = True
        else:
            if z2c_src is not None:
                keep = _keep(z2c_src, self.cand_nodes_a[z2c_ci])
                delivered += int(keep.sum())
                self.saw_cand_zero[z2c_ci[keep]] = True
            for src, dsts in z2r_segs:
                keep = _keep(src, dsts)
                delivered += int(keep.sum())
                self.saw_ref_zero[dsts[keep]] = True
            for src, dst, kind in py_wire:
                if (src, dst) in dropped:
                    continue
                if dst in self.crashed:
                    expired += 1
                    continue
                delivered += 1
                if kind == MSG_ZERO_TO_CANDIDATE:
                    self.saw_cand_zero[int(self.cand_index[dst])] = True
                else:
                    self.saw_ref_zero[dst] = True

        metrics.messages_delivered += delivered
        metrics.messages_expired += expired
        if delivered:
            metrics.delivery_latency[1] += delivered
        self.staged_delivered = delivered

    # ------------------------------------------------------------------

    def _build_registration(self) -> None:
        np = self.np
        reg_idx = np.flatnonzero(self.e_reg)
        self.g_built = True
        if not reg_idx.size:
            self.g_ref = np.zeros(0, dtype=np.int64)
            self.g_ci = np.zeros(0, dtype=np.int64)
            self.g_py = np.zeros(0, dtype=bool)
            return
        order = np.argsort(self.e_ref[reg_idx], kind="stable")
        g_edge = reg_idx[order]
        self.g_ref = self.e_ref[g_edge]
        self.g_ci = self.e_ci[g_edge]
        self.g_py = self.e_py[g_edge]
        urefs, first, counts = np.unique(
            self.g_ref, return_index=True, return_counts=True
        )
        self.ref_start[urefs] = first
        self.ref_d[urefs] = counts
        py_idx = np.flatnonzero(self.g_py)
        for i in py_idx.tolist():
            x = int(self.g_ref[i])
            dst = self.cand_nodes[int(self.g_ci[i])]
            self.py_member_refs.setdefault(x, []).append(dst)

    def _py_push(
        self, src: NodeId, dst: NodeId, kind: str, fields: tuple, bits: int
    ) -> None:
        fifo = self.py_fifo.get((src, dst))
        if fifo is None:
            fifo = self.py_fifo[(src, dst)] = deque()
        if not fifo:
            self.open_order.setdefault(src, []).append(dst)
        fifo.append((kind, fields, bits))
        self.py_backlog += 1

    # ------------------------------------------------------------------

    def _outbox_envelopes(self, sender: NodeId, r: Round) -> List[Envelope]:
        return self._cached_outbox(
            sender, lambda: self._build_outbox(sender, r)
        )

    def _build_outbox(self, sender: NodeId, r: Round) -> List[Envelope]:
        if self.crash_round[sender] < r:
            return []
        if r == 1:
            ci = int(self.cand_index[sender])
            if ci < 0:
                return []
            msg = Message(MSG_VALUE, (self.input_bits[sender],))
            return [
                Envelope(sender, dst, msg, r) for dst in self.cand_refs[ci]
            ]
        out: List[Envelope] = []
        seen: Set[NodeId] = set()
        for dst in self._open_prepush.get(sender, []):
            popped = self._py_popped.get((sender, dst))
            if popped is None:
                continue
            seen.add(dst)
            out.append(Envelope(sender, dst, Message(*popped), r))
        if self._fwd_now[sender]:
            msg = Message(MSG_ZERO_TO_CANDIDATE, ())
            start = int(self.ref_start[sender])
            d = int(self.ref_d[sender])
            for q in range(d):
                dst = self.cand_nodes[int(self.g_ci[start + q])]
                if dst in seen:
                    continue
                seen.add(dst)
                if (sender, dst) in self._py_popped:
                    out.append(
                        Envelope(
                            sender, dst,
                            Message(*self._py_popped[(sender, dst)]), r,
                        )
                    )
                else:
                    out.append(Envelope(sender, dst, msg, r))
        ci = int(self.cand_index[sender])
        if ci >= 0 and self._send_now[ci]:
            msg = Message(MSG_ZERO_TO_REFEREE, ())
            for dst in self.cand_refs[ci]:
                if dst in seen:
                    continue
                seen.add(dst)
                if (sender, dst) in self._py_popped:
                    out.append(
                        Envelope(
                            sender, dst,
                            Message(*self._py_popped[(sender, dst)]), r,
                        )
                    )
                else:
                    out.append(Envelope(sender, dst, msg, r))
        return out

    def _discard_queues(self, victim: NodeId, r: Round) -> None:
        self.crash_round[victim] = r
        for dst in self.open_order.pop(victim, []):
            fifo = self.py_fifo.pop((victim, dst))
            self.py_backlog -= len(fifo)

    # ------------------------------------------------------------------

    def _build_result(self) -> RunResult:
        protocols: List[_AGStub] = []
        for u in range(self.n):
            ci = int(self.cand_index[u])
            bit = self.input_bits[u]
            if ci < 0:
                protocols.append(_AGStub(False, Decision.UNDECIDED, bit))
                continue
            if self.decided_zero[ci]:
                decision = Decision.ZERO
            elif u not in self.crashed:
                decision = Decision.of(bit)  # on_stop: decide own input
            else:
                decision = Decision.UNDECIDED
            protocols.append(_AGStub(True, decision, bit))
        return self._run_result(protocols)


def run_agreement_vec(
    params: Params,
    schedule: AgreementSchedule,
    seed: int,
    adversary: Adversary,
    max_faulty: int,
    input_bits: Sequence[int],
    total_rounds: Round,
) -> RunResult:
    """Run the Section V-A agreement on the vec backend (exact parity)."""
    engine = _AgreementVec(
        params, schedule, seed, adversary, max_faulty, input_bits, total_rounds
    )
    return engine.run()
