"""Vectorized leader-election engine (exact mirror of the reference run).

Struct-of-arrays layout.  The committee (``m = Theta(log n/alpha)``
candidates, each sampling ``K = Theta(sqrt(n log n / alpha))`` referees)
induces a static edge set of ``E = m*K`` candidate->referee pairs; every
message of the protocol travels on one of these edges or its reverse.
Per round the engine runs a handful of numpy passes over the registered
edge list instead of one Python iteration per message:

* ``LE_LIST`` drain — the round-2 rank exchange enqueues ``d - 1``
  messages per (referee, member) edge; the CONGEST FIFO drains them one
  per round on a *fixed* schedule, so round ``r`` transmits item
  ``r - 2`` whose payload is a closed form of the member order
  (``q = j + (j >= pos)``) — no queues are materialised at all;
* ``LE_AGG`` fan-out — referees touched by proposal deliveries reply to
  all registered members: one boolean gather over the edge list;
* candidate batches (``LE_PROP``/``LE_CONF``) — the reference protocol's
  own candidate automaton (:class:`~repro.core.leader_election.CandState`)
  emits at most one batch per invocation, transmitted as one slice;
* folds — per-referee proposal maxima and per-candidate aggregate maxima
  are order-independent monoids, computed with ``np.maximum.at`` plus a
  second owner/flag pass against the final maximum.

The one place array order cannot express the reference engine is a
*mutually sampling* candidate pair (u sampled x and x sampled u): those
ordered edges can receive two enqueues in one round and build a real FIFO
backlog.  They are detected up front and routed through exact Python
deques (``py edges``); everything else provably carries at most one
message per round.  Ranks are folded as *ordinals* (dense indices into
the sorted unique rank list) because ranks reach ``n^4 > 2^63`` at
``n = 10^5``; ordinals preserve ``<``/``==``, which is all the folds use.

Crash parity: the adversary runs unmodified against a mirrored
:class:`~repro.faults.adversary.RoundView`; a victim's wire batch is
reconstructed in the reference engine's exact envelope order (see
``_outbox_envelopes``) so per-envelope ``keep()`` calls consume the
adversary rng identically.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ...core.leader_election import (
    MSG_AGG,
    MSG_CONFIRM,
    MSG_LIST,
    MSG_PROPOSE,
    MSG_RANK,
    CandState,
)
from ...core.ranks import draw_rank
from ...core.schedule import LeaderElectionSchedule
from ...errors import SimulationError, VecUnsupported
from ...faults.adversary import Adversary
from ...params import Params
from ...rng import RngFactory
from ...sim.message import Envelope, Message
from ...sim.network import RunResult
from ...sim.node import NEVER
from ...types import NodeId, NodeState, Round
from ._support import VecEngineBase, field_bits, mirror_sample, np_module

#: Far-future sentinel for "never crashed" in the crash-round array.
_NO_CRASH = 1 << 62


class _LEStub:
    """Minimal protocol stand-in for :func:`runner._evaluate_leader_election`."""

    __slots__ = ("rank", "is_candidate", "state", "leader_rank")

    def __init__(
        self,
        rank: Optional[int],
        is_candidate: bool,
        state: NodeState,
        leader_rank: Optional[int],
    ) -> None:
        self.rank = rank
        self.is_candidate = is_candidate
        self.state = state
        self.leader_rank = leader_rank


class _ElectionVec(VecEngineBase):
    """One leader-election run, array-form."""

    def __init__(
        self,
        params: Params,
        schedule: LeaderElectionSchedule,
        seed: int,
        adversary: Adversary,
        max_faulty: int,
        total_rounds: Round,
    ) -> None:
        np = np_module()
        self.np = np
        self.n = n = params.n
        self.params = params
        self.schedule = schedule
        self.total_rounds = total_rounds

        # -- replay every node's private rng (rank, candidate coin, and —
        # for candidates — the referee sample), exactly as on_start does.
        rngs = RngFactory(seed)
        p_cand = params.candidate_probability
        K = params.referee_count
        ranks: List[int] = []
        cand_nodes: List[NodeId] = []
        cand_ranks: List[int] = []
        cand_refs: List[List[NodeId]] = []
        for u in range(n):
            rng = rngs.node_stream(u)
            rank = draw_rank(rng, n, params.rank_exponent)
            ranks.append(rank)
            if rng.random() < p_cand:
                cand_nodes.append(u)
                cand_ranks.append(rank)
                cand_refs.append(mirror_sample(rng, n, u, K))
        self.ranks = ranks
        self.m = m = len(cand_nodes)
        self.K = K
        self.cand_nodes = cand_nodes
        self.cand_ranks = cand_ranks
        self.cand_refs = cand_refs

        # -- rank ordinals (ranks exceed int64 at large n).
        uniq = sorted(set(cand_ranks))
        ord_of = {rank: i for i, rank in enumerate(uniq)}
        self.uniq = uniq
        self.ord_of = ord_of
        self.blv = np.array([field_bits(r) for r in uniq], dtype=np.int64)
        self.cand_ord = np.array(
            [ord_of[r] for r in cand_ranks], dtype=np.int64
        )

        self.cand_nodes_a = np.array(cand_nodes, dtype=np.int64)
        self.cand_index = np.full(n, -1, dtype=np.int64)
        if m:
            self.cand_index[self.cand_nodes_a] = np.arange(m, dtype=np.int64)

        # -- static edge list (candidate -> referee), blocks of K in
        # sample order.
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

        # Drain-bound guard: a referee registered by d candidates pushes
        # d - 1 LIST messages down each member edge; the drain must end
        # strictly before the first PROPOSE round or LIST and iteration
        # traffic would interleave on one FIFO (which only the reference
        # engine models).  d is bounded by the pre-crash sample counts.
        if E:
            d_pre = np.bincount(self.e_ref, minlength=n)
            if int(d_pre.max()) > schedule.forwarding_rounds + 1:
                raise VecUnsupported(
                    "committee overflow: a referee serves "
                    f"{int(d_pre.max())} candidates, drain would overrun "
                    f"the {schedule.forwarding_rounds} forwarding rounds"
                )

        # -- python-FIFO edges: mutually sampling candidate pairs.  Edge
        # u -> x needs a real deque iff x is a candidate that sampled u:
        # then x can enqueue twice in one round (AGG as referee plus a
        # candidate batch) on the reverse edge, and symmetrically.
        self.e_py = np.zeros(E, dtype=bool)
        if m:
            sampled = np.zeros((m, n), dtype=bool)
            for ci in range(m):
                sampled[ci, np.asarray(cand_refs[ci], dtype=np.int64)] = True
            cx = self.cand_index[self.e_ref]
            is_cand_ref = cx >= 0
            self.e_py[is_cand_ref] = sampled[
                cx[is_cand_ref], self.cand_nodes_a[self.e_ci[is_cand_ref]]
            ]
            del sampled
        # Per-candidate dst split (emit batches).
        self.cand_vec_dsts: List[Any] = []
        self.cand_py_dsts: List[List[NodeId]] = []
        for ci in range(m):
            py_mask = self.e_py[ci * K : (ci + 1) * K]
            refs_a = np.asarray(cand_refs[ci], dtype=np.int64)
            self.cand_vec_dsts.append(refs_a[~py_mask])
            # repro: lint-ignore[VEC001] sample-order py dst list is per-
            # candidate setup, not the round hot path
            self.cand_py_dsts.append([int(d) for d in refs_a[py_mask]])

        self._init_adversary(seed, adversary, max_faulty, None)
        self.crash_round = np.full(n, _NO_CRASH, dtype=np.int64)

        # -- registration structures (built in round 2).
        self.e_reg = np.zeros(E, dtype=bool)
        self.g_built = False
        self.g_ref = self.g_ci = self.g_py = self.g_pos = self.g_d = None
        self.g_member_ord = None
        self.ref_start = np.zeros(n, dtype=np.int64)
        self.ref_d = np.zeros(n, dtype=np.int64)
        self.max_drain = 0
        self.vec_list_remaining = 0

        # -- python FIFOs for the mutual-pair edges.
        self.py_fifo: Dict[Tuple[NodeId, NodeId], Deque] = {}
        self.open_order: Dict[NodeId, List[NodeId]] = {}
        self.py_backlog = 0
        self.py_member_refs: Dict[NodeId, List[NodeId]] = {}

        # -- candidate machines.
        self.cstates = [
            CandState(cand_ranks[ci], schedule) for ci in range(m)
        ]
        self.cand_wake = np.full(m, schedule.iteration_start, dtype=np.int64)
        # Delivered-LIST bitmap: R[ci, ord] == True iff the rank reached
        # candidate ci (rank_list materialises from this row).
        self.R = np.zeros((m, len(uniq)), dtype=bool)

        # -- staged inputs of the upcoming round (double buffers).
        self.staged_delivered = 0
        self.touched = np.zeros(n, dtype=bool)
        self.ref_best = np.full(n, -1, dtype=np.int64)
        self.ref_owner = np.zeros(n, dtype=bool)
        self.agg_ord = np.full(m, -1, dtype=np.int64)
        self.agg_flag = np.zeros(m, dtype=bool)
        self.woken = np.zeros(m, dtype=bool)

        # -- per-round transmit records (victim outbox reconstruction).
        self._open_prepush: Dict[NodeId, List[NodeId]] = {}
        self._py_popped: Dict[Tuple[NodeId, NodeId], Tuple[str, tuple]] = {}
        self._round_emits: Dict[int, Tuple[str, int, int]] = {}
        self._round_touched = self.touched
        self._round_ref_best = self.ref_best
        self._round_ref_owner = self.ref_owner

        # -- per-node sent counts (dict-ified at finalize).
        self.pn = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        np = self.np
        for r in range(1, self.total_rounds + 1):
            if r > 1 and self._quiescent(r) and self._adversary_done(r):
                break
            self._execute_round(r)
        return self._build_result()

    def _quiescent(self, r: Round) -> bool:
        if self.staged_delivered or self.vec_list_remaining or self.py_backlog:
            return False
        if not self.m:
            return True
        alive = self.crash_round[self.cand_nodes_a] >= r
        return not bool(((self.cand_wake != NEVER) & alive).any())

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------

    def _execute_round(self, r: Round) -> None:
        np = self.np
        metrics = self.metrics
        metrics.begin_round()

        # Consume the staging of the previous round's delivery phase.
        touched_now = self.touched
        ref_best_now = self.ref_best
        ref_owner_now = self.ref_owner
        agg_ord_now = self.agg_ord
        agg_flag_now = self.agg_flag
        woken_now = self.woken
        self.touched = np.zeros(self.n, dtype=bool)
        self.ref_best = np.full(self.n, -1, dtype=np.int64)
        self.ref_owner = np.zeros(self.n, dtype=bool)
        self.agg_ord = np.full(self.m, -1, dtype=np.int64)
        self.agg_flag = np.zeros(self.m, dtype=bool)
        self.woken = np.zeros(self.m, dtype=bool)
        self._round_touched = touched_now
        self._round_ref_best = ref_best_now
        self._round_ref_owner = ref_owner_now

        # ---- step phase --------------------------------------------------
        # Snapshot the py key order before this round's pushes: the
        # reference queue dict lists leftover backlog keys first.
        self._open_prepush = {
            src: list(order) for src, order in self.open_order.items()
        }
        self._py_popped = {}
        self._round_emits = {}

        if r == 2 and self.E:
            self._build_registration()

        if r >= 2:
            # Referee aggregation (structural): touched referees reply
            # AGG(flag, best) to every registered member.  Vec member
            # edges transmit below; py members go through their FIFO.
            for x, members in self.py_member_refs.items():
                if not touched_now[x]:
                    continue
                best = self.uniq[int(ref_best_now[x])]
                flag = int(bool(ref_owner_now[x]))
                fields = (flag, best)
                bits = 10 + (2 if flag else 1) + field_bits(best)
                for dst in members:
                    self._py_push(x, dst, MSG_AGG, fields, bits)

            if r >= self.schedule.iteration_start and self.m:
                alive = self.crash_round[self.cand_nodes_a] >= r
                due = np.flatnonzero(
                    alive & ((self.cand_wake == r) | woken_now)
                )
                for ci in due.tolist():
                    self._invoke_candidate(ci, r, agg_ord_now, agg_flag_now)

        # ---- transmit phase ---------------------------------------------
        sent = 0
        bits_total = 0
        kind_counts: Dict[str, int] = {}
        # Delivery-fold contribution collectors (vec side).
        list_src = list_ci = list_ord = None
        agg_src = agg_ci = agg_val = agg_fl = None
        emit_segs: List[Tuple[NodeId, Any, int, int, str]] = []
        py_wire: List[Tuple[NodeId, NodeId, str, tuple]] = []

        if r == 1:
            if self.E:
                sent += self.E
                bits_total += int(
                    (9 + self.blv[self.cand_ord]).sum()
                ) * self.K  # each candidate sends K identical RANKs
                kind_counts[MSG_RANK] = self.E
                self.pn[self.cand_nodes_a] += self.K
        elif self.g_built:
            # LIST drain (closed-form payloads).
            if r <= self.max_drain:
                mask = (
                    (~self.g_py)
                    & (self.g_d >= r)
                    & (self.crash_round[self.g_ref] >= r)
                )
                if mask.any():
                    list_src = self.g_ref[mask]
                    list_ci = self.g_ci[mask]
                    j = r - 2
                    q = j + (j >= self.g_pos[mask])
                    list_ord = self.g_member_ord[self.ref_start[list_src] + q]
                    cnt = int(list_src.size)
                    sent += cnt
                    bits_total += int((9 + self.blv[list_ord]).sum())
                    kind_counts[MSG_LIST] = (
                        kind_counts.get(MSG_LIST, 0) + cnt
                    )
                    np.add.at(self.pn, list_src, 1)
                    self.vec_list_remaining -= cnt
            # AGG fan-out over vec member edges.
            if touched_now.any():
                mask = touched_now[self.g_ref] & ~self.g_py
                if mask.any():
                    agg_src = self.g_ref[mask]
                    agg_ci = self.g_ci[mask]
                    agg_val = ref_best_now[agg_src]
                    agg_fl = ref_owner_now[agg_src]
                    cnt = int(agg_src.size)
                    sent += cnt
                    bits_total += int(
                        (10 + np.where(agg_fl, 2, 1) + self.blv[agg_val]).sum()
                    )
                    kind_counts[MSG_AGG] = kind_counts.get(MSG_AGG, 0) + cnt
                    np.add.at(self.pn, agg_src, 1)

        # Candidate batches (vec dsts).
        for ci, (kind, f0, f1) in self._round_emits.items():
            dsts = self.cand_vec_dsts[ci]
            cnt = int(dsts.size)
            if cnt:
                sent += cnt
                bits_total += (10 + field_bits(f0) + field_bits(f1)) * cnt
                kind_counts[kind] = kind_counts.get(kind, 0) + cnt
                self.pn[self.cand_nodes[ci]] += cnt
                emit_segs.append(
                    (self.cand_nodes[ci], dsts, self.ord_of[f0],
                     self.ord_of[f1], kind)
                )

        # Python FIFO pops: every nonempty mutual-pair edge ships its head.
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
                    py_wire.append((src, dst, kind, fields))
                    if not fifo:
                        del self.py_fifo[(src, dst)]
                        order.remove(dst)
                if not order:
                    del self.open_order[src]

        metrics.messages_sent += sent
        metrics.bits_sent += bits_total
        metrics.per_round_messages[-1] += sent
        per_kind = metrics.per_kind_messages
        for kind, cnt in kind_counts.items():
            per_kind[kind] += cnt

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

        def _keep_mask(src_arr, dst_arr):
            keep = cr[dst_arr] > r
            nonlocal expired
            expired += int(dst_arr.size - keep.sum())
            if dropped_by:
                drop = np.zeros(dst_arr.shape, dtype=bool)
                for v, vd in dropped_by.items():
                    sel = src_arr == v
                    if sel.any():
                        drop |= sel & np.isin(dst_arr, vd)
                # Drops take precedence over expiry (the reference checks
                # the drop set first), so un-count dropped+crashed dsts.
                expired -= int((drop & ~keep).sum())
                keep &= ~drop
            return keep

        if r == 1 and self.E:
            src_nodes = self.cand_nodes_a[self.e_ci]
            dst_nodes = self.e_ref
            keep = cr[dst_nodes] > r
            expired += int(dst_nodes.size - keep.sum())
            if dropped_by:
                drop = np.zeros(self.E, dtype=bool)
                for v, vd in dropped_by.items():
                    sel = src_nodes == v
                    if sel.any():
                        drop |= sel & np.isin(dst_nodes, vd)
                expired -= int((drop & ~keep).sum())
                keep &= ~drop
            self.e_reg = keep
            delivered += int(keep.sum())
        else:
            # Fold collectors: (target, value-ord, extra) triples.
            agg_in_ci: List[Any] = []
            agg_in_ord: List[Any] = []
            agg_in_flag: List[Any] = []
            prop_dst: List[Any] = []
            prop_val: List[Any] = []
            prop_sender: List[Any] = []

            if list_src is not None:
                keep = _keep_mask(list_src, self.cand_nodes_a[list_ci])
                kci = list_ci[keep]
                self.R[kci, list_ord[keep]] = True
                self.woken[kci] = True
                delivered += int(keep.sum())
            if agg_src is not None:
                keep = _keep_mask(agg_src, self.cand_nodes_a[agg_ci])
                agg_in_ci.append(agg_ci[keep])
                agg_in_ord.append(agg_val[keep])
                agg_in_flag.append(agg_fl[keep])
                delivered += int(keep.sum())
            for src, dsts, f0_ord, f1_ord, kind in emit_segs:
                keep = cr[dsts] > r
                expired += int(dsts.size - keep.sum())
                if dropped_by and src in dropped_by:
                    drop = np.isin(dsts, dropped_by[src])
                    expired -= int((drop & ~keep).sum())
                    keep &= ~drop
                kdst = dsts[keep]
                delivered += int(kdst.size)
                prop_dst.append(kdst)
                prop_val.append(np.full(kdst.size, f1_ord, dtype=np.int64))
                prop_sender.append(np.full(kdst.size, f0_ord, dtype=np.int64))

            py_agg: List[Tuple[int, int, bool]] = []
            py_prop: List[Tuple[NodeId, int, int]] = []
            for src, dst, kind, fields in py_wire:
                if (src, dst) in dropped:
                    continue
                if dst in self.crashed:
                    expired += 1
                    continue
                delivered += 1
                if kind == MSG_AGG:
                    ci = int(self.cand_index[dst])
                    py_agg.append(
                        (ci, self.ord_of[fields[1]], bool(fields[0]))
                    )
                    self.woken[ci] = True
                elif kind == MSG_LIST:
                    ci = int(self.cand_index[dst])
                    self.R[ci, self.ord_of[fields[0]]] = True
                    self.woken[ci] = True
                else:  # LE_PROP / LE_CONF
                    py_prop.append(
                        (dst, self.ord_of[fields[1]], self.ord_of[fields[0]])
                    )

            # Two-pass folds: all maxima first, then owner/flag passes
            # against the final maxima (correct because the reference
            # fold is an order-independent max-with-flag monoid).
            if agg_in_ci:
                a_ci = np.concatenate(agg_in_ci)
                a_ord = np.concatenate(agg_in_ord)
                a_fl = np.concatenate(agg_in_flag)
            else:
                a_ci = a_ord = a_fl = None
            if a_ci is not None and a_ci.size:
                np.maximum.at(self.agg_ord, a_ci, a_ord)
            for ci, o, f in py_agg:
                if o > self.agg_ord[ci]:
                    self.agg_ord[ci] = o
            if a_ci is not None and a_ci.size:
                sel = a_fl & (a_ord == self.agg_ord[a_ci])
                np.logical_or.at(self.agg_flag, a_ci[sel], True)
            for ci, o, f in py_agg:
                if f and o == self.agg_ord[ci]:
                    self.agg_flag[ci] = True
            if a_ci is not None and a_ci.size:
                self.woken[a_ci] = True

            if prop_dst:
                p_dst = np.concatenate(prop_dst)
                p_val = np.concatenate(prop_val)
                p_snd = np.concatenate(prop_sender)
            else:
                p_dst = p_val = p_snd = None
            if p_dst is not None and p_dst.size:
                np.maximum.at(self.ref_best, p_dst, p_val)
            for dst, val, snd in py_prop:
                if val > self.ref_best[dst]:
                    self.ref_best[dst] = val
            if p_dst is not None and p_dst.size:
                sel = (p_snd == p_val) & (p_val == self.ref_best[p_dst])
                np.logical_or.at(self.ref_owner, p_dst[sel], True)
                self.touched[p_dst] = True
                # A touched referee that is itself a candidate is woken
                # by the same deliveries (one on_round serves both roles).
                wci = self.cand_index[p_dst]
                self.woken[wci[wci >= 0]] = True
            for dst, val, snd in py_prop:
                if snd == val and val == self.ref_best[dst]:
                    self.ref_owner[dst] = True
                self.touched[dst] = True
                ci = int(self.cand_index[dst])
                if ci >= 0:
                    self.woken[ci] = True

        metrics.messages_delivered += delivered
        metrics.messages_expired += expired
        if delivered:
            metrics.delivery_latency[1] += delivered
        self.staged_delivered = delivered

    # ------------------------------------------------------------------
    # Round-2 registration
    # ------------------------------------------------------------------

    def _build_registration(self) -> None:
        """Mirror the round-2 ``_referee_register`` exchange structurally.

        Registered edges are exactly the round-1 RANK deliveries;
        arrivals land in one inbox in ascending sender order, so each
        referee's ``_registered`` dict is its delivered member edges in
        ascending candidate order.  The pairwise exchange enqueues, per
        (referee, member) edge, ``d - 1`` LIST payloads whose order is
        the closed form ``q = j + (j >= pos)``.
        """
        np = self.np
        reg_idx = np.flatnonzero(self.e_reg)
        self.g_built = True
        if not reg_idx.size:
            self.g_ref = np.zeros(0, dtype=np.int64)
            self.g_ci = np.zeros(0, dtype=np.int64)
            self.g_py = np.zeros(0, dtype=bool)
            self.g_pos = np.zeros(0, dtype=np.int64)
            self.g_d = np.zeros(0, dtype=np.int64)
            self.g_member_ord = np.zeros(0, dtype=np.int64)
            return
        order = np.argsort(self.e_ref[reg_idx], kind="stable")
        g_edge = reg_idx[order]
        self.g_ref = self.e_ref[g_edge]
        self.g_ci = self.e_ci[g_edge]
        self.g_py = self.e_py[g_edge]
        self.g_member_ord = self.cand_ord[self.g_ci]
        urefs, first, counts = np.unique(
            self.g_ref, return_index=True, return_counts=True
        )
        self.ref_start[urefs] = first
        self.ref_d[urefs] = counts
        self.g_pos = np.arange(self.g_ref.size, dtype=np.int64) - np.repeat(
            first, counts
        )
        self.g_d = np.repeat(counts, counts)
        self.max_drain = int(counts.max())
        self.vec_list_remaining = int(((self.g_d - 1) * ~self.g_py).sum())

        # Seed the python FIFOs of mutual-pair member edges with their
        # LIST items, and index py members per referee for AGG pushes.
        py_idx = np.flatnonzero(self.g_py)
        for i in py_idx.tolist():
            x = int(self.g_ref[i])
            d = int(self.g_d[i])
            dst = self.cand_nodes[int(self.g_ci[i])]
            self.py_member_refs.setdefault(x, []).append(dst)
            if d < 2:
                continue
            pos = int(self.g_pos[i])
            start = int(self.ref_start[x])
            items = []
            for j in range(d - 1):
                q = j + (1 if j >= pos else 0)
                rank = self.uniq[int(self.g_member_ord[start + q])]
                items.append((MSG_LIST, (rank,), 9 + field_bits(rank)))
            self.py_fifo[(x, dst)] = deque(items)
            self.py_backlog += len(items)
        # Key-creation order at the sender is the swapped member order
        # [a1, a0, a2, ...]; restrict it to the py members.
        for x in list(self.py_member_refs):
            d = int(self.ref_d[x])
            if d < 2:
                continue
            start = int(self.ref_start[x])
            members = [
                self.cand_nodes[int(self.g_ci[start + q])] for q in range(d)
            ]
            swapped = [members[1], members[0]] + members[2:]
            py_set = set(self.py_member_refs[x])
            key_order = [dst for dst in swapped if dst in py_set]
            if key_order:
                self.open_order[x] = key_order

    # ------------------------------------------------------------------
    # Candidate invocation
    # ------------------------------------------------------------------

    def _invoke_candidate(
        self, ci: int, r: Round, agg_ord_now, agg_flag_now
    ) -> None:
        st = self._filled_candidate(ci)
        agg = None
        o = int(agg_ord_now[ci])
        if o >= 0:
            agg = (self.uniq[o], bool(agg_flag_now[ci]))
        emits = st.invoke(r, agg)
        self.cand_wake[ci] = st.next_wake
        if not emits:
            return
        if len(emits) > 1:
            raise SimulationError(
                f"vec candidate {self.cand_nodes[ci]} emitted {len(emits)} "
                "batches in one round (reference sends at most one)"
            )
        kind, f0, f1 = emits[0]
        self._round_emits[ci] = (kind, f0, f1)
        if self.cand_py_dsts[ci]:
            bits = 10 + field_bits(f0) + field_bits(f1)
            for dst in self.cand_py_dsts[ci]:
                self._py_push(self.cand_nodes[ci], dst, kind, (f0, f1), bits)

    def _filled_candidate(self, ci: int) -> CandState:
        """Candidate ``ci``'s automaton, its ``rank_list`` filled on first
        use from the delivered-LIST bitmap plus its own rank (no LE_LIST
        arrives after the first act: drain guard)."""
        st = self.cstates[ci]
        if st.rank_list is None:
            row = self.np.flatnonzero(self.R[ci])
            st.rank_list = {self.uniq[j] for j in row.tolist()}
            st.rank_list.add(st.rank)
        return st

    def _py_push(
        self,
        src: NodeId,
        dst: NodeId,
        kind: str,
        fields: tuple,
        bits: int,
    ) -> None:
        fifo = self.py_fifo.get((src, dst))
        if fifo is None:
            fifo = self.py_fifo[(src, dst)] = deque()
        if not fifo:
            self.open_order.setdefault(src, []).append(dst)
        fifo.append((kind, fields, bits))
        self.py_backlog += 1

    # ------------------------------------------------------------------
    # Adversary hooks (victim outboxes in reference wire order)
    # ------------------------------------------------------------------

    def _outbox_envelopes(self, sender: NodeId, r: Round) -> List[Envelope]:
        return self._cached_outbox(sender, lambda: self._build_outbox(sender, r))

    def _build_outbox(self, sender: NodeId, r: Round) -> List[Envelope]:
        if self.crash_round[sender] < r:
            return []
        if r == 1:
            ci = int(self.cand_index[sender])
            if ci < 0:
                return []
            msg = Message(MSG_RANK, (self.cand_ranks[ci],))
            return [
                Envelope(sender, dst, msg, r) for dst in self.cand_refs[ci]
            ]
        if not self.g_built:
            return []
        d = int(self.ref_d[sender])
        if d >= 2 and r <= d:
            # Drain round: the queue dict was created in swapped member
            # order; receiver at original position p gets item r - 2,
            # i.e. the rank of member q = j + (j >= p).
            start = int(self.ref_start[sender])
            members = [int(self.g_ci[start + q]) for q in range(d)]
            j = r - 2
            out = []
            order = [1, 0] + list(range(2, d))
            for p in order:
                q = j + (1 if j >= p else 0)
                rank = self.cand_ranks[members[q]]
                out.append(
                    Envelope(
                        sender,
                        self.cand_nodes[members[p]],
                        Message(MSG_LIST, (rank,)),
                        r,
                    )
                )
            return out
        # General round: leftover py backlog keys first, then this
        # round's new keys in enqueue order (AGG to members ascending,
        # then the candidate batch in sample order).
        out = []
        seen: Set[NodeId] = set()
        for dst in self._open_prepush.get(sender, []):
            popped = self._py_popped.get((sender, dst))
            if popped is None:
                continue  # src crashed earlier this round chain (unreachable)
            seen.add(dst)
            out.append(Envelope(sender, dst, Message(*popped), r))
        if self._round_touched[sender]:
            best = self.uniq[int(self._round_ref_best[sender])]
            flag = int(bool(self._round_ref_owner[sender]))
            agg_msg = Message(MSG_AGG, (flag, best))
            start = int(self.ref_start[sender])
            d_reg = int(self.ref_d[sender])
            for q in range(d_reg):
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
                    out.append(Envelope(sender, dst, agg_msg, r))
        ci = int(self.cand_index[sender])
        if ci >= 0 and ci in self._round_emits:
            kind, f0, f1 = self._round_emits[ci]
            batch_msg = Message(kind, (f0, f1))
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
                    out.append(Envelope(sender, dst, batch_msg, r))
        return out

    def _discard_queues(self, victim: NodeId, r: Round) -> None:
        self.crash_round[victim] = r
        if self.g_built:
            d = int(self.ref_d[victim])
            remaining = d - r
            if d >= 2 and remaining > 0:
                start = int(self.ref_start[victim])
                vec_members = d - int(
                    self.g_py[start : start + d].sum()
                )
                self.vec_list_remaining -= remaining * vec_members
        for dst in self.open_order.pop(victim, []):
            fifo = self.py_fifo.pop((victim, dst))
            self.py_backlog -= len(fifo)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def _build_result(self) -> RunResult:
        last = self.metrics.rounds_executed
        protocols: List[_LEStub] = []
        for u in range(self.n):
            ci = int(self.cand_index[u])
            if ci < 0:
                state = (
                    NodeState.UNDECIDED
                    if u in self.crashed
                    else NodeState.NON_ELECTED
                )
                protocols.append(_LEStub(self.ranks[u], False, state, None))
                continue
            st = self.cstates[ci]
            if u not in self.crashed:
                self._filled_candidate(ci).on_stop(last)
            protocols.append(
                _LEStub(st.rank, True, st.state, st.leader_rank)
            )
        return self._run_result(protocols)


def run_election_vec(
    params: Params,
    schedule: LeaderElectionSchedule,
    seed: int,
    adversary: Adversary,
    max_faulty: int,
    total_rounds: Round,
) -> RunResult:
    """Run the Section IV-A election on the vec backend.

    Exact mirror of ``Network(...).run(total_rounds)`` under the same
    seed and adversary; raises :class:`~repro.errors.VecUnsupported`
    (before any side effects observable by a fallback rerun) when the
    configuration needs the reference engine.
    """
    engine = _ElectionVec(
        params, schedule, seed, adversary, max_faulty, total_rounds
    )
    return engine.run()
