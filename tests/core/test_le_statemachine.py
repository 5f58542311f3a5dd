"""White-box unit tests of the leader-election candidate state machine.

These drive a single :class:`LeaderElectionProtocol` instance through a
fake context, pinning down the Step 1-4 transitions of Section IV-A
without a network: marking, adoption, pruning, probing, and timeouts.
"""

import random

import pytest

from repro.core.leader_election import (
    MSG_AGG,
    MSG_CONFIRM,
    MSG_PROPOSE,
    MSG_RANK,
    CandState,
    LeaderElectionProtocol,
)
from repro.core.schedule import LeaderElectionSchedule
from repro.params import Params
from repro.sim.message import Delivery, Message
from repro.types import NodeState


class FakeContext:
    """Minimal stand-in for repro.sim.node.Context."""

    def __init__(self, node_id=0, n=64, seed=0):
        self.node_id = node_id
        self.n = n
        self.rng = random.Random(seed)
        self.round = 1
        self.sent = []  # (dst, Message)
        self.idled = False
        self.woken_at = None

    def send(self, dst, message):
        self.sent.append((dst, message))

    def send_many(self, dsts, message):
        for dst in dsts:
            self.send(dst, message)

    def sample_nodes(self, k):
        return [(self.node_id + 1 + i) % self.n for i in range(k)]

    def all_ports(self):
        return [u for u in range(self.n) if u != self.node_id]

    def learn(self, node):
        pass

    def idle(self):
        self.idled = True

    def wake_at(self, round_):
        self.woken_at = round_

    def halt(self):
        pass


def make_candidate(rank=100, known_ranks=(100, 200, 300)):
    """Build a candidate mid-protocol with a populated rankList."""
    params = Params(n=64, alpha=0.5)
    schedule = LeaderElectionSchedule.from_params(params)
    protocol = LeaderElectionProtocol(0, params, schedule)
    protocol.rank = rank
    protocol.is_candidate = True
    protocol._cand = CandState(rank, schedule)
    protocol._cand.rank_list = set(known_ranks)
    protocol._referees = [1, 2, 3]
    ctx = FakeContext()
    ctx.round = schedule.iteration_start
    return protocol, ctx, schedule


def agg(flag, rank, sender=9, round_=0):
    return Delivery(sender=sender, message=Message(MSG_AGG, (int(flag), rank)),
                    round_received=round_)


class TestStep1Propose:
    def test_proposes_minimum_of_rank_list(self):
        protocol, ctx, _ = make_candidate(rank=200, known_ranks=(100, 200, 300))
        protocol.on_round(ctx, [])
        proposals = [m for _, m in ctx.sent if m.kind == MSG_PROPOSE]
        assert proposals
        assert proposals[0].fields == (200, 100)  # (own id, proposed min)
        assert not protocol._cand.marked

    def test_self_proposal_marks_leader(self):
        protocol, ctx, _ = make_candidate(rank=100, known_ranks=(100, 200))
        protocol.on_round(ctx, [])
        assert protocol._cand.marked
        assert protocol.state is NodeState.ELECTED
        assert protocol.leader_rank == 100

    def test_no_proposal_before_iteration_start(self):
        protocol, ctx, schedule = make_candidate()
        ctx.round = schedule.iteration_start - 5
        protocol.on_round(ctx, [])
        assert not ctx.sent
        assert ctx.woken_at == schedule.iteration_start

    def test_proposal_sent_to_every_referee(self):
        protocol, ctx, _ = make_candidate()
        protocol.on_round(ctx, [])
        assert {dst for dst, _ in ctx.sent} == {1, 2, 3}


class TestStep3Aggregates:
    def test_owner_flagged_maximum_is_adopted(self):
        protocol, ctx, _ = make_candidate(rank=100, known_ranks=(100, 300))
        protocol.on_round(ctx, [agg(True, 300)])
        assert protocol.leader_rank == 300
        assert protocol._cand.confirmed
        assert not protocol._cand.marked
        # Adoption echoes the winner once (Step 3).
        echoes = [m for _, m in ctx.sent if m.kind == MSG_CONFIRM]
        assert echoes and echoes[0].fields == (100, 300)

    def test_unflagged_known_maximum_is_supported(self):
        protocol, ctx, _ = make_candidate(rank=100, known_ranks=(100, 300))
        protocol.on_round(ctx, [agg(False, 300)])
        assert protocol.leader_rank == 300
        assert not protocol._cand.confirmed
        assert protocol._cand.outstanding == 300
        supports = [m for _, m in ctx.sent if m.kind == MSG_CONFIRM]
        assert supports and supports[0].fields == (100, 300)

    def test_higher_rank_prunes_smaller(self):
        protocol, ctx, _ = make_candidate(rank=100, known_ranks=(100, 200, 300))
        protocol.on_round(ctx, [agg(True, 200)])
        assert protocol._cand.rank_list == {200, 300}

    def test_higher_rank_unmarks_leader(self):
        protocol, ctx, _ = make_candidate(rank=100, known_ranks=(100,))
        protocol.on_round(ctx, [])  # proposes itself, marks
        assert protocol._cand.marked
        protocol.on_round(ctx, [agg(True, 500)])
        assert not protocol._cand.marked
        assert protocol.leader_rank == 500

    def test_own_confirmation_establishes_leadership(self):
        protocol, ctx, _ = make_candidate(rank=100, known_ranks=(100,))
        protocol.on_round(ctx, [agg(True, 100)])
        assert protocol._cand.marked
        assert protocol._cand.confirmed
        assert ctx.idled

    def test_probe_of_own_rank_triggers_reconfirmation(self):
        # A (0, own-rank) aggregate means someone is probing us: re-CONF.
        protocol, ctx, _ = make_candidate(rank=100, known_ranks=(100,))
        protocol.on_round(ctx, [agg(False, 100)])
        confs = [m for _, m in ctx.sent if m.kind == MSG_CONFIRM]
        assert (100, 100) in [m.fields for m in confs]
        assert protocol._cand.marked

    def test_stale_lower_echo_ignored_when_confirmed(self):
        protocol, ctx, _ = make_candidate(rank=100, known_ranks=(100, 300))
        protocol.on_round(ctx, [agg(True, 300)])  # confirmed on 300
        sent_before = len(ctx.sent)
        protocol.on_round(ctx, [agg(False, 200)])
        assert protocol.leader_rank == 300
        assert protocol._cand.confirmed


class TestStep4Timeout:
    def test_timeout_removes_dead_rank_and_advances(self):
        protocol, ctx, schedule = make_candidate(rank=300, known_ranks=(100, 300))
        protocol.on_round(ctx, [])  # proposes 100
        assert protocol._cand.outstanding == 100
        ctx.round = protocol._cand.deadline
        ctx.sent.clear()
        protocol.on_round(ctx, [])
        # 100 presumed crashed; next minimum (own rank 300) proposed.
        assert 100 not in protocol._cand.rank_list
        proposals = [m for _, m in ctx.sent if m.kind == MSG_PROPOSE]
        assert proposals and proposals[0].fields == (300, 300)
        assert protocol._cand.marked  # proposed own rank

    def test_own_rank_timeout_retries_confirmation(self):
        protocol, ctx, schedule = make_candidate(rank=100, known_ranks=(100,))
        protocol.on_round(ctx, [])  # proposes itself
        ctx.round = protocol._cand.deadline
        ctx.sent.clear()
        protocol.on_round(ctx, [])
        confs = [m for _, m in ctx.sent if m.kind == MSG_CONFIRM]
        assert (100, 100) in [m.fields for m in confs]
        assert 100 in protocol._cand.rank_list  # own rank never disowned


class TestRefereeRole:
    def test_registration_exchanges_rank_lists(self):
        params = Params(n=64, alpha=0.5)
        schedule = LeaderElectionSchedule.from_params(params)
        referee = LeaderElectionProtocol(5, params, schedule)
        referee.rank = 999
        ctx = FakeContext(node_id=5)
        inbox = [
            Delivery(sender=10, message=Message(MSG_RANK, (111,)), round_received=2),
            Delivery(sender=11, message=Message(MSG_RANK, (222,)), round_received=2),
        ]
        referee.on_round(ctx, inbox)
        lists = [(dst, m.fields[0]) for dst, m in ctx.sent if m.kind == "LE_LIST"]
        assert (10, 222) in lists
        assert (11, 111) in lists

    def test_aggregation_forwards_max_with_owner_flag(self):
        params = Params(n=64, alpha=0.5)
        schedule = LeaderElectionSchedule.from_params(params)
        referee = LeaderElectionProtocol(5, params, schedule)
        referee.rank = 999
        ctx = FakeContext(node_id=5)
        referee.on_round(
            ctx,
            [Delivery(sender=10, message=Message(MSG_RANK, (111,)), round_received=2)],
        )
        ctx.sent.clear()
        referee.on_round(
            ctx,
            [
                Delivery(
                    sender=10,
                    message=Message(MSG_PROPOSE, (111, 111)),
                    round_received=3,
                )
            ],
        )
        aggs = [(dst, m.fields) for dst, m in ctx.sent if m.kind == MSG_AGG]
        assert aggs == [(10, (1, 111))]  # owner-flagged maximum

    def test_non_owner_proposal_not_flagged(self):
        params = Params(n=64, alpha=0.5)
        schedule = LeaderElectionSchedule.from_params(params)
        referee = LeaderElectionProtocol(5, params, schedule)
        referee.rank = 999
        ctx = FakeContext(node_id=5)
        referee.on_round(
            ctx,
            [Delivery(sender=10, message=Message(MSG_RANK, (111,)), round_received=2)],
        )
        ctx.sent.clear()
        referee.on_round(
            ctx,
            [
                Delivery(
                    sender=10,
                    message=Message(MSG_PROPOSE, (111, 500)),
                    round_received=3,
                )
            ],
        )
        aggs = [m.fields for _, m in ctx.sent if m.kind == MSG_AGG]
        assert aggs == [(0, 500)]
