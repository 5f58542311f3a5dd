"""Tests for the open-problem explorations (Byzantine attackers, general graphs)."""

import pytest

from repro.core.runner import agree, elect_leader
from repro.extensions import walk_based_leader_election
from repro.extensions.general_graphs import build_graph, mixing_walk_length
from repro.faults.byzantine import ByzantinePlan
from repro.params import Params
from repro.rng import RngFactory, seed_sequence
from repro.types import Decision

N = 96


def _plan(count, seed, mode):
    """``count`` attackers in ``mode``, drawn from the seed's own stream."""
    nodes = RngFactory(seed).stream("byzantine").sample(range(N), count)
    return ByzantinePlan(modes={u: mode for u in nodes})


def _agree(count, seed):
    """All-1 agreement with ``count`` zero-forgers: a decided 0 is forged."""
    return agree(n=N, alpha=0.5, inputs="all1", seed=seed, adversary="none",
                 byzantine=_plan(count, seed, "zero_forger"))


def _elect(count, seed, mode="rank_forger"):
    return elect_leader(n=N, alpha=0.5, seed=seed, adversary="none",
                        byzantine=_plan(count, seed, mode))


def _honest_bits(result):
    return [
        d.bit
        for u, d in result.decisions.items()
        if u not in result.faulty and d is not Decision.UNDECIDED
    ]


def _validity_holds(result):
    inputs = {b for u, b in enumerate(result.inputs) if u not in result.faulty}
    return all(bit in inputs for bit in _honest_bits(result))


def _agreement_holds(result):
    bits = _honest_bits(result)
    return bool(bits) and len(set(bits)) == 1


def _forged_ranks(mode):
    if mode == "rank_forger":
        return {1}
    return {2, Params(n=N, alpha=0.5).rank_space - 1}


def _byzantine_won(result, mode="rank_forger"):
    """Honest candidates unanimously believe a forged rank."""
    beliefs = {r for u, r in result.beliefs.items() if u not in result.faulty}
    values = beliefs - {None}
    return len(values) == 1 and values <= _forged_ranks(mode)


def _election_intact(result, mode="rank_forger"):
    """Exactly one honest ELECTED node, and no forged rank won."""
    honest_elected = [u for u in result.elected_alive if u not in result.faulty]
    return len(honest_elected) == 1 and not _byzantine_won(result, mode)


class TestZeroForger:
    def test_breaks_validity_with_all_one_inputs(self):
        failures = sum(
            not _validity_holds(_agree(1, seed)) for seed in seed_sequence(1, 6)
        )
        assert failures >= 5

    def test_honest_nodes_still_agree_on_the_forged_value(self):
        result = _agree(1, 2)
        assert _agreement_holds(result)
        assert set(_honest_bits(result)) == {0}

    def test_zero_forgers_harmless_with_zero_count(self):
        result = _agree(0, 3)
        assert _validity_holds(result)
        assert _agreement_holds(result)

    def test_decisions_exclude_byzantine_nodes(self):
        # Honest nodes are read as those outside ``result.faulty``, which
        # holds exactly the plan's attackers when nothing crashes.
        plan = _plan(3, 4, "zero_forger")
        result = _agree(3, 4)
        assert len(plan) == 3 and result.faulty == plan.nodes
        assert not result.crashed


class TestRankForger:
    def test_captures_election(self):
        captures = sum(_byzantine_won(_elect(1, seed)) for seed in seed_sequence(5, 6))
        assert captures >= 5

    def test_intact_without_byzantine(self):
        assert _election_intact(_elect(0, 6))


class TestEquivocator:
    def test_voids_or_captures_election(self):
        bad = sum(
            not _election_intact(_elect(2, seed, "equivocator"), "equivocator")
            for seed in seed_sequence(7, 6)
        )
        assert bad >= 5


class TestWalkElection:
    def test_succeeds_on_expander(self):
        ok = sum(
            walk_based_leader_election(n=128, graph_kind="regular", seed=seed).success
            for seed in seed_sequence(8, 6)
        )
        assert ok >= 5

    def test_winner_is_max_rank_candidate(self):
        outcome = walk_based_leader_election(n=128, graph_kind="regular", seed=9)
        if outcome.success:
            best = max(outcome.ranks[u] for u in outcome.candidates)
            assert outcome.winner_rank == best

    def test_messages_scale_with_mixing_time(self):
        fast = walk_based_leader_election(n=144, graph_kind="regular", seed=10)
        slow = walk_based_leader_election(n=144, graph_kind="torus", seed=10)
        assert slow.messages > 2 * fast.messages

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            walk_based_leader_election(n=4)

    def test_deterministic_by_seed(self):
        a = walk_based_leader_election(n=64, graph_kind="regular", seed=11)
        b = walk_based_leader_election(n=64, graph_kind="regular", seed=11)
        assert a.messages == b.messages
        assert a.elected == b.elected


class TestGraphBuilders:
    def test_known_kinds(self):
        rng = RngFactory(0).stream("g")
        for kind in ("complete", "regular", "torus", "ring"):
            graph = build_graph(kind, 64, rng)
            assert graph.number_of_nodes() >= 49  # torus truncates to square

    def test_unknown_kind(self):
        rng = RngFactory(0).stream("g")
        with pytest.raises(ValueError):
            build_graph("hypercube", 64, rng)

    def test_walk_lengths_ordered_by_mixing(self):
        assert (
            mixing_walk_length("regular", 256)
            < mixing_walk_length("torus", 256)
            < mixing_walk_length("ring", 256)
        )


class TestMixingTimeEstimator:
    def test_ordering_matches_theory(self):
        from repro.extensions.general_graphs import estimate_mixing_time

        rng = RngFactory(0).stream("g")
        expander = estimate_mixing_time(build_graph("regular", 100, rng))
        torus = estimate_mixing_time(build_graph("torus", 100, rng))
        ring = estimate_mixing_time(build_graph("ring", 100, rng))
        assert expander < torus < ring

    def test_complete_graph_mixes_immediately(self):
        from repro.extensions.general_graphs import estimate_mixing_time

        rng = RngFactory(0).stream("g")
        assert estimate_mixing_time(build_graph("complete", 64, rng)) <= 16

    def test_disconnected_rejected(self):
        import networkx as nx

        from repro.extensions.general_graphs import estimate_mixing_time

        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            estimate_mixing_time(graph)
