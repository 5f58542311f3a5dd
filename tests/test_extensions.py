"""Tests for the open-problem explorations (Byzantine runners, general graphs)."""

import pytest

from repro.extensions import walk_based_leader_election
from repro.extensions.general_graphs import build_graph, mixing_walk_length
from repro.faults.byzantine import run_byzantine_agreement, run_byzantine_election
from repro.rng import RngFactory, seed_sequence


class TestZeroForger:
    def test_breaks_validity_with_all_one_inputs(self):
        failures = sum(
            not run_byzantine_agreement(
                n=96, alpha=0.5, byzantine_count=1, seed=seed
            ).validity_holds
            for seed in seed_sequence(1, 6)
        )
        assert failures >= 5

    def test_honest_nodes_still_agree_on_the_forged_value(self):
        outcome = run_byzantine_agreement(n=96, alpha=0.5, byzantine_count=1, seed=2)
        assert outcome.agreement_holds
        assert set(outcome.honest_bits) == {0}

    def test_zero_forgers_harmless_with_zero_count(self):
        outcome = run_byzantine_agreement(n=96, alpha=0.5, byzantine_count=0, seed=3)
        assert outcome.validity_holds
        assert outcome.agreement_holds

    def test_decisions_exclude_byzantine_nodes(self):
        outcome = run_byzantine_agreement(n=96, alpha=0.5, byzantine_count=3, seed=4)
        assert not (set(outcome.decisions) & outcome.byzantine)


class TestRankForger:
    def test_captures_election(self):
        captures = sum(
            run_byzantine_election(
                n=96, alpha=0.5, byzantine_count=1, seed=seed
            ).byzantine_won
            for seed in seed_sequence(5, 6)
        )
        assert captures >= 5

    def test_intact_without_byzantine(self):
        outcome = run_byzantine_election(n=96, alpha=0.5, byzantine_count=0, seed=6)
        assert outcome.election_intact

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError):
            run_byzantine_election(n=96, alpha=0.5, byzantine_count=1, attack="bogus")


class TestEquivocator:
    def test_voids_or_captures_election(self):
        bad = 0
        for seed in seed_sequence(7, 6):
            outcome = run_byzantine_election(
                n=96, alpha=0.5, byzantine_count=2, seed=seed, attack="equivocator"
            )
            bad += not outcome.election_intact
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
