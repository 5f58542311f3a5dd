"""Behavioural tests for the adversary strategies (repro.faults.strategies)."""

import random

import pytest

from repro.faults.adversary import RoundView
from repro.faults.strategies import (
    AdaptiveMinProposerCrash,
    EagerCrash,
    LazyCrash,
    NoFaults,
    RandomCrash,
    SplitDeliveryCrash,
    StaggeredCrash,
    named_adversary,
    standard_portfolio,
)
from repro.sim.message import Envelope, Message


def _view(round_, faulty_alive, outboxes=None):
    return RoundView(
        round=round_,
        n=64,
        faulty_alive=set(faulty_alive),
        crashed={},
        outboxes=outboxes or {},
    )


def _envelope(src, dst, fields=()):
    return Envelope(src=src, dst=dst, message=Message("M", fields), round_sent=1)


class TestNoFaults:
    def test_selects_nothing(self):
        assert NoFaults().select_faulty(64, 32, random.Random(0)) == set()

    def test_always_done(self):
        assert NoFaults().done(_view(1, set()))


class TestEagerCrash:
    def test_crashes_everything_in_round_one(self):
        adversary = EagerCrash()
        faulty = adversary.select_faulty(64, 16, random.Random(0))
        assert len(faulty) == 16
        orders = adversary.plan_round(_view(1, faulty), random.Random(0))
        assert set(orders) == faulty

    def test_silent_after_round_one(self):
        adversary = EagerCrash()
        faulty = adversary.select_faulty(64, 16, random.Random(0))
        assert adversary.plan_round(_view(2, faulty), random.Random(0)) == {}

    def test_drops_everything(self):
        adversary = EagerCrash()
        faulty = adversary.select_faulty(64, 16, random.Random(0))
        victim = next(iter(faulty))
        orders = adversary.plan_round(_view(1, faulty), random.Random(0))
        assert not orders[victim].keep(_envelope(victim, 0))


class TestLazyCrash:
    def test_never_crashes_without_round(self):
        adversary = LazyCrash()
        faulty = adversary.select_faulty(64, 8, random.Random(0))
        for round_ in (1, 5, 100):
            assert adversary.plan_round(_view(round_, faulty), random.Random(0)) == {}
        assert adversary.done(_view(1, faulty))

    def test_crashes_exactly_at_round(self):
        adversary = LazyCrash(crash_round=7)
        faulty = adversary.select_faulty(64, 8, random.Random(0))
        assert adversary.plan_round(_view(6, faulty), random.Random(0)) == {}
        orders = adversary.plan_round(_view(7, faulty), random.Random(0))
        assert set(orders) == faulty

    def test_not_done_until_after_crash_round(self):
        # Regression: done() must be False *at* the crash round, else the
        # engine fast-forwards past the crash.
        adversary = LazyCrash(crash_round=7)
        faulty = adversary.select_faulty(64, 8, random.Random(0))
        assert not adversary.done(_view(7, faulty))
        assert adversary.done(_view(8, faulty))


class TestRandomCrash:
    def test_schedule_covers_horizon(self):
        adversary = RandomCrash(horizon=10)
        faulty = adversary.select_faulty(256, 128, random.Random(0))
        rounds = set(adversary._by_round)
        assert rounds <= set(range(1, 11))
        assert len(rounds) > 3  # spread out
        scheduled = [u for victims in adversary._by_round.values() for u in victims]
        assert sorted(scheduled) == sorted(faulty)  # each faulty node once

    def test_every_faulty_node_eventually_crashes(self):
        adversary = RandomCrash(horizon=5)
        faulty = adversary.select_faulty(64, 16, random.Random(1))
        crashed = set()
        alive = set(faulty)
        for round_ in range(1, 6):
            orders = adversary.plan_round(_view(round_, alive), random.Random(0))
            crashed |= set(orders)
            alive -= set(orders)
        assert crashed == faulty

    def test_validates_horizon(self):
        with pytest.raises(ValueError):
            RandomCrash(horizon=0)

    def test_validates_keep_probability(self):
        with pytest.raises(ValueError):
            RandomCrash(horizon=5, keep_probability=2.0)

    def test_keep_probability_error_shows_the_value(self):
        with pytest.raises(ValueError, match="got 1.5"):
            RandomCrash(horizon=5, keep_probability=1.5)

    def test_not_done_at_horizon(self):
        adversary = RandomCrash(horizon=5)
        faulty = adversary.select_faulty(64, 8, random.Random(0))
        assert not adversary.done(_view(5, faulty))
        assert adversary.done(_view(6, faulty))


class TestStaggeredCrash:
    def test_one_victim_per_period(self):
        adversary = StaggeredCrash(period=4)
        faulty = adversary.select_faulty(64, 8, random.Random(0))
        victims = []
        alive = set(faulty)
        for round_ in range(1, 40):
            orders = adversary.plan_round(_view(round_, alive), random.Random(0))
            assert len(orders) <= 1
            victims.extend(orders)
            alive -= set(orders)
        assert set(victims) == faulty

    def test_crash_rounds_are_periodic(self):
        adversary = StaggeredCrash(period=3, start_round=2)
        faulty = adversary.select_faulty(64, 4, random.Random(0))
        alive = set(faulty)
        crash_rounds = []
        for round_ in range(1, 20):
            orders = adversary.plan_round(_view(round_, alive), random.Random(0))
            if orders:
                crash_rounds.append(round_)
                alive -= set(orders)
        assert crash_rounds == [2, 5, 8, 11]

    def test_validates_period(self):
        with pytest.raises(ValueError):
            StaggeredCrash(period=0)


class TestSplitDeliveryCrash:
    def test_keeps_smaller_half_of_destinations(self):
        adversary = SplitDeliveryCrash(horizon=1)
        faulty = adversary.select_faulty(64, 4, random.Random(3))
        victim = next(iter(faulty))  # horizon=1: every victim is due in round 1
        outbox = [_envelope(victim, dst) for dst in (10, 20, 30, 40)]
        orders = adversary.plan_round(
            _view(1, {victim}, outboxes={victim: outbox}), random.Random(0)
        )
        order = orders[victim]
        kept = [e.dst for e in outbox if order.keep(e)]
        assert kept == [10, 20]


class TestCanonicalVictimOrder:
    """Victims come out in id order, however the live set iterates."""

    IDS = (70000, 3, 65539)

    def _alive(self):
        alive = set(self.IDS)
        assert list(alive) != sorted(alive)  # the precondition that matters
        return alive

    def _outboxes(self):
        return {u: [_envelope(u, dst) for dst in (1, 2, 4)] for u in self.IDS}

    @pytest.mark.parametrize(
        "name, round_",
        [("eager", 1), ("lazy", 1), ("random", 1), ("split", 1), ("referees", 2)],
    )
    def test_plan_round_keys_are_sorted(self, name, round_):
        adversary = named_adversary(name, horizon=1)
        adversary.select_faulty(70001, 70001, random.Random(0))
        view = _view(round_, (), outboxes=self._outboxes())
        view.faulty_alive = self._alive()
        orders = adversary.plan_round(view, random.Random(0))
        assert list(orders) == sorted(self.IDS)

    def test_random_keep_decisions_ignore_set_order(self):
        def decisions(alive):
            adversary = RandomCrash(horizon=1)
            adversary.select_faulty(70001, 70001, random.Random(0))
            view = _view(1, (), outboxes=self._outboxes())
            view.faulty_alive = alive
            orders = adversary.plan_round(view, random.Random(5))
            return {
                (e.src, e.dst): orders[u].keep(e)
                for u in orders
                for e in view.outboxes[u]
            }

        in_sorted_insertion_order = dict.fromkeys(sorted(self.IDS)).keys()
        assert decisions(self._alive()) == decisions(in_sorted_insertion_order)


class TestAdaptiveMinProposerCrash:
    def test_targets_smallest_field_sender(self):
        adversary = AdaptiveMinProposerCrash()
        adversary.select_faulty(64, 8, random.Random(0))
        outboxes = {
            5: [_envelope(5, 1, (100,))],
            6: [_envelope(6, 2, (7,))],
        }
        orders = adversary.plan_round(
            _view(2, {5, 6}, outboxes=outboxes), random.Random(0)
        )
        assert set(orders) == {6}

    def test_ignores_silent_rounds(self):
        adversary = AdaptiveMinProposerCrash()
        adversary.select_faulty(64, 8, random.Random(0))
        assert adversary.plan_round(_view(2, {5, 6}), random.Random(0)) == {}

    def test_respects_period(self):
        adversary = AdaptiveMinProposerCrash(period=3)
        adversary.select_faulty(64, 8, random.Random(0))
        outboxes = {5: [_envelope(5, 1, (100,))]}
        assert (
            adversary.plan_round(_view(2, {5}, outboxes=outboxes), random.Random(0))
            == {}
        )
        assert adversary.plan_round(
            _view(3, {5}, outboxes=outboxes), random.Random(0)
        )


class TestRegistry:
    def test_named_adversary_roundtrip(self):
        for name in ("none", "eager", "lazy", "random", "staggered", "split", "adaptive"):
            adversary = named_adversary(name, horizon=10)
            assert adversary.name()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            named_adversary("bogus", horizon=10)

    def test_portfolio_is_diverse(self):
        portfolio = standard_portfolio(horizon=20)
        names = {a.name() for a in portfolio}
        assert len(names) == len(portfolio) >= 6
