"""Unit tests for the adversary interface (repro.faults.adversary)."""

import random

import pytest

from repro.errors import SimulationError
from repro.faults.adversary import Adversary, CrashOrder, FaultLedger, RoundView
from repro.optdeps import have_numpy
from repro.sim.message import Envelope, Message


def _envelope(src=0, dst=1):
    return Envelope(src=src, dst=dst, message=Message("X"), round_sent=1)


class TestCrashOrder:
    def test_drop_all(self):
        order = CrashOrder.drop_all()
        assert not order.keep(_envelope())

    def test_keep_all(self):
        order = CrashOrder.keep_all()
        assert order.keep(_envelope())

    def test_keep_destinations(self):
        order = CrashOrder.keep_destinations({2, 3})
        assert order.keep(_envelope(dst=2))
        assert not order.keep(_envelope(dst=1))

    def test_keep_fraction_zero_and_one(self):
        rng = random.Random(0)
        assert not CrashOrder.keep_fraction(0.0, rng).keep(_envelope())
        assert CrashOrder.keep_fraction(1.0, rng).keep(_envelope())

    def test_keep_fraction_validates(self):
        with pytest.raises(ValueError):
            CrashOrder.keep_fraction(1.5, random.Random(0))

    def test_keep_fraction_is_random(self):
        rng = random.Random(1)
        order = CrashOrder.keep_fraction(0.5, rng)
        outcomes = {order.keep(_envelope()) for _ in range(50)}
        assert outcomes == {True, False}


class TestRoundView:
    def test_sending_faulty(self):
        view = RoundView(
            round=3,
            n=8,
            faulty_alive={1, 2, 3},
            crashed={},
            outboxes={1: [_envelope(src=1)], 3: []},
        )
        assert view.sending_faulty() == [1]

    def test_budget_remaining_defaults_to_zero(self):
        view = RoundView(round=1, n=8, faulty_alive=set(), crashed={}, outboxes={})
        assert view.budget_remaining == 0

    def test_budget_remaining_exposed_by_engine(self):
        from repro.faults.adversary import Adversary
        from repro.sim import Message, Network, Protocol

        seen = []

        class Recorder(Adversary):
            def select_faulty(self, n, max_faulty, rng, inputs=None):
                return {0, 1}

            def plan_round(self, view, rng):
                seen.append(view.budget_remaining)
                return {}

            def done(self, view):
                return False

        class Quiet(Protocol):
            def __init__(self, u):
                self.u = u

            def on_round(self, ctx, inbox):
                if self.u == 2 and ctx.round == 1:
                    ctx.send(ctx.sample_nodes(1)[0], Message("X"))
                ctx.idle()

        network = Network(8, Quiet, adversary=Recorder(), max_faulty=5)
        network.run(3)
        assert seen and all(value == 3 for value in seen)  # 5 budget - 2 used


class TestBaseAdversary:
    def test_default_is_fault_free(self):
        adversary = Adversary()
        rng = random.Random(0)
        assert adversary.select_faulty(16, 8, rng) == set()
        view = RoundView(round=1, n=16, faulty_alive=set(), crashed={}, outboxes={})
        assert adversary.plan_round(view, rng) == {}
        assert adversary.done(view)

    def test_done_waits_for_faulty(self):
        view = RoundView(round=1, n=16, faulty_alive={3}, crashed={}, outboxes={})
        assert not Adversary().done(view)

    def test_name(self):
        assert Adversary().name() == "Adversary"


class _Fixed(Adversary):
    """Selects a fixed faulty set; optionally a dynamic selector."""

    def __init__(self, faulty, dynamic_selection=False):
        self.faulty = set(faulty)
        self.dynamic_selection = dynamic_selection

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        return set(self.faulty)


class TestFaultLedger:
    def _ledger(self, faulty=(1, 2, 3), max_faulty=4, dynamic_selection=False):
        return FaultLedger(
            _Fixed(faulty, dynamic_selection), 8, max_faulty, random.Random(0)
        )

    def test_non_faulty_victim_raises(self):
        ledger = self._ledger()
        with pytest.raises(SimulationError, match="non-faulty node 5"):
            ledger.crash({5: CrashOrder.drop_all()}, 1)

    def test_crash_returns_new_crashes_in_order(self):
        ledger = self._ledger()
        first, second = CrashOrder.drop_all(), CrashOrder.keep_all()
        assert ledger.crash({3: first, 1: second}, 2) == [(3, first), (1, second)]
        assert ledger.crashed == {3: 2, 1: 2}

    def test_already_crashed_victim_is_skipped(self):
        ledger = self._ledger()
        order = CrashOrder.drop_all()
        ledger.crash({1: order}, 1)
        assert ledger.crash({1: order, 2: order}, 2) == [(2, order)]
        assert ledger.crashed == {1: 1, 2: 2}

    def test_dynamic_selection_charges_the_budget(self):
        ledger = self._ledger(faulty=(), max_faulty=1, dynamic_selection=True)
        order = CrashOrder.drop_all()
        assert ledger.view(1, {}).budget_remaining == 1
        assert ledger.crash({5: order}, 1) == [(5, order)]
        assert ledger.faulty == {5} and ledger.crashed == {5: 1}
        assert ledger.view(2, {}).budget_remaining == 0
        with pytest.raises(SimulationError, match="exceeded the fault budget 1"):
            ledger.crash({6: order}, 2)

    def test_view_shares_the_live_set(self):
        ledger = self._ledger()
        before = ledger.view(1, {}).faulty_alive
        assert before == {1, 2, 3}
        ledger.crash({2: CrashOrder.drop_all()}, 1)
        after = ledger.view(2, {}).faulty_alive
        assert after is before
        assert after == {1, 3}

    def test_selection_over_budget_raises(self):
        with pytest.raises(SimulationError, match="selected 3 faulty nodes"):
            self._ledger(faulty=(1, 2, 3), max_faulty=2)


class TestLedgerRejectsUnknownNodes:
    """A selected id outside ``range(n)`` names no node: it would charge
    the fault budget while nobody misbehaves, or crash the engine."""

    def test_ledger_names_the_id_and_n(self):
        with pytest.raises(SimulationError, match=r"\[8\].*n=8"):
            FaultLedger(_Fixed({1, 8}), 8, 4, random.Random(0))

    def test_election_plan_with_a_missing_node(self):
        from repro.core.runner import elect_leader
        from repro.faults.byzantine import ByzantinePlan

        plan = ByzantinePlan(modes={500: "rank_forger"})
        with pytest.raises(SimulationError, match=r"\[500\].*n=64"):
            elect_leader(n=64, alpha=0.5, seed=1, byzantine=plan)

    def test_agreement_plan_with_a_negative_node(self):
        from repro.core.runner import agree
        from repro.faults.byzantine import ByzantinePlan

        plan = ByzantinePlan(modes={-1: "zero_forger"})
        with pytest.raises(SimulationError, match=r"\[-1\].*n=64"):
            agree(n=64, alpha=0.5, seed=1, byzantine=plan)

    def test_script_crashing_a_missing_node(self):
        from repro.chaos.script import CrashScript, DeliveryFilter
        from repro.core.runner import elect_leader

        script = CrashScript(
            faulty=(70, 2), crashes={70: (2, DeliveryFilter(kind="drop_all"))}
        )
        with pytest.raises(SimulationError, match=r"\[70\].*n=64"):
            elect_leader(n=64, alpha=0.5, seed=1, adversary=script)

    @pytest.mark.skipif(not have_numpy(), reason="numpy not installed")
    def test_vec_engine_rejects_a_missing_node(self):
        from repro.core.schedule import LeaderElectionSchedule
        from repro.params import Params
        from repro.sim.vec import run_election_vec

        params = Params(n=64, alpha=0.5)
        schedule = LeaderElectionSchedule.from_params(params)
        with pytest.raises(SimulationError, match=r"\[70\].*n=64"):
            run_election_vec(
                params, schedule, 1, _Fixed({70, 2}), 4, schedule.last_round
            )
