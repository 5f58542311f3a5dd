"""Engine semantics tests (repro.sim.network): synchrony, CONGEST FIFO,
crash handling, fast-forward, budgets, determinism."""

import gc
import weakref

import pytest

from repro.core import elect_leader
from repro.errors import BudgetExceeded, CongestViolation, SimulationError
from repro.faults.adversary import Adversary, CrashOrder
from repro.faults.strategies import EagerCrash, LazyCrash
from repro.params import CongestBudget
from repro.sim import Message, Network, Protocol, UniformDelay
from repro.types import Knowledge


class Chatter(Protocol):
    """Node 0 sends `count` messages to node 1 in round 1; others idle."""

    def __init__(self, node_id, count=1, kind="X"):
        self.node_id = node_id
        self.count = count
        self.kind = kind
        self.received = []

    def on_round(self, ctx, inbox):
        for delivery in inbox:
            self.received.append((ctx.round, delivery.kind, delivery.fields))
        if self.node_id == 0 and ctx.round == 1:
            ctx.learn(1)
            for i in range(self.count):
                ctx.send(1, Message(self.kind, (i,)))
        ctx.idle()


class TestSynchrony:
    def test_message_arrives_next_round(self):
        network = Network(4, lambda u: Chatter(u))
        result = network.run(5)
        receiver = result.protocol(1)
        assert receiver.received == [(2, "X", (0,))]

    def test_congest_fifo_one_message_per_edge_per_round(self):
        # 3 messages on the same edge take 3 consecutive rounds.
        network = Network(4, lambda u: Chatter(u, count=3))
        result = network.run(6)
        receiver = result.protocol(1)
        assert [r for (r, _, _) in receiver.received] == [2, 3, 4]
        assert [f for (_, _, f) in receiver.received] == [(0,), (1,), (2,)]

    def test_distinct_edges_transmit_in_parallel(self):
        class Fanout(Protocol):
            def __init__(self, u):
                self.u = u
                self.arrivals = []

            def on_round(self, ctx, inbox):
                self.arrivals.extend(ctx.round for _ in inbox)
                if self.u == 0 and ctx.round == 1:
                    for dst in (1, 2, 3):
                        ctx.learn(dst)
                        ctx.send(dst, Message("X"))
                ctx.idle()

        network = Network(4, Fanout)
        result = network.run(4)
        for dst in (1, 2, 3):
            assert result.protocol(dst).arrivals == [2]

    def test_max_round_messages_respects_congest(self):
        network = Network(4, lambda u: Chatter(u, count=5))
        result = network.run(8)
        # One edge in use: at most 1 message per round hits the wire.
        assert result.metrics.max_round_messages == 1


class TestCongestEnforcement:
    def test_oversized_message_rejected(self):
        class Oversized(Protocol):
            def __init__(self, u):
                self.u = u

            def on_round(self, ctx, inbox):
                if self.u == 0:
                    ctx.learn(1)
                    ctx.send(1, Message("X", (2 ** 400,)))
                ctx.idle()

        network = Network(8, Oversized)
        with pytest.raises(CongestViolation):
            network.run(2)

    def test_enforcement_can_be_disabled(self):
        class Oversized(Protocol):
            def __init__(self, u):
                self.u = u

            def on_round(self, ctx, inbox):
                if self.u == 0 and ctx.round == 1:
                    ctx.learn(1)
                    ctx.send(1, Message("X", (2 ** 400,)))
                ctx.idle()

        network = Network(8, Oversized, enforce_congest=False)
        assert network.run(3).metrics.messages_sent == 1


class TestCrashSemantics:
    def test_adversary_cannot_crash_nonfaulty(self):
        class BadAdversary(Adversary):
            def select_faulty(self, n, max_faulty, rng, inputs=None):
                return {0}

            def plan_round(self, view, rng):
                return {1: CrashOrder.drop_all()}  # 1 is not faulty

        network = Network(4, lambda u: Chatter(u), adversary=BadAdversary(), max_faulty=1)
        with pytest.raises(SimulationError):
            network.run(3)

    def test_adversary_budget_enforced(self):
        class Greedy(Adversary):
            def select_faulty(self, n, max_faulty, rng, inputs=None):
                return set(range(n))  # exceeds budget

        with pytest.raises(SimulationError):
            Network(4, lambda u: Chatter(u), adversary=Greedy(), max_faulty=1)

    def test_drop_all_loses_crash_round_messages(self):
        class CrashSender(Adversary):
            def select_faulty(self, n, max_faulty, rng, inputs=None):
                return {0}

            def plan_round(self, view, rng):
                if view.round == 1:
                    return {0: CrashOrder.drop_all()}
                return {}

        network = Network(
            4, lambda u: Chatter(u, count=1), adversary=CrashSender(), max_faulty=1
        )
        result = network.run(4)
        assert result.metrics.messages_sent == 1
        assert result.metrics.messages_dropped == 1
        assert result.metrics.messages_delivered == 0
        assert result.protocol(1).received == []
        assert result.crashed == {0: 1}

    def test_keep_all_crash_delivers_crash_round_messages(self):
        class CrashSender(Adversary):
            def select_faulty(self, n, max_faulty, rng, inputs=None):
                return {0}

            def plan_round(self, view, rng):
                if view.round == 1:
                    return {0: CrashOrder.keep_all()}
                return {}

        network = Network(
            4, lambda u: Chatter(u, count=1), adversary=CrashSender(), max_faulty=1
        )
        result = network.run(4)
        assert result.protocol(1).received == [(2, "X", (0,))]
        assert result.crashed == {0: 1}

    def test_crashed_node_queue_is_discarded(self):
        # 3 queued messages, crash in round 1 with keep_all: only the first
        # (already on the wire) survives; the queued remainder dies.
        class CrashSender(Adversary):
            def select_faulty(self, n, max_faulty, rng, inputs=None):
                return {0}

            def plan_round(self, view, rng):
                if view.round == 1:
                    return {0: CrashOrder.keep_all()}
                return {}

        network = Network(
            4, lambda u: Chatter(u, count=3), adversary=CrashSender(), max_faulty=1
        )
        result = network.run(6)
        assert [f for (_, _, f) in result.protocol(1).received] == [(0,)]

    def test_keep_destinations_partitions_receivers(self):
        class SplitSender(Protocol):
            def __init__(self, u):
                self.u = u
                self.got = False

            def on_round(self, ctx, inbox):
                if inbox:
                    self.got = True
                if self.u == 0 and ctx.round == 1:
                    for dst in (1, 2, 3):
                        ctx.learn(dst)
                        ctx.send(dst, Message("X"))
                ctx.idle()

        class PartitionCrash(Adversary):
            def select_faulty(self, n, max_faulty, rng, inputs=None):
                return {0}

            def plan_round(self, view, rng):
                if view.round == 1:
                    return {0: CrashOrder.keep_destinations({1})}
                return {}

        network = Network(4, SplitSender, adversary=PartitionCrash(), max_faulty=1)
        result = network.run(3)
        assert result.protocol(1).got
        assert not result.protocol(2).got
        assert not result.protocol(3).got

    def test_messages_to_dead_node_evaporate(self):
        class LateSender(Protocol):
            def __init__(self, u):
                self.u = u

            def on_round(self, ctx, inbox):
                if self.u == 1 and ctx.round == 3:
                    ctx.learn(0)
                    ctx.send(0, Message("X"))
                ctx.idle() if self.u != 1 else None

        network = Network(
            4, LateSender, adversary=EagerCrash(), max_faulty=1
        )
        result = network.run(5)
        # Node 0 may or may not be the faulty one under the random pick,
        # but conservation holds exactly either way: the one message is
        # delivered, dropped, or expired (sent to the dead node).
        metrics = result.metrics
        assert metrics.messages_sent == 1
        assert (
            metrics.messages_delivered
            + metrics.messages_dropped
            + metrics.messages_expired
        ) == 1

    def test_crashed_node_does_not_get_on_stop(self):
        stopped = []

        class Stopper(Protocol):
            def __init__(self, u):
                self.u = u

            def on_round(self, ctx, inbox):
                ctx.idle()

            def on_stop(self, ctx):
                stopped.append(self.u)

        network = Network(4, Stopper, adversary=EagerCrash(), max_faulty=2)
        result = network.run(3)
        assert set(stopped) == set(range(4)) - set(result.crashed)


class _CrashZeroEarly(Adversary):
    """Crashes node 0 (drop_all) in round 1; nothing else."""

    def select_faulty(self, n, max_faulty, rng, inputs=None):
        return {0}

    def plan_round(self, view, rng):
        if view.round == 1:
            return {0: CrashOrder.drop_all()}
        return {}


class _SendToZeroLate(Protocol):
    """Node 1 sends to (long-dead) node 0 in round 3."""

    def __init__(self, u):
        self.u = u

    def on_round(self, ctx, inbox):
        if self.u == 1 and ctx.round == 3:
            ctx.learn(0)
            ctx.send(0, Message("X"))
        # The sender stays active until round 3 so the quiescence
        # fast-forward cannot skip past the send.
        if self.u != 1 or ctx.round >= 3:
            ctx.idle()


class TestExpiredAccounting:
    """Messages sent to already-crashed receivers are *expired*, not lost:
    ``sent == delivered + dropped + expired`` holds exactly."""

    def _run(self, collect_trace):
        network = Network(
            4,
            _SendToZeroLate,
            adversary=_CrashZeroEarly(),
            max_faulty=1,
            collect_trace=collect_trace,
        )
        return network.run(5)

    def test_expired_counted_on_traced_path(self):
        result = self._run(collect_trace=True)
        metrics = result.metrics
        assert metrics.messages_sent == 1
        assert metrics.messages_delivered == 0
        assert metrics.messages_dropped == 0
        assert metrics.messages_expired == 1
        expiries = list(result.trace.expiries())
        assert len(expiries) == 1
        assert (expiries[0].src, expiries[0].dst) == (1, 0)

    def test_expired_counted_on_fast_path(self):
        result = self._run(collect_trace=False)
        assert result.trace is None
        assert result.metrics.messages_expired == 1
        assert result.metrics.messages_delivered == 0
        assert result.metrics.messages_dropped == 0

    def test_traced_run_passes_validator(self):
        from repro.sim import validate_run

        assert validate_run(self._run(collect_trace=True)) == []


class TestKnowledgeInit:
    def test_kt1_known_set_excludes_self(self):
        # Regression: KT1 init used to seed each node's ``_known`` with
        # all n ids including its own, inconsistent with KT0/all_ports()
        # semantics (a node has n - 1 ports, none to itself).
        network = Network(5, lambda u: Chatter(u), knowledge=Knowledge.KT1)
        for ctx in network.contexts:
            assert ctx.node_id not in ctx._known
            assert ctx._known == set(range(5)) - {ctx.node_id}

    def test_kt0_starts_empty(self):
        network = Network(5, lambda u: Chatter(u), knowledge=Knowledge.KT0)
        for ctx in network.contexts:
            assert ctx._known == set()


class TestPhaseTimers:
    def test_profiled_run_collects_all_engine_phases(self):
        from repro.obs import ENGINE_PHASES, PhaseTimers

        timers = PhaseTimers()
        network = Network(8, lambda u: Chatter(u, count=3), timers=timers)
        result = network.run(6)
        assert set(result.metrics.phase_seconds) == set(ENGINE_PHASES)
        assert all(v >= 0.0 for v in result.metrics.phase_seconds.values())
        assert result.phase_seconds == result.metrics.phase_seconds

    def test_unprofiled_run_records_no_phases(self):
        network = Network(8, lambda u: Chatter(u, count=3))
        result = network.run(6)
        assert result.metrics.phase_seconds == {}

    def test_profiling_does_not_change_metrics(self):
        from repro.obs import PhaseTimers

        def metrics(timers):
            network = Network(
                16,
                lambda u: Chatter(u, count=3),
                seed=9,
                adversary=EagerCrash(),
                max_faulty=8,
                timers=timers,
            )
            summary = network.run(8).metrics.summary()
            summary.pop("phase_seconds", None)
            return summary

        assert metrics(None) == metrics(PhaseTimers())


class TestFastForward:
    def test_quiescent_run_skips_rounds(self):
        network = Network(8, lambda u: Chatter(u))
        result = network.run(1000)
        assert result.horizon == result.metrics.horizon == 1000
        assert result.metrics.rounds_executed < 10
        # rounds reports the actual last executed round, not the horizon.
        assert result.rounds == result.metrics.rounds == result.metrics.rounds_executed

    def test_fast_forward_waits_for_adversary(self):
        # A lazy adversary crashing at round 50 keeps the engine ticking
        # (cheaply) until the crash is delivered.
        network = Network(
            8, lambda u: Chatter(u), adversary=LazyCrash(crash_round=50), max_faulty=4
        )
        result = network.run(100)
        assert result.metrics.crashes == 4
        assert 50 <= result.metrics.rounds_executed <= 60

    def test_on_stop_sees_last_executed_round(self):
        # Regression: on_stop used to see ctx.round == horizon even when
        # the quiescence fast-forward exited much earlier.
        final_rounds = []

        class Stopper(Protocol):
            def __init__(self, u):
                self.u = u

            def on_round(self, ctx, inbox):
                ctx.idle()

            def on_stop(self, ctx):
                final_rounds.append(ctx.round)

        network = Network(4, Stopper)
        result = network.run(77)
        # Everyone idles after round 1, so round 1 is the last executed.
        assert result.metrics.rounds_executed == 1
        assert final_rounds == [1] * 4

    def test_on_stop_round_matches_horizon_without_fast_forward(self):
        final_rounds = []

        class Buzzer(Protocol):
            def __init__(self, u):
                self.u = u

            def on_round(self, ctx, inbox):
                pass  # stays active every round; no fast-forward

            def on_stop(self, ctx):
                final_rounds.append(ctx.round)

        network = Network(4, Buzzer)
        result = network.run(9)
        assert result.metrics.rounds_executed == 9
        assert final_rounds == [9] * 4


class TestBudget:
    def test_suppress_mode_caps_messages(self):
        network = Network(4, lambda u: Chatter(u, count=10), message_budget=4)
        result = network.run(20)
        assert result.metrics.messages_sent == 4
        assert network.budget_exhausted

    def test_raise_mode_raises(self):
        network = Network(
            4,
            lambda u: Chatter(u, count=10),
            message_budget=4,
            budget_mode="raise",
        )
        with pytest.raises(BudgetExceeded):
            network.run(20)

    def test_unknown_budget_mode_rejected(self):
        with pytest.raises(SimulationError):
            Network(4, lambda u: Chatter(u), budget_mode="bogus")


class Spray(Protocol):
    """In round 1 every node queues `count` messages on each of three edges."""

    def __init__(self, node_id, n, count=3):
        self.node_id = node_id
        self.n = n
        self.count = count

    def on_round(self, ctx, inbox):
        if ctx.round == 1:
            for k in (1, 2, 3):
                dst = (self.node_id + k) % self.n
                ctx.learn(dst)
                for i in range(self.count):
                    ctx.send(dst, Message("X", (i,)))
        ctx.idle()


class TestNoTraceFastPath:
    """Tracing must be an observer: metrics are identical either way."""

    def _network(
        self, collect_trace, message_budget=None, delivery=None, budget_mode="suppress"
    ):
        return Network(
            16,
            lambda u: Spray(u, 16),
            seed=9,
            adversary=EagerCrash(),
            max_faulty=8,
            collect_trace=collect_trace,
            message_budget=message_budget,
            budget_mode=budget_mode,
            delivery=delivery,
        )

    def _metrics(self, collect_trace, **options):
        """Run metrics; ``options`` are ``message_budget``, ``delivery``
        and ``budget_mode``."""
        return self._network(collect_trace, **options).run(8).metrics

    def test_metrics_identical_with_and_without_trace(self):
        traced = self._metrics(collect_trace=True)
        untraced = self._metrics(collect_trace=False)
        assert untraced == traced  # dataclass equality: every counter/series

    def test_trace_collected_only_when_asked(self):
        network = Network(4, lambda u: Chatter(u), collect_trace=False)
        assert network.run(3).trace is None
        network = Network(4, lambda u: Chatter(u), collect_trace=True)
        trace = network.run(3).trace
        assert trace is not None and trace.events

    def test_budgeted_run_metrics_identical_with_and_without_trace(self):
        # A budget that never bites leaves every count as the unbudgeted
        # run has it, traced or not.
        traced = self._metrics(collect_trace=True, message_budget=10_000)
        untraced = self._metrics(collect_trace=False, message_budget=10_000)
        unbudgeted = self._metrics(collect_trace=False)
        assert untraced == traced == unbudgeted

    def test_budget_biting_mid_sender_accounts_identically(self):
        # Round 1 puts one message per edge on the wire: 3 per sender, so
        # a budget of 7 runs out after the first message of node 2.
        traced_net = self._network(collect_trace=True, message_budget=7)
        untraced_net = self._network(collect_trace=False, message_budget=7)
        traced = traced_net.run(8)
        untraced = untraced_net.run(8)
        assert untraced.metrics == traced.metrics
        assert traced_net.budget_exhausted and untraced_net.budget_exhausted
        sends = list(traced.trace.sends())
        assert len(sends) == traced.metrics.messages_sent == 7
        assert traced.metrics.per_node_sent == {0: 3, 1: 3, 2: 1}

    def test_raise_mode_raises_identically_with_and_without_trace(self):
        messages = []
        for collect_trace in (True, False):
            with pytest.raises(BudgetExceeded) as excinfo:
                self._metrics(collect_trace, message_budget=7, budget_mode="raise")
            messages.append(str(excinfo.value))
        assert messages == ["message budget 7 exhausted in round 1"] * 2

    def test_delayed_run_metrics_identical_with_and_without_trace(self):
        delivery = UniformDelay(2, salt=5)
        traced = self._metrics(collect_trace=True, delivery=delivery)
        untraced = self._metrics(collect_trace=False, delivery=delivery)
        assert untraced == traced
        assert traced.max_delivery_latency > 1  # the schedule really delayed


class TestNoReferenceCycle:
    """A finished run is freed by reference counting alone: nothing in the
    engine points back at the :class:`Network`, so its contexts,
    protocols and trace never wait for the cyclic collector."""

    @pytest.mark.parametrize("collect_trace", [False, True])
    def test_finished_election_is_freed_without_the_collector(
        self, fast_params, collect_trace
    ):
        gc.collect()
        gc.disable()
        try:
            result = elect_leader(
                n=64, alpha=0.5, seed=1, adversary="random",
                params=fast_params(64), collect_trace=collect_trace,
            )
            kept = [weakref.ref(result.metrics)]
            if collect_trace:
                kept.append(weakref.ref(result.trace))
            del result
            assert all(ref() is None for ref in kept)
        finally:
            gc.enable()

    @pytest.mark.parametrize("collect_trace", [False, True])
    def test_network_is_freed_without_the_collector(self, collect_trace):
        gc.collect()
        gc.disable()
        try:
            network = Network(
                16, lambda u: Spray(u, 16), seed=9, adversary=EagerCrash(),
                max_faulty=8, collect_trace=collect_trace,
            )
            result = network.run(4)
            kept = [weakref.ref(network), weakref.ref(result.protocols[0])]
            del network, result
            assert all(ref() is None for ref in kept)
        finally:
            gc.enable()


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run(seed):
            network = Network(
                16,
                lambda u: Chatter(u, count=2),
                seed=seed,
                adversary=EagerCrash(),
                max_faulty=8,
            )
            result = network.run(6)
            return (
                result.metrics.messages_sent,
                result.metrics.messages_dropped,
                sorted(result.faulty),
                dict(result.crashed),
            )

        assert run(5) == run(5)

    def test_different_seed_different_faulty_set(self):
        def faulty(seed):
            network = Network(
                64,
                lambda u: Chatter(u),
                seed=seed,
                adversary=EagerCrash(),
                max_faulty=32,
            )
            network.run(2)
            return sorted(network.faulty)

        assert faulty(1) != faulty(2)


class TestValidation:
    def test_rejects_single_node(self):
        with pytest.raises(SimulationError):
            Network(1, lambda u: Chatter(u))

    def test_rejects_zero_rounds(self):
        network = Network(4, lambda u: Chatter(u))
        with pytest.raises(SimulationError):
            network.run(0)

    def test_rejects_over_hard_cap(self):
        from repro.sim.network import HARD_MAX_ROUNDS

        network = Network(4, lambda u: Chatter(u))
        with pytest.raises(SimulationError):
            network.run(HARD_MAX_ROUNDS + 1)

    def test_run_result_alive_and_nonfaulty(self):
        network = Network(
            8, lambda u: Chatter(u), adversary=EagerCrash(), max_faulty=4
        )
        result = network.run(3)
        assert set(result.alive) == set(range(8)) - set(result.crashed)
        assert set(result.nonfaulty) == set(range(8)) - result.faulty
