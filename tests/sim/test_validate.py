"""Tests for the trace validator (repro.sim.validate)."""

import pytest

from repro.core import agree, elect_leader
from repro.sim import Network, RunResult, validate_run
from repro.sim.metrics import Metrics
from repro.sim.trace import Trace, TraceEvent


def _result(events, n=8, faulty=frozenset(), crashed=None, metrics=None):
    trace = Trace()
    for event in events:
        trace.record(event)
    if metrics is None:
        metrics = Metrics()
        metrics.messages_sent = sum(1 for e in events if e.kind == "send")
        metrics.messages_delivered = sum(1 for e in events if e.kind == "deliver")
        metrics.messages_dropped = sum(1 for e in events if e.kind == "drop")
        metrics.messages_expired = sum(1 for e in events if e.kind == "expire")
        # Synthetic per-round attribution: one bucket per round seen.
        last_round = max((e.round for e in events), default=0)
        metrics.per_round_messages = [
            sum(1 for e in events if e.kind == "send" and e.round == r)
            for r in range(1, last_round + 1)
        ]
    return RunResult(
        n=n,
        protocols=[],
        metrics=metrics,
        trace=trace,
        faulty=set(faulty),
        crashed=dict(crashed or {}),
        rounds=10,
    )


def send(r, src, dst):
    return TraceEvent(round=r, kind="send", src=src, dst=dst, message_kind="X")


def deliver(r, src, dst, received=None):
    return TraceEvent(
        round=r,
        kind="deliver",
        src=src,
        dst=dst,
        message_kind="X",
        round_received=r + 1 if received is None else received,
    )


def drop(r, src, dst):
    return TraceEvent(round=r, kind="drop", src=src, dst=dst, message_kind="X")


def expire(r, src, dst):
    return TraceEvent(round=r, kind="expire", src=src, dst=dst, message_kind="X")


def crash(r, node):
    return TraceEvent(round=r, kind="crash", src=node)


class TestCleanTraces:
    def test_empty_trace_is_clean(self):
        assert validate_run(_result([])) == []

    def test_simple_exchange_is_clean(self):
        events = [send(1, 0, 1), deliver(1, 0, 1), send(2, 1, 0), deliver(2, 1, 0)]
        assert validate_run(_result(events)) == []

    def test_crash_with_drop_is_clean(self):
        events = [send(1, 0, 1), drop(1, 0, 1), crash(1, 0)]
        result = _result(events, faulty={0}, crashed={0: 1})
        assert validate_run(result) == []

    def test_expire_to_dead_receiver_is_clean(self):
        # Node 1 crashes in round 1; a round-2 message to it expires.
        events = [crash(1, 1), send(2, 0, 1), expire(2, 0, 1)]
        result = _result(events, faulty={1}, crashed={1: 1})
        assert validate_run(result) == []

    def test_expire_in_receivers_crash_round_is_clean(self):
        # Sender and receiver race in the same round: the message was on
        # the wire when the receiver crashed, so it expires legally.
        events = [send(1, 0, 1), crash(1, 1), expire(1, 0, 1)]
        result = _result(events, faulty={1}, crashed={1: 1})
        assert validate_run(result) == []

    def test_untraced_run_rejected(self):
        result = _result([])
        result.trace = None
        with pytest.raises(ValueError):
            validate_run(result)


class TestViolations:
    def test_congest_double_send(self):
        events = [send(1, 0, 1), send(1, 0, 1)]
        assert any("CONGEST" in v for v in validate_run(_result(events)))

    def test_self_message(self):
        assert any("self-message" in v for v in validate_run(_result([send(1, 2, 2)])))

    def test_send_after_crash(self):
        events = [crash(1, 0), send(2, 0, 1)]
        result = _result(events, faulty={0}, crashed={0: 1})
        assert any("dead node" in v for v in validate_run(result))

    def test_delivery_without_send(self):
        assert any(
            "without a matching send" in v
            for v in validate_run(_result([deliver(1, 0, 1)]))
        )

    def test_drop_outside_crash_round(self):
        events = [send(2, 0, 1), drop(2, 0, 1), crash(5, 0)]
        result = _result(events, faulty={0}, crashed={0: 5})
        assert any("outside its crash round" in v for v in validate_run(result))

    def test_nonfaulty_crash(self):
        events = [crash(1, 3)]
        result = _result(events, faulty=set(), crashed={3: 1})
        assert any("non-faulty" in v for v in validate_run(result))

    def test_metrics_mismatch(self):
        metrics = Metrics()
        metrics.messages_sent = 99
        result = _result([send(1, 0, 1), deliver(1, 0, 1)], metrics=metrics)
        assert any("metrics counted" in v for v in validate_run(result))

    def test_unaccounted_send_breaks_conservation(self):
        events = [send(1, 0, 1)]  # never delivered, dropped, or expired
        assert any(
            "conservation broken" in v for v in validate_run(_result(events))
        )

    def test_expire_without_crash(self):
        events = [send(1, 0, 1), expire(1, 0, 1)]
        assert any(
            "expired but nothing ever crashed" in v
            for v in validate_run(_result(events))
        )

    def test_expire_before_receiver_crashed(self):
        # Receiver crashes only in round 5; a round-2 expiry is bogus.
        events = [send(2, 0, 1), expire(2, 0, 1), crash(5, 1)]
        result = _result(events, faulty={1}, crashed={1: 5})
        assert any(
            "the receiver crashed in round 5" in v for v in validate_run(result)
        )

    def test_expired_metrics_mismatch(self):
        metrics = Metrics()
        metrics.messages_sent = 1
        metrics.messages_expired = 7
        metrics.per_round_messages = [1]
        events = [crash(1, 1), send(1, 0, 1), expire(1, 0, 1)]
        result = _result(events, faulty={1}, crashed={1: 1}, metrics=metrics)
        assert any("metrics counted 7" in v for v in validate_run(result))

    def test_per_round_attribution_mismatch(self):
        metrics = Metrics()
        metrics.messages_sent = 1
        metrics.messages_delivered = 1
        metrics.per_round_messages = []  # the send lost its round bucket
        events = [send(1, 0, 1), deliver(1, 0, 1)]
        result = _result(events, metrics=metrics)
        assert any(
            "per-round attribution broken" in v for v in validate_run(result)
        )

    def test_late_delivery(self):
        # Arrival two rounds after the send breaks the latency invariant.
        events = [send(1, 0, 1), deliver(1, 0, 1, received=3)]
        assert any("arrived in round 3" in v for v in validate_run(_result(events)))

    def test_instant_delivery(self):
        # Same-round arrival (zero latency) is just as illegal.
        events = [send(1, 0, 1), deliver(1, 0, 1, received=1)]
        assert any("arrived in round 1" in v for v in validate_run(_result(events)))

    def test_delivery_without_arrival_round(self):
        events = [
            send(1, 0, 1),
            TraceEvent(round=1, kind="deliver", src=0, dst=1, message_kind="X"),
        ]
        assert any(
            "no recorded arrival round" in v for v in validate_run(_result(events))
        )


class TestRealRuns:
    @pytest.mark.parametrize("adversary", ["none", "eager", "random", "adaptive"])
    def test_leader_election_runs_are_clean(self, fast_params, adversary):
        result = elect_leader(
            n=96, alpha=0.5, seed=3, adversary=adversary,
            params=fast_params(96), collect_trace=True,
        )
        run = RunResult(
            n=result.n,
            protocols=[],
            metrics=result.metrics,
            trace=result.trace,
            faulty=result.faulty,
            crashed=result.crashed,
            rounds=result.rounds,
        )
        assert validate_run(run) == []

    def test_agreement_runs_are_clean(self, fast_params):
        result = agree(
            n=96, alpha=0.5, inputs="mixed", seed=4, adversary="split",
            params=fast_params(96), collect_trace=True,
        )
        run = RunResult(
            n=result.n,
            protocols=[],
            metrics=result.metrics,
            trace=result.trace,
            faulty=result.faulty,
            crashed=result.crashed,
            rounds=result.rounds,
        )
        assert validate_run(run) == []


class TestExactReports:
    """The whole violation list, order included: one line per broken law,
    none added and none hidden by a neighbouring event."""

    def test_out_of_range_endpoints_beside_their_aliases(self):
        # With n=8, (round*n + src)*n + dst maps 1: 9 -> 0 onto 2: 1 -> 0
        # and 1: 2 -> -1 onto 1: 1 -> 7; the valid messages stay clean.
        events = [
            send(2, 1, 0), deliver(2, 1, 0), send(1, 9, 0), deliver(1, 9, 0),
            send(1, 1, 7), deliver(1, 1, 7), send(1, 2, -1), deliver(1, 2, -1),
        ]
        assert validate_run(_result(events)) == [
            "round 1: endpoint out of range (9 -> 0)",
            "round 1: endpoint out of range (2 -> -1)",
        ]

    def test_send_without_a_destination(self):
        events = [TraceEvent(1, "send", 0), send(1, 0, 1), deliver(1, 0, 1)]
        assert validate_run(_result(events)) == [
            "conservation broken: 2 sends != 1 deliveries + 0 drops + 0 expiries",
            "round 1: endpoint out of range (0 -> None)",
        ]

    def test_out_of_range_outcome_beside_its_alias(self):
        events = [send(2, 1, 0), deliver(2, 1, 0), deliver(1, 9, 0)]
        assert validate_run(_result(events)) == [
            "conservation broken: 1 sends != 2 deliveries + 0 drops + 0 expiries",
            "round 1: deliver without a matching send on 9 -> 0",
        ]

    def test_outcome_without_send(self):
        events = [send(1, 0, 1), deliver(1, 0, 1), drop(2, 3, 4), crash(2, 3)]
        result = _result(events, faulty={3}, crashed={3: 2})
        assert validate_run(result) == [
            "conservation broken: 1 sends != 1 deliveries + 1 drops + 0 expiries",
            "round 2: drop without a matching send on 3 -> 4",
        ]

    def test_message_with_two_outcomes(self):
        events = [send(1, 0, 1), deliver(1, 0, 1), crash(1, 0), drop(1, 0, 1)]
        result = _result(events, faulty={0}, crashed={0: 1})
        assert validate_run(result) == [
            "conservation broken: 1 sends != 1 deliveries + 1 drops + 0 expiries",
            "round 1: message 0 -> 1 both deliver and drop",
        ]

    def test_congest_double_send(self):
        events = [send(1, 0, 1), send(1, 0, 1), deliver(1, 0, 1), deliver(1, 0, 1)]
        assert validate_run(_result(events)) == [
            "round 1: two messages on edge 0 -> 1 (CONGEST violation)",
            "round 1: message 0 -> 1 both deliver and deliver",
        ]

    def test_send_after_crash(self):
        events = [crash(1, 0), send(2, 0, 1), drop(2, 0, 1)]
        result = _result(events, faulty={0}, crashed={0: 1})
        assert validate_run(result) == [
            "round 2: dead node 0 (crashed round 1) sent a message",
            "round 2: drop from 0 outside its crash round (1)",
        ]

    def test_outcome_laws_report_in_kind_order(self):
        # Each kind's law is reported after every matching violation, and
        # deliveries before drops before expiries, whatever the event order.
        events = [
            crash(1, 5), send(1, 4, 5), expire(1, 4, 5),
            send(2, 0, 1), send(2, 2, 3), drop(2, 2, 3),
            send(3, 0, 1), deliver(3, 0, 1, received=6),
            deliver(2, 0, 1), send(3, 6, 7), expire(3, 6, 7),
        ]
        result = _result(events, faulty={5}, crashed={5: 1})
        assert validate_run(result) == [
            "round 3: delivery 0 -> 1 arrived in round 6, expected a round in [4, 4]",
            "round 2: drop from 2 outside its crash round (None)",
            "round 3: message 6 -> 7 expired but the receiver crashed in round None",
        ]

    def test_metrics_disagree_on_every_count(self):
        metrics = Metrics()
        metrics.messages_sent = 4
        metrics.messages_delivered = 3
        metrics.messages_dropped = 2
        metrics.messages_expired = 1
        metrics.per_round_messages = [4]
        result = _result([send(1, 0, 1), deliver(1, 0, 1)], metrics=metrics)
        assert validate_run(result) == [
            "trace has 1 sends, metrics counted 4",
            "trace has 1 deliveries, metrics counted 3",
            "trace has 0 drops, metrics counted 2",
            "trace has 0 expiries, metrics counted 1",
        ]

    def test_expiry_outside_its_arrival_window(self):
        late_expiry = TraceEvent(
            round=1, kind="expire", src=0, dst=1, message_kind="X", round_received=4
        )
        events = [crash(1, 1), send(1, 0, 1), late_expiry]
        result = _result(events, faulty={1}, crashed={1: 1})
        assert validate_run(result) == [
            "round 1: expiry 0 -> 1 resolved at round 4, outside [2, 2]",
        ]

    def test_trace_crashes_disagree_with_the_result(self):
        result = _result([crash(1, 3)], faulty={3}, crashed={})
        assert validate_run(result) == [
            "trace crashes disagree with RunResult.crashed",
        ]
