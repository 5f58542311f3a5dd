"""Unit tests for execution traces (repro.sim.trace)."""

import pickle

from repro.sim.trace import Trace, TraceEvent, new_event


def _sample_trace() -> Trace:
    trace = Trace()
    trace.record(TraceEvent(round=1, kind="send", src=0, dst=1, message_kind="X"))
    trace.record(TraceEvent(round=1, kind="deliver", src=0, dst=1, message_kind="X"))
    trace.record(TraceEvent(round=1, kind="send", src=2, dst=3, message_kind="X"))
    trace.record(TraceEvent(round=1, kind="drop", src=2, dst=3, message_kind="X"))
    trace.record(TraceEvent(round=2, kind="crash", src=2))
    return trace


class TestTrace:
    def test_counts(self):
        trace = _sample_trace()
        assert trace.message_count() == 2
        assert len(list(trace.deliveries())) == 1
        assert len(list(trace.crashes())) == 1
        assert len(trace) == 5

    def test_delivered_edges(self):
        trace = _sample_trace()
        assert list(trace.delivered_edges()) == [(0, 1, 1)]

    def test_communicating_nodes_ignores_drops(self):
        trace = _sample_trace()
        assert trace.communicating_nodes() == {0, 1}

    def test_event_is_a_value(self):
        event = TraceEvent(
            round=1, kind="deliver", src=0, dst=1, message_kind="X", round_received=2
        )
        built = new_event(TraceEvent, (1, "deliver", 0, 1, "X", 2))
        assert type(built) is TraceEvent
        assert built == event and hash(built) == hash(event)
        assert pickle.loads(pickle.dumps(event)) == event
        assert repr(event) == (
            "TraceEvent(round=1, kind='deliver', src=0, dst=1, "
            "message_kind='X', round_received=2)"
        )
        assert TraceEvent(round=2, kind="crash", src=3) == new_event(
            TraceEvent, (2, "crash", 3, None, None, None)
        )

    def test_empty_trace_is_falsy_but_usable(self):
        # Regression guard: Trace defines __len__, so `if trace:` is False
        # when empty — engine code must test `is not None` instead.
        trace = Trace()
        assert not trace
        assert trace is not None
        assert trace.message_count() == 0
