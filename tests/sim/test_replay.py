"""Tests for trace replay (repro.sim.replay) and the RefereeCrash
adversary (Lemma 3's stress strategy)."""

import pytest

from repro.core import elect_leader
from repro.faults import RefereeCrash
from repro.rng import seed_sequence
from repro.sim import busiest_round, replay, timeline_table
from repro.sim.trace import Trace, TraceEvent


def _trace():
    trace = Trace()
    trace.record(TraceEvent(round=1, kind="send", src=0, dst=1, message_kind="A"))
    trace.record(TraceEvent(round=1, kind="send", src=0, dst=2, message_kind="A"))
    trace.record(TraceEvent(round=1, kind="deliver", src=0, dst=1, message_kind="A"))
    trace.record(TraceEvent(round=1, kind="drop", src=0, dst=2, message_kind="A"))
    trace.record(TraceEvent(round=1, kind="crash", src=0))
    trace.record(TraceEvent(round=3, kind="send", src=1, dst=2, message_kind="B"))
    trace.record(TraceEvent(round=3, kind="deliver", src=1, dst=2, message_kind="B"))
    return trace


class TestReplay:
    def test_per_round_counts(self):
        summaries = replay(_trace())
        assert [s.round for s in summaries] == [1, 3]
        first = summaries[0]
        assert first.sent == 2
        assert first.delivered == 1
        assert first.dropped == 1
        assert first.senders == {0}
        assert first.crashed == [0]
        assert first.by_kind == {"A": 2}

    def test_quiet_rounds_are_omitted(self):
        summaries = replay(_trace())
        assert all(s.round != 2 for s in summaries)

    def test_busiest_round(self):
        assert busiest_round(_trace()).round == 1

    def test_busiest_of_empty_trace(self):
        with pytest.raises(ValueError):
            busiest_round(Trace())

    def test_timeline_table_renders(self):
        text = timeline_table(_trace())
        assert "execution timeline" in text
        assert "A:2" in text

    def test_timeline_limit(self):
        text = timeline_table(_trace(), limit=1)
        assert "B:1" not in text

    def test_on_real_run_matches_metrics(self, fast_params):
        result = elect_leader(
            n=96, alpha=0.5, seed=2, adversary="random",
            params=fast_params(96), collect_trace=True,
        )
        summaries = replay(result.trace)
        assert sum(s.sent for s in summaries) == result.messages
        assert sum(len(s.crashed) for s in summaries) == result.metrics.crashes

    def test_every_round_conserves_its_sends(self, fast_params):
        # A crashing run where receivers die with messages on the way:
        # each round's sends are delivered, dropped or expired.
        result = elect_leader(
            n=96, alpha=0.5, seed=2, adversary="random",
            params=fast_params(96), collect_trace=True,
        )
        summaries = replay(result.trace)
        assert sum(s.expired for s in summaries) == result.metrics.messages_expired > 0
        for s in summaries:
            assert s.sent == s.delivered + s.dropped + s.expired, s.round
        assert "expired" in timeline_table(result.trace)


class TestRefereeCrash:
    def test_protocol_survives_lemma3_attack(self, fast_params):
        # Crashing every faulty referee right before forwarding is the
        # strategy Lemma 3 is designed to defeat.
        ok = sum(
            elect_leader(
                n=96, alpha=0.5, seed=seed, adversary="referees",
                params=fast_params(96),
            ).success
            for seed in seed_sequence(61, 6)
        )
        assert ok >= 5

    def test_crashes_only_senders_at_crash_round(self, fast_params):
        result = elect_leader(
            n=96, alpha=0.5, seed=3, adversary=RefereeCrash(crash_round=2),
            params=fast_params(96), collect_trace=True,
        )
        assert all(round_ == 2 for round_ in result.crashed.values())

    def test_validates_round(self):
        with pytest.raises(ValueError):
            RefereeCrash(crash_round=0)

    def test_name(self):
        assert RefereeCrash().name() == "referee-crash@2"
