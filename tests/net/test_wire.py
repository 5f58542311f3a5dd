"""Real-process wire trials: parity over actual TCP, SIGKILL detection.

These spawn one OS process per node (``python -m repro.net.node``) and
therefore run slower than the loopback suite — sizes stay small and the
heartbeat settings are tuned fast so no test waits longer than the
detector bound on any code path.
"""

import json
import time
from pathlib import Path

import pytest

from repro.net import WireSpec, default_script, run_parity_trial, run_wire_trial

# Fast transport settings: 50 ms beats. Parity trials use a generous
# suspicion bound (they must never false-positive under CI jitter); the
# kill-detection trial uses a tight one (0.3 s) so detection is quick.
FAST = dict(heartbeat_interval=0.05, suspicion_threshold=40, trial_timeout=120.0)
DETECT = dict(heartbeat_interval=0.05, suspicion_threshold=6, round_timeout=10.0)


class TestWireParity:
    def test_fault_free_election_matches_sim(self, tmp_path):
        spec = WireSpec(protocol="election", n=8, seed=0, **FAST)
        report = run_parity_trial(
            spec, backend="wire", journal_dir=str(tmp_path / "journal")
        )
        assert report.ok, "\n".join(report.diffs)
        assert report.wire_metrics == report.sim_metrics
        assert report.wire_outcome == report.sim_outcome

    def test_scripted_sigkill_agreement_matches_sim(self, tmp_path):
        spec = WireSpec(protocol="agreement", n=8, seed=0, **FAST)
        spec = spec.with_(script=default_script(spec))
        report = run_parity_trial(
            spec, backend="wire", journal_dir=str(tmp_path / "journal")
        )
        assert report.ok, "\n".join(report.diffs)
        # The SIGKILLs really happened and were accounted.
        assert report.trial.crashed
        assert report.wire_metrics["crashes"] == len(report.trial.crashed)

    def test_scripted_flooding_matches_sim(self, tmp_path):
        spec = WireSpec(protocol="flooding", n=8, seed=0, inputs="mixed", **FAST)
        spec = spec.with_(script=default_script(spec))
        report = run_parity_trial(
            spec, backend="wire", journal_dir=str(tmp_path / "journal")
        )
        assert report.ok, "\n".join(report.diffs)


class TestKillDetection:
    def test_unscripted_sigkill_fails_the_trial_via_the_detector(self, tmp_path):
        """An unexpected death must journal a failed trial, not hang."""
        spec = WireSpec(protocol="election", n=8, seed=0, **DETECT)
        started = time.monotonic()
        trial = run_wire_trial(
            spec, journal_dir=str(tmp_path / "journal"), kill_after=(3, 2)
        )
        elapsed = time.monotonic() - started
        assert not trial.ok
        assert "heartbeat detector suspects node(s) [3]" in trial.reason
        # Failed fast: well within the trial timeout, bounded by the
        # detector (0.3 s) plus round/teardown overhead.
        assert elapsed < spec.trial_timeout / 4

    def test_failed_trial_journal_records_the_reason(self, tmp_path):
        spec = WireSpec(protocol="election", n=8, seed=0, **DETECT)
        journal = tmp_path / "journal"
        trial = run_wire_trial(spec, journal_dir=str(journal), kill_after=(5, 1))
        assert not trial.ok
        result = json.loads((journal / "result.json").read_text())
        assert result["ok"] is False
        assert "suspects" in result["reason"]
        assert (journal / "coordinator.jsonl").exists()
        # Every node process left a log (stderr tracebacks land there too).
        logs = sorted(p.name for p in journal.glob("node-*.log"))
        assert logs == [f"node-{u}.log" for u in range(spec.point.n)]


class TestJournals:
    def test_coordinator_journal_is_replayable_jsonl(self, tmp_path):
        spec = WireSpec(protocol="election", n=8, seed=0, **FAST)
        spec = spec.with_(script=default_script(spec))
        journal = tmp_path / "journal"
        trial = run_wire_trial(spec, journal_dir=str(journal))
        assert trial.ok, trial.reason
        events = [
            json.loads(line)
            for line in (journal / "coordinator.jsonl").read_text().splitlines()
        ]
        kinds = [e["event"] for e in events]
        assert kinds.count("hello") == spec.point.n
        crash_events = [e for e in events if e["event"] == "crash"]
        assert {e["node"] for e in crash_events} == set(trial.crashed)
        result = json.loads((journal / "result.json").read_text())
        assert result["ok"] is True
        assert result["metrics"]["messages_sent"] == trial.metrics.messages_sent
