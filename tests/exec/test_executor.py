"""Tests for the resilient trial executor (repro.exec.executor)."""

import pytest

from repro.errors import TrialFailed
from repro.exec import (
    FAILED,
    OK,
    QUARANTINED,
    RESUMED,
    TIMEOUT,
    Journal,
    Quarantine,
    ResilientExecutor,
    RetryPolicy,
    default_serialize,
    timeouts_supported,
)
from repro.rng import derive_seed


class FlakyTask:
    """Fails the first ``failures`` calls, then succeeds; records seeds."""

    def __init__(self, failures=0):
        self.failures = failures
        self.calls = 0
        self.seeds = []

    def __call__(self, seed, **kwargs):
        self.calls += 1
        self.seeds.append(seed)
        if self.calls <= self.failures:
            raise TrialFailed(f"flake #{self.calls}")
        return {"seed": seed, **kwargs}


class TestRunTrial:
    def test_success_first_attempt(self):
        task = FlakyTask()
        outcome = ResilientExecutor().run_trial(task, key="k", seed=7, n=4)
        assert outcome.ok and outcome.status == OK
        assert outcome.attempts == 1
        assert outcome.value == {"seed": 7, "n": 4}
        assert outcome.error is None

    def test_retry_uses_derived_seeds_and_backoff_in_order(self):
        """The ladder: base seed first, derived seeds after, one sleep per retry."""
        sleeps = []
        task = FlakyTask(failures=2)
        policy = RetryPolicy(
            retries=3,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_cap=10.0,
            sleep=sleeps.append,
        )
        outcome = ResilientExecutor(retry=policy).run_trial(task, key="k", seed=11)
        assert outcome.status == OK
        assert outcome.attempts == 3
        assert task.seeds == [
            11,
            derive_seed(11, "retry", 1),
            derive_seed(11, "retry", 2),
        ]
        assert outcome.seed == task.seeds[-1]  # the seed that succeeded
        assert sleeps == [0.1, 0.2]  # backoff before each retry, in order

    def test_exhausted_retries_fail_with_last_error(self):
        task = FlakyTask(failures=10)
        policy = RetryPolicy(retries=2, sleep=lambda _: None)
        outcome = ResilientExecutor(retry=policy).run_trial(task, key="k", seed=0)
        assert not outcome.ok and outcome.status == FAILED
        assert outcome.attempts == 3
        assert "flake #3" in outcome.error

    @pytest.mark.skipif(not timeouts_supported(), reason="no SIGALRM here")
    def test_timeout_status(self):
        import time

        executor = ResilientExecutor(timeout_seconds=0.05)
        outcome = executor.run_trial(
            lambda seed: time.sleep(5.0), key="k", seed=0
        )
        assert outcome.status == TIMEOUT
        assert "budget" in outcome.error


class TestQuarantine:
    def test_blocks_after_threshold(self):
        quarantine = Quarantine(threshold=2)
        executor = ResilientExecutor(quarantine=quarantine)
        bad = FlakyTask(failures=10 ** 6)
        assert executor.run_trial(bad, key="k", seed=0).status == FAILED
        assert executor.run_trial(bad, key="k", seed=1).status == FAILED
        calls_before = bad.calls
        outcome = executor.run_trial(bad, key="k", seed=2)
        assert outcome.status == QUARANTINED
        assert outcome.attempts == 0
        assert bad.calls == calls_before  # never invoked

    def test_success_clears_strikes(self):
        quarantine = Quarantine(threshold=2)
        quarantine.record_failure("k")
        quarantine.record_success("k")
        quarantine.record_failure("k")
        assert not quarantine.blocks("k")

    def test_other_keys_unaffected(self):
        quarantine = Quarantine(threshold=1)
        quarantine.record_failure("bad")
        assert quarantine.blocks("bad")
        assert not quarantine.blocks("good")


class TestResume:
    def test_completed_trials_are_not_rerun(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        first = ResilientExecutor(journal=journal)
        first.run_trial(FlakyTask(), key="done", seed=3, n=8)

        second = ResilientExecutor(journal=journal)
        assert second.load_completed() == 1
        task = FlakyTask()
        outcome = second.run_trial(task, key="done", seed=3, n=8)
        assert outcome.status == RESUMED and outcome.ok
        assert task.calls == 0  # resumed from the journal, not re-executed
        assert outcome.value == {"seed": 3, "n": 8}

    def test_failed_trials_are_retried_on_resume(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        first = ResilientExecutor(journal=journal)
        first.run_trial(FlakyTask(failures=10), key="bad", seed=0)

        second = ResilientExecutor(journal=journal)
        assert second.load_completed() == 0  # failures are not resumable
        outcome = second.run_trial(FlakyTask(), key="bad", seed=0)
        assert outcome.status == OK  # ran live this time

    def test_resume_survives_half_written_journal(self, tmp_path):
        """A process killed mid-append must not poison the resume."""
        journal = Journal(tmp_path / "j.jsonl")
        first = ResilientExecutor(journal=journal)
        first.run_trial(FlakyTask(), key="a", seed=0)
        first.run_trial(FlakyTask(), key="b", seed=1)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "status": "ok", "val')  # torn write

        second = ResilientExecutor(journal=journal)
        assert second.load_completed() == 2  # a and b survive, c does not
        assert second.run_trial(FlakyTask(), key="a", seed=0).status == RESUMED
        live = second.run_trial(FlakyTask(), key="c", seed=2)
        assert live.status == OK  # c re-runs


class TestBegin:
    """``ResilientExecutor.begin``: every campaign driver opens its journal here."""

    def test_none_path_means_no_journal(self):
        assert ResilientExecutor().begin(None, resume=True) is None

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Journal(path).append({"key": "stale"})
        journal = ResilientExecutor().begin(path)
        assert not journal.exists()

    def test_resume_keeps_existing_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Journal(path).append({"key": "kept", "status": OK, "seed": 1})
        executor = ResilientExecutor()
        journal = executor.begin(path, resume=True)
        assert [r["key"] for r in journal.load()] == ["kept"]
        assert list(executor.completed) == ["kept"]

    def test_manifest_appended_after_clear_or_load(self, tmp_path):
        from repro.obs import capture_manifest

        path = tmp_path / "j.jsonl"
        Journal(path).append({"key": "kept", "status": OK, "seed": 1})
        manifest = capture_manifest(command="test", argv=[])
        journal = ResilientExecutor().begin(path, resume=True, manifest=manifest)
        kinds = [record.get("kind") for record in journal.load()]
        assert kinds == [None, "manifest"]
        fresh = ResilientExecutor().begin(path, manifest=manifest)
        assert [record.get("kind") for record in fresh.load()] == ["manifest"]


class TestSerialization:
    def test_default_serialize_prefers_summary(self):
        class WithSummary:
            def summary(self):
                return {"x": 1}

        assert default_serialize(WithSummary()) == {"x": 1}
        assert default_serialize([1, "a", None]) == [1, "a", None]
        assert default_serialize({1: WithSummary()}) == {"1": {"x": 1}}
        assert default_serialize(object()).startswith("<object")

    def test_journal_records_are_json_safe(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        executor = ResilientExecutor(journal=journal)
        executor.run_trial(lambda seed: {"seed": seed}, key="k", seed=5)
        (record,) = journal.load()
        assert record["key"] == "k"
        assert record["status"] == OK
        assert record["value"] == {"seed": 5}
