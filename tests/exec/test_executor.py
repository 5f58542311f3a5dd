"""Tests for the resilient trial executor (repro.exec.executor)."""

import pytest

from repro.errors import TrialFailed
from repro.exec import (
    CACHED,
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
)
from repro.parallel import TrialSpec, run_trials
from repro.rng import derive_seed
from repro.serve.cache import ResultCache


def echo(seed, **point):
    """Module-level (so pool-picklable) task: echoes its seed and point."""
    return {"seed": seed, **point}


def run_one(executor, task, key, seed, **point):
    """One trial through the scheduler's settle/run/record path."""
    [outcome] = run_trials(
        [TrialSpec(index=0, task=task, seed=seed, point=point, key=key)],
        executor=executor,
    )
    return outcome


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

    def test_only_executes(self, tmp_path):
        """Settling and recording belong to the scheduler, not run_trial."""
        journal = Journal(tmp_path / "j.jsonl")
        executor = ResilientExecutor(journal=journal)
        executor.completed["k"] = {"key": "k", "status": OK, "value": "journal"}
        outcome = executor.run_trial(FlakyTask(), key="k", seed=1)
        assert outcome.status == OK and outcome.value == {"seed": 1}
        assert not journal.exists()

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
        assert run_one(executor, bad, "k", 0).status == FAILED
        assert run_one(executor, bad, "k", 1).status == FAILED
        calls_before = bad.calls
        outcome = run_one(executor, bad, "k", 2)
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
        run_one(ResilientExecutor(journal=journal), FlakyTask(), "done", 3, n=8)

        second = ResilientExecutor(journal=journal)
        assert second.load_completed() == 1
        task = FlakyTask()
        outcome = run_one(second, task, "done", 3, n=8)
        assert outcome.status == RESUMED and outcome.ok
        assert task.calls == 0  # resumed from the journal, not re-executed
        assert outcome.value == {"seed": 3, "n": 8}

    def test_failed_trials_are_retried_on_resume(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        run_one(ResilientExecutor(journal=journal), FlakyTask(failures=10), "bad", 0)
        assert journal.load()[0]["status"] == FAILED

        second = ResilientExecutor(journal=journal)
        assert second.load_completed() == 0  # failures are not resumable
        outcome = run_one(second, FlakyTask(), "bad", 0)
        assert outcome.status == OK  # ran live this time

    def test_resume_survives_half_written_journal(self, tmp_path):
        """A process killed mid-append must not poison the resume."""
        journal = Journal(tmp_path / "j.jsonl")
        first = ResilientExecutor(journal=journal)
        run_one(first, FlakyTask(), "a", 0)
        run_one(first, FlakyTask(), "b", 1)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "c", "status": "ok", "val')  # torn write

        second = ResilientExecutor(journal=journal)
        assert second.load_completed() == 2  # a and b survive, c does not
        assert run_one(second, FlakyTask(), "a", 0).status == RESUMED
        live = run_one(second, FlakyTask(), "c", 2)
        assert live.status == OK  # c re-runs


class TestSettlePass:
    """``run_trials`` settles every spec in the parent before anything runs."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resumed_cached_and_fresh_in_one_call(self, tmp_path, jobs):
        specs = [
            TrialSpec(index=i, task=echo, seed=10 + i, point={"n": i}, key=f"k{i}")
            for i in range(4)
        ]
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"key": "k0", "seed": 10, "status": OK, "value": "journal"})
        cache = ResultCache(tmp_path / "cache")
        cache.put(echo, {"n": 1}, 11, "cache")
        executor = ResilientExecutor(journal=journal, cache=cache)
        executor.load_completed()
        seen = []
        outcomes = run_trials(
            specs, jobs, executor=executor,
            on_outcome=lambda spec, outcome: seen.append((spec.key, outcome.status)),
        )
        assert [o.status for o in outcomes] == [RESUMED, CACHED, OK, OK]
        assert [o.value for o in outcomes] == [
            "journal", "cache", {"seed": 12, "n": 2}, {"seed": 13, "n": 3},
        ]
        # Settled outcomes land first, in spec order, at every jobs.
        assert seen[:2] == [("k0", RESUMED), ("k1", CACHED)]
        assert [status for _, status in seen] == [RESUMED, CACHED, OK, OK]
        # Fresh successes were recorded by the parent: cached and journalled.
        assert cache.get(echo, {"n": 2}, 12) == (True, {"seed": 12, "n": 2})
        assert executor.load_completed() == 3

        # Now every spec is settled: nothing runs and no pool is built.
        again = run_trials(specs, jobs, executor=executor)
        assert [o.status for o in again] == [RESUMED, CACHED, RESUMED, RESUMED]
        assert executor.last_supervisor_stats is None


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
        run_one(executor, lambda seed: {"seed": seed}, "k", 5)
        (record,) = journal.load()
        assert record["key"] == "k"
        assert record["status"] == OK
        assert record["value"] == {"seed": 5}
