"""Tests for the fault-tolerant sweep driver (repro.analysis.resilient_sweep)."""

import pytest

from repro.analysis import ResilientSweepResult, resilient_sweep, sweep
from repro.errors import TrialFailed


def _ok_task(seed, **point):
    return {"seed": seed, **point}


def _backend_echo(seed, backend=None, **point):
    return backend


class TestBackendForwarding:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_trial_receives_the_backend(self, jobs):
        result = resilient_sweep(
            _backend_echo, {"n": [8, 16]}, trials=2, jobs=jobs, backend="vec"
        )
        assert result.complete
        assert [v for point in result.points for v in point.results] == ["vec"] * 4


class TestPartialResults:
    def test_failures_degrade_to_annotated_partials(self):
        trial_counter = {"n": 0}

        def task(seed, n):
            if n == 8:
                trial_counter["n"] += 1
                if trial_counter["n"] % 2 == 1:
                    raise TrialFailed("bad config")
            return seed

        result = resilient_sweep(task, {"n": [4, 8]}, trials=4, master_seed=0)
        assert result.attempted == 8
        assert result.completed + result.failed == 8
        assert result.failed >= 1 and not result.complete
        good, bad = result.points
        assert good.failed == 0 and len(good.results) == 4
        assert bad.failed >= 1
        assert len(bad.results) == bad.completed
        # Every failure is observable with its key and error.
        for outcome in result.failures:
            assert "n=8" in outcome.key
            assert "bad config" in outcome.error
        row = bad.as_row()
        assert row["attempted"] == 4
        assert row["failed"] == bad.failed

    def test_counts_shape(self):
        result = resilient_sweep(_ok_task, {"n": [4]}, trials=2)
        assert result.counts() == {"attempted": 2, "completed": 2, "failed": 0}
        assert result.complete


class TestParityWithPlainSweep:
    def test_same_seeds_and_results_as_sweep(self):
        grid = {"n": [4, 8], "alpha": [0.25, 0.5]}
        plain = sweep(_ok_task, grid, trials=3, master_seed=42)
        resilient = resilient_sweep(_ok_task, grid, trials=3, master_seed=42)
        assert resilient.rows() == plain

    def test_grid_validation_matches_sweep(self):
        with pytest.raises(ValueError):
            resilient_sweep(_ok_task, {}, trials=1)
        with pytest.raises(ValueError):
            resilient_sweep(_ok_task, {"n": [4]}, trials=0)


class TestJournalledResume:
    def test_resume_skips_finished_trials(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        calls = []

        def task(seed, n):
            calls.append((n, seed))
            return {"n": n, "seed": seed}

        first = resilient_sweep(
            task, {"n": [4, 8]}, trials=2, journal_path=journal
        )
        assert first.complete and len(calls) == 4

        # Simulate the kill/restart: a fresh process resumes the journal.
        calls.clear()
        second = resilient_sweep(
            task, {"n": [4, 8]}, trials=2, journal_path=journal, resume=True
        )
        assert calls == []  # nothing re-ran
        assert second.attempted == 4 and second.complete
        # Journalled values come back (serialised form of the originals).
        for point, results in second.rows():
            assert all(r["n"] == point["n"] for r in results)

    def test_resume_reruns_only_missing_trials(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        resilient_sweep(
            _ok_task, {"n": [4]}, trials=2, journal_path=journal
        )
        # Same journal, wider campaign: only the new point runs live.
        calls = []

        def task(seed, n):
            calls.append(n)
            return _ok_task(seed, n=n)

        result = resilient_sweep(
            task, {"n": [4, 8]}, trials=2, journal_path=journal, resume=True
        )
        assert calls == [8, 8]
        assert result.attempted == 4 and result.complete

    def test_fresh_run_clears_stale_journal(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        resilient_sweep(_ok_task, {"n": [4]}, trials=1, journal_path=journal)
        calls = []

        def task(seed, n):
            calls.append(n)
            return _ok_task(seed, n=n)

        resilient_sweep(task, {"n": [4]}, trials=1, journal_path=journal)
        assert calls == [4]  # no resume without the flag


class TestRetriesInSweep:
    def test_transient_failures_recover_without_losing_the_point(self):
        attempts = {}

        def task(seed, n):
            attempts[n] = attempts.get(n, 0) + 1
            if n == 8 and attempts[n] == 1:
                raise TrialFailed("transient")
            return seed

        from repro.exec import ResilientExecutor, RetryPolicy

        executor = ResilientExecutor(
            retry=RetryPolicy(retries=1, sleep=lambda _: None)
        )
        result = resilient_sweep(
            task, {"n": [4, 8]}, trials=1, executor=executor
        )
        assert result.complete
        assert attempts[8] == 2


class TestResultShape:
    def test_empty_result_is_complete(self):
        assert ResilientSweepResult().complete
        assert ResilientSweepResult().counts() == {
            "attempted": 0, "completed": 0, "failed": 0,
        }
