"""Unit tests for the process-pool trial scheduler (repro.parallel)."""

import os
import pickle
import time

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    FAILED,
    OK,
    QUARANTINED,
    RESUMED,
    Journal,
    ResilientExecutor,
    RetryPolicy,
)
from repro.obs import PHASE_POOL_REASSEMBLY, PhaseTimers
from repro.parallel import (
    TrialSpec,
    default_chunk_size,
    in_order,
    resolve_jobs,
    resolve_task,
    run_trials,
    task_ref,
)


# Module-level tasks: they must pickle by reference into pool workers.
def echo_task(seed=0, **point):
    return {"seed": seed, **point}


def fail_on_odd_seed(seed=0, **point):
    if seed % 2 == 1:
        raise ValueError(f"odd seed {seed}")
    return seed


def always_fail(seed=0, **point):
    raise RuntimeError("broken config")


class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_autodetects_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(7) == 7


class TestChunking:
    def test_empty_total(self):
        assert default_chunk_size(0, 4) == 1

    def test_at_least_one(self):
        assert default_chunk_size(1, 16) == 1

    def test_splits_across_workers(self):
        # 100 trials over 4 workers: several chunks per worker for balance.
        size = default_chunk_size(100, 4)
        assert 1 <= size <= 100 // 4


class TestTaskRef:
    def test_round_trip(self):
        ref = task_ref(echo_task)
        assert ref == f"{__name__}:echo_task"
        assert resolve_task(ref) is echo_task

    def test_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            task_ref(lambda seed: seed)

    def test_nested_function_rejected(self):
        def inner(seed=0):
            return seed

        with pytest.raises(ConfigurationError):
            task_ref(inner)

    def test_resolve_caches_per_process(self):
        ref = task_ref(echo_task)
        assert resolve_task(ref) is resolve_task(ref)

    def test_resolve_bad_reference(self):
        with pytest.raises(ConfigurationError):
            resolve_task("not-a-reference")
        with pytest.raises(ConfigurationError):
            resolve_task("repro.parallel:no_such_function")
        with pytest.raises(ConfigurationError):
            resolve_task("no.such.module:task")

    def test_callable_passes_through(self):
        assert resolve_task(echo_task) is echo_task


class TestTrialSpec:
    def test_run_executes_task(self):
        spec = TrialSpec(index=0, task=echo_task, seed=5, point={"x": 1})
        assert spec.run() == {"seed": 5, "x": 1}

    def test_run_resolves_string_reference(self):
        spec = TrialSpec(index=0, task=task_ref(echo_task), seed=7)
        assert spec.run() == {"seed": 7}

    def test_picklable(self):
        spec = TrialSpec(index=3, task=task_ref(echo_task), seed=1, point={"n": 8})
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestRunTrials:
    def _specs(self, count):
        return [
            TrialSpec(index=index, task=echo_task, seed=100 + index, point={"x": index})
            for index in range(count)
        ]

    def test_empty(self):
        assert run_trials([], jobs=4) == []

    def test_serial_matches_parallel(self):
        specs = self._specs(9)
        values = lambda outcomes: [o.value for o in outcomes]  # noqa: E731
        assert values(run_trials(specs, jobs=1)) == values(run_trials(specs, jobs=3))

    def test_results_in_index_order(self):
        outcomes = run_trials(self._specs(8), jobs=2, chunk_size=3)
        assert [o.value["x"] for o in outcomes] == list(range(8))

    def test_non_contiguous_indices_keep_input_order(self):
        specs = [
            TrialSpec(index=index, task=echo_task, seed=index, point={"x": index})
            for index in (0, 5, 9)
        ]
        outcomes = run_trials(specs, jobs=2, chunk_size=1)
        assert [o.status for o in outcomes] == [OK] * 3
        assert [o.value["x"] for o in outcomes] == [0, 5, 9]

    def test_in_order_hook_sees_spec_order(self):
        specs = [
            TrialSpec(index=index, task=echo_task, seed=index, point={"x": index})
            for index in (3, 0, 7, 1, 4)
        ]
        seen = []
        hook = in_order(specs, lambda spec, outcome: seen.append(outcome.value["x"]))
        run_trials(specs, jobs=2, chunk_size=1, on_outcome=hook)
        assert seen == [3, 0, 7, 1, 4]

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("chunk_size", [None, 2])
    def test_stream_is_drawn_only_as_workers_free_up(self, jobs, chunk_size):
        landed, ahead, ended = [], [], []

        def stream():
            for index in range(7):
                ahead.append(index + 1 - len(landed))  # drawn, not yet landed
                yield TrialSpec(
                    index=index, task=echo_task, seed=index, point={"x": index}
                )
            ended.append(True)

        outcomes = run_trials(
            stream(),
            jobs=jobs,
            chunk_size=chunk_size,
            on_outcome=lambda spec, outcome: landed.append(spec.index),
        )
        assert [o.value["x"] for o in outcomes] == list(range(7))
        assert sorted(landed) == list(range(7))
        assert ended == [True]
        assert max(ahead) <= max(2, jobs * (chunk_size or 1))

    def test_duplicate_indices_rejected(self):
        specs = [TrialSpec(index=0, task=echo_task, seed=seed) for seed in (1, 2)]
        for jobs in (1, 2):
            with pytest.raises(ConfigurationError, match="unique"):
                run_trials(specs, jobs=jobs)
            with pytest.raises(ConfigurationError, match="unique"):
                run_trials((spec for spec in specs), jobs=jobs)

    def test_reassembly_time_excludes_the_outcome_hook(self):
        timers = PhaseTimers()
        run_trials(
            self._specs(4),
            jobs=2,
            timers=timers,
            on_outcome=lambda spec, outcome: time.sleep(0.05),
        )
        assert 0 < timers.totals[PHASE_POOL_REASSEMBLY] < 0.1

    def test_backend_reaches_the_task(self):
        specs = [
            TrialSpec(index=index, task=echo_task, seed=index, backend="vec")
            for index in range(3)
        ]
        for jobs in (1, 2):
            outcomes = run_trials(specs, jobs=jobs)
            assert [o.value["backend"] for o in outcomes] == ["vec"] * 3

    def test_trial_exceptions_become_failed_outcomes(self):
        specs = [
            TrialSpec(index=index, task=fail_on_odd_seed, seed=index)
            for index in range(4)
        ]
        for jobs in (1, 2):
            outcomes = run_trials(specs, jobs=jobs)
            assert [o.status for o in outcomes] == [OK, FAILED, OK, FAILED]
            assert outcomes[1].error == "ValueError: odd seed 1"

    def test_unpicklable_task_raises_helpfully(self):
        specs = [
            TrialSpec(index=index, task=lambda seed, **_: seed, seed=index)
            for index in range(4)
        ]
        with pytest.raises(ConfigurationError, match="picklable"):
            run_trials(specs, jobs=2)


class TestRunTrialsResilient:
    """``run_trials`` under a caller's executor: policy, journal, resume."""

    def _executor(self, tmp_path=None, retries=0):
        executor = ResilientExecutor(
            retry=RetryPolicy(retries=retries, backoff_base=0.0, backoff_cap=0.0)
        )
        if tmp_path is not None:
            executor.journal = Journal(str(tmp_path / "trials.jsonl"))
        return executor

    def test_failures_do_not_abort_batch(self, tmp_path):
        specs = [
            TrialSpec(index=0, task=echo_task, seed=2, key="a"),
            TrialSpec(index=1, task=always_fail, seed=4, key="b"),
            TrialSpec(index=2, task=echo_task, seed=6, key="c"),
        ]
        executor = self._executor(tmp_path)
        outcomes = run_trials(specs, jobs=2, executor=executor)
        assert [o.key for o in outcomes] == ["a", "b", "c"]
        assert [o.status for o in outcomes] == [OK, FAILED, OK]
        assert "broken config" in outcomes[1].error

    def test_parent_owns_the_journal(self, tmp_path):
        specs = [
            TrialSpec(index=index, task=echo_task, seed=index, key=f"k{index}")
            for index in range(5)
        ]
        executor = self._executor(tmp_path)
        run_trials(specs, jobs=2, executor=executor)
        records = list(executor.journal.iter_records())
        assert len(records) == 5
        assert {r["key"] for r in records} == {f"k{index}" for index in range(5)}
        assert all(r["status"] == OK for r in records)

    def test_resume_skips_completed(self, tmp_path):
        specs = [
            TrialSpec(index=index, task=echo_task, seed=index, key=f"k{index}")
            for index in range(4)
        ]
        executor = self._executor(tmp_path)
        run_trials(specs, jobs=2, executor=executor)

        fresh = ResilientExecutor()
        fresh.journal = executor.journal
        fresh.load_completed()
        outcomes = run_trials(specs, jobs=2, executor=fresh)
        assert [o.status for o in outcomes] == [RESUMED] * 4
        # Resumed outcomes are not re-journalled.
        assert len(list(fresh.journal.iter_records())) == 4

    def test_quarantine_fed_back_to_parent(self, tmp_path):
        specs = [TrialSpec(index=0, task=always_fail, seed=1, key="bad")]
        executor = self._executor(tmp_path)
        # Same key failing repeatedly accumulates parent-side strikes...
        for _ in range(executor.quarantine.threshold):
            run_trials(specs, jobs=2, executor=executor)
        assert executor.quarantine.blocks("bad")
        # ...so the next dispatch skips it without running anything.
        outcomes = run_trials(specs, jobs=2, executor=executor)
        assert outcomes[0].status == QUARANTINED
        assert outcomes[0].attempts == 0

    def test_serial_path_uses_caller_executor(self):
        specs = [
            TrialSpec(index=index, task=echo_task, seed=index, key=f"k{index}")
            for index in range(3)
        ]
        executor = self._executor()
        outcomes = run_trials(specs, jobs=1, executor=executor)
        assert [o.status for o in outcomes] == [OK] * 3
        assert [o.value["seed"] for o in outcomes] == [0, 1, 2]

    def test_worker_retries_recover_flaky_seeds(self, tmp_path):
        # seed 1 fails, but the retry's derived seed is even with
        # overwhelming probability; give it a couple of attempts.
        specs = [TrialSpec(index=0, task=fail_on_odd_seed, seed=1, key="flaky")]
        executor = self._executor(tmp_path, retries=3)
        outcomes = run_trials(specs, jobs=2, executor=executor)
        assert outcomes[0].attempts >= 1
        assert outcomes[0].status in (OK, FAILED)
