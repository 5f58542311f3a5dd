"""Supervised execution: worker death, hung pools, abandonment, shutdown.

The tests in this module deliberately ``kill -9`` their own pool workers
(via tasks that SIGKILL the process they run in) and assert the
supervisor's recovery contract from docs/RESILIENCE.md: the campaign
finishes, every trial lands exactly once, the output matches a serial
run, and the violence is visible in :class:`SupervisorStats`.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro.parallel.supervisor as supervisor_mod
from repro.errors import CampaignInterrupted
from repro.exec import FAILED, OK, Journal, ResilientExecutor, RetryPolicy
from repro.obs import merge_supervisor_stats
from repro.parallel import (
    GracefulShutdown,
    PoolSupervisor,
    SupervisorStats,
    TrialSpec,
    chunk_deadline_seconds,
    is_supervisor_record,
    run_trials,
)

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX kill semantics"
)


# Module-level tasks: they must pickle by reference into pool workers.
def echo_task(seed=0, **point):
    return {"seed": seed, "value": seed * 3}


def kill_once_task(seed=0, marker_dir=None, victims=(), **point):
    """SIGKILL the worker the first time each victim seed runs."""
    if seed in victims:
        marker = Path(marker_dir) / f"killed-{seed}"
        if not marker.exists():
            marker.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
    return {"seed": seed, "value": seed * 3}


def poison_task(seed=0, **point):
    """SIGKILL the worker every single time: an unrecoverable trial."""
    os.kill(os.getpid(), signal.SIGKILL)


def sleepy_chunk(specs):
    """A worker function that hangs well past any test deadline."""
    time.sleep(60)
    return [(spec.index, "too late") for spec in specs]


def specs_for(task, count, **extra_point):
    return [
        TrialSpec(
            index=i,
            task=f"{__name__}:{task.__name__}",
            seed=i,
            point=dict(extra_point),
            key=f"t[{i}]",
        )
        for i in range(count)
    ]


class TestStats:
    def test_fresh_stats_are_uneventful(self):
        assert not SupervisorStats().eventful

    def test_any_counter_makes_stats_eventful(self):
        assert SupervisorStats(worker_deaths=1).eventful
        assert SupervisorStats(interrupted=True).eventful

    def test_merge_sums_counters(self):
        a = SupervisorStats(pool_rebuilds=1, worker_deaths=2)
        b = SupervisorStats(pool_rebuilds=1, abandoned_trials=1, interrupted=True)
        a.merge(b)
        assert a.pool_rebuilds == 2
        assert a.worker_deaths == 2
        assert a.abandoned_trials == 1
        assert a.interrupted

    def test_journal_record_round_trip(self):
        record = SupervisorStats(hung_chunks=3).journal_record()
        assert is_supervisor_record(record)
        assert record["hung_chunks"] == 3
        assert not is_supervisor_record({"key": "t[0]"})
        assert not is_supervisor_record("not a dict")


class TestChunkDeadline:
    def test_no_timeout_means_no_deadline(self):
        assert chunk_deadline_seconds(None, 3) is None
        assert chunk_deadline_seconds(0, 3) is None

    def test_budget_covers_retries_and_backoff(self):
        assert chunk_deadline_seconds(2.0, 3, backoff_seconds=1.5) == 7.5
        assert chunk_deadline_seconds(2.0, 0) == 2.0


class TestGracefulShutdown:
    def test_request_sets_flag_and_signal(self):
        shutdown = GracefulShutdown()
        assert not shutdown.requested
        shutdown.request(signal.SIGTERM)
        assert shutdown.requested
        assert shutdown.describe() == "SIGTERM"

    def test_programmatic_request_without_signal(self):
        shutdown = GracefulShutdown()
        shutdown.request()
        assert shutdown.describe() == "shutdown request"

    def test_real_signal_is_caught_and_handlers_restored(self):
        previous = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.05)  # let the handler run at a bytecode boundary
            assert shutdown.requested
            assert shutdown.signum == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is previous


class TestShutdownBoundary:
    def test_serial_path_stops_at_trial_boundary(self, tmp_path):
        shutdown = GracefulShutdown()
        shutdown.request(signal.SIGINT)
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_trials(
                specs_for(echo_task, 4),
                jobs=1,
                executor=ResilientExecutor(journal=Journal(tmp_path / "j.jsonl")),
                shutdown=shutdown,
            )
        assert "--resume" in str(excinfo.value)
        assert excinfo.value.signum == signal.SIGINT

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_journal_less_interrupt_does_not_promise_resume(self, jobs):
        shutdown = GracefulShutdown()
        shutdown.request(signal.SIGINT)
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_trials(
                specs_for(echo_task, 4),
                jobs=jobs,
                executor=ResilientExecutor(),
                shutdown=shutdown,
            )
        message = str(excinfo.value)
        assert "4 trial(s) not completed" in message
        assert "--resume" not in message and "journal" not in message

    def test_parallel_path_raises_and_journals_the_interrupt(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        executor = ResilientExecutor(journal=journal)
        shutdown = GracefulShutdown()
        shutdown.request(signal.SIGTERM)
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_trials(
                specs_for(echo_task, 4),
                jobs=2,
                executor=executor,
                shutdown=shutdown,
            )
        assert "SIGTERM" in str(excinfo.value)
        assert "--resume" in str(excinfo.value)
        assert executor.last_supervisor_stats.interrupted
        # The interrupt itself is durable: a supervisor record landed.
        kinds = [r for r in journal.load() if is_supervisor_record(r)]
        assert len(kinds) == 1 and kinds[0]["interrupted"] is True


class TestWorkerDeathRecovery:
    def test_killed_workers_redispatch_and_match_serial(self, tmp_path):
        """kill -9 two workers mid-sweep; output matches an untouched run."""
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        specs = specs_for(
            kill_once_task, 8, marker_dir=str(marker_dir), victims=(2, 5)
        )
        executor = ResilientExecutor(journal=Journal(tmp_path / "j.jsonl"))
        outcomes = run_trials(specs, jobs=2, executor=executor)

        assert [o.status for o in outcomes] == [OK] * 8
        assert [o.value["value"] for o in outcomes] == [i * 3 for i in range(8)]
        # Both kills happened (each victim left its marker)...
        assert sorted(p.name for p in marker_dir.iterdir()) == [
            "killed-2",
            "killed-5",
        ]
        stats = executor.last_supervisor_stats
        assert stats.pool_rebuilds >= 1
        assert stats.worker_deaths >= 1
        assert stats.redispatched_trials >= 1

        # ...and the recovered output is byte-identical to a serial run
        # of the same specs (the markers now exist, so nothing kills).
        serial = run_trials(specs, jobs=1, executor=ResilientExecutor())
        as_bytes = lambda outs: json.dumps(  # noqa: E731
            [(o.key, o.seed, o.status, o.value) for o in outs], sort_keys=True
        )
        assert as_bytes(outcomes) == as_bytes(serial)

        # The supervision events rode into the journal for `repro report`.
        records = executor.journal.load()
        supervisor_records = [r for r in records if is_supervisor_record(r)]
        assert len(supervisor_records) == 1
        totals = merge_supervisor_stats(supervisor_records)
        assert totals["runs"] == 1 and totals["pool_rebuilds"] >= 1

    def test_poison_trial_is_abandoned_not_retried_forever(self, tmp_path):
        """A trial that always kills its worker ends as FAILED, not a loop."""
        specs = specs_for(echo_task, 4)
        poison = TrialSpec(
            index=4, task=f"{__name__}:poison_task", seed=99, key="poison"
        )
        executor = ResilientExecutor(journal=Journal(tmp_path / "j.jsonl"))
        outcomes = run_trials(
            specs + [poison],
            jobs=2,
            executor=executor,
            chunk_size=1,
            max_dispatches=2,
        )

        by_key = {o.key: o for o in outcomes}
        assert by_key["poison"].status == FAILED
        assert "kept breaking its worker" in by_key["poison"].error
        for i in range(4):  # the healthy trials all survived the carnage
            assert by_key[f"t[{i}]"].status == OK
        stats = executor.last_supervisor_stats
        assert stats.abandoned_trials == 1
        assert stats.pool_rebuilds >= 2  # one per poison dispatch
        assert stats.worker_deaths >= 1
        # Abandonment feeds the quarantine: a strike, not a silent drop.
        assert executor.quarantine.keys().get("poison") == 1
        # And the FAILED outcome is journalled like any other.
        journalled = {
            r.get("key"): r
            for r in executor.journal.load()
            if not is_supervisor_record(r)
        }
        assert journalled["poison"]["status"] == FAILED


class TestHungPool:
    def test_missed_deadline_reaps_and_abandons(self, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "DEADLINE_SLACK_SECONDS", 0.1)
        abandoned = []
        delivered = []
        supervisor = PoolSupervisor(
            1,
            sleepy_chunk,
            deadline_seconds=0.2,
            poll_seconds=0.05,
            max_dispatches=1,
        )
        spec = TrialSpec(index=0, task=f"{__name__}:echo_task", seed=0)
        started = time.monotonic()
        stats = supervisor.run(
            [[spec]],
            on_result=lambda index, value: delivered.append(index),
            on_abandon=lambda s, reason: abandoned.append((s.index, reason)),
        )
        assert time.monotonic() - started < 30  # never waited out the sleep
        assert stats.hung_chunks == 1
        assert delivered == []
        assert len(abandoned) == 1
        assert abandoned[0][0] == 0
        assert "deadline" in abandoned[0][1]

    def test_over_budget_multi_trial_chunk_is_split_to_isolate(self, monkeypatch):
        """A multi-trial chunk over budget splits before anything is lost."""
        monkeypatch.setattr(supervisor_mod, "DEADLINE_SLACK_SECONDS", 0.1)
        abandoned = []
        supervisor = PoolSupervisor(
            1,
            sleepy_chunk,
            deadline_seconds=0.15,
            poll_seconds=0.05,
            max_dispatches=1,
        )
        specs = [
            TrialSpec(index=i, task=f"{__name__}:echo_task", seed=i)
            for i in range(2)
        ]
        stats = supervisor.run(
            [specs],  # one chunk holding both trials
            on_result=lambda index, value: None,
            on_abandon=lambda s, reason: abandoned.append(s.index),
        )
        # The pair chunk burnt its budget, split into singles, and each
        # single was then individually abandoned — nothing silently lost.
        assert sorted(abandoned) == [0, 1]
        assert stats.hung_chunks >= 1
        assert stats.abandoned_trials == 2


DRIVER = textwrap.dedent(
    """
    import json
    import sys
    import time

    sys.path.insert(0, sys.argv[1])
    from repro.analysis.sweeps import resilient_sweep
    from repro.errors import CampaignInterrupted
    from repro.parallel import GracefulShutdown


    def slow_task(seed=0, n=0, **point):
        time.sleep(0.25)
        return {"seed": seed, "n": n}


    def main():
        journal, jobs, resume = sys.argv[2], int(sys.argv[3]), "--resume" in sys.argv
        try:
            with GracefulShutdown() as shutdown:
                result = resilient_sweep(
                    slow_task,
                    {"n": [1, 2]},
                    trials=3,
                    master_seed=7,
                    journal_path=journal,
                    resume=resume,
                    jobs=jobs,
                    shutdown=shutdown,
                )
        except CampaignInterrupted as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            return 130
        rows = [[point, results] for point, results in result.rows()]
        print(json.dumps(rows, sort_keys=True))
        return 0


    if __name__ == "__main__":
        sys.exit(main())
    """
)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals required")
class TestParentSigterm:
    """kill the *parent* mid-campaign, then --resume to the same bytes."""

    def _run_driver(self, driver, src_root, journal, jobs, resume=False):
        argv = [sys.executable, str(driver), src_root, str(journal), str(jobs)]
        if resume:
            argv.append("--resume")
        return subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    def test_sigterm_then_resume_matches_uninterrupted_serial(self, tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(DRIVER)
        src_root = str(Path(__file__).resolve().parents[2] / "src")
        journal = tmp_path / "sweep.jsonl"

        # Phase 1: start a parallel campaign and SIGTERM it mid-flight
        # (wait until the journal proves at least one trial completed).
        proc = self._run_driver(driver, src_root, journal, jobs=2)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal.exists() and journal.read_bytes().count(b"\n") >= 2:
                break
            if proc.poll() is not None:  # finished before we could kill it
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)

        if proc.returncode != 0:  # the interrupt landed mid-campaign
            assert proc.returncode == 130, stderr
            assert "interrupted" in stderr
            assert "--resume" in stderr

            # Phase 2: resume the same journal to completion.
            resumed = self._run_driver(
                driver, src_root, journal, jobs=2, resume=True
            )
            stdout, stderr = resumed.communicate(timeout=120)
            assert resumed.returncode == 0, stderr

        # Phase 3: an untouched serial reference run, fresh journal.
        reference = self._run_driver(
            driver, src_root, tmp_path / "ref.jsonl", jobs=1
        )
        ref_stdout, ref_stderr = reference.communicate(timeout=120)
        assert reference.returncode == 0, ref_stderr

        # Byte-identical aggregates: interrupt + resume changed nothing.
        assert stdout == ref_stdout
        assert json.loads(stdout) == json.loads(ref_stdout)
