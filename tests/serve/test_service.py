"""Tests for the campaign service core (repro.serve.service).

Byte-parity is asserted the way clients would see it: canonical JSON of
the streamed/cached values against a serial in-process reference run.
"""

import time

import pytest

from repro.analysis.sweeps import enumerate_sweep_specs, sweep
from repro.errors import ConfigurationError
from repro.exec import default_serialize
from repro.exec.journal import CRC_KEY, SEQ_KEY, record_crc
from repro.optdeps import have_numpy
from repro.parallel.tasks import election_trial
from repro.serve import CampaignService, parse_campaign_spec
from repro.serve.cache import canonical_json
from repro.serve.service import TASKS

GRID = {"n": [24, 32], "alpha": [0.5]}
SPEC = {"task": "election", "grid": GRID, "trials": 2, "master_seed": 11}


def backend_echo(seed, backend=None, **point):
    """Module-level task ref: reports the backend the trial received."""
    return backend


#: The base seeds of every trial of SPEC's sweep.
BASE_SEEDS = {
    spec.seed
    for spec in enumerate_sweep_specs("x:y", GRID, trials=2, master_seed=11)
}


def fails_on_base_seeds(seed, **point):
    """Module-level task ref: raises on SPEC's base seeds, so only retries succeed."""
    if seed in BASE_SEEDS:
        raise RuntimeError(f"base seed {seed}")
    return {"seed": seed, **point}


def wait_done(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not job.done:
        if time.monotonic() > deadline:
            raise AssertionError(f"job {job.id} still {job.state}")
        time.sleep(0.01)
    assert job.state == "done", job.error
    return job


def serial_reference(grid=GRID, trials=2, master_seed=11):
    rows = sweep(election_trial, grid, trials=trials, master_seed=master_seed)
    return [
        {
            "point": point,
            "results": [default_serialize(value) for value in results],
            "failed": 0,
        }
        for point, results in rows
    ]


@pytest.fixture
def service(tmp_path):
    service = CampaignService(cache_dir=tmp_path / "cache")
    yield service
    service.close()


class TestValidation:
    def test_unknown_task_names_the_registry(self):
        with pytest.raises(ConfigurationError, match="election"):
            parse_campaign_spec({"task": "nope", "grid": GRID}, TASKS)

    def test_task_refs_rejected_by_default(self):
        payload = {"task": "repro.parallel.tasks:election_trial", "grid": GRID}
        with pytest.raises(ConfigurationError):
            parse_campaign_spec(payload, TASKS)
        spec = parse_campaign_spec(payload, TASKS, allow_task_refs=True)
        assert spec.task_ref == "repro.parallel.tasks:election_trial"

    def test_dangling_task_ref_fails_at_submission(self):
        payload = {"task": "repro.nonexistent:thing", "grid": GRID}
        with pytest.raises(ConfigurationError):
            parse_campaign_spec(payload, TASKS, allow_task_refs=True)

    @pytest.mark.parametrize(
        "broken",
        [
            "not an object",
            {"grid": GRID},
            {"task": "election"},
            {"task": "election", "grid": {}},
            {"task": "election", "grid": {"n": []}},
            {"task": "election", "grid": {"n": "32"}},
            {"task": "election", "grid": GRID, "trials": 0},
            {"task": "election", "grid": GRID, "trials": True},
            {"task": "election", "grid": GRID, "master_seed": "x"},
            {"task": "election", "grid": GRID, "jobs": -1},
            {"task": "election", "grid": GRID, "timeout_seconds": 0},
            {"task": "election", "grid": GRID, "backend": 3},
        ],
    )
    def test_malformed_payloads_rejected(self, broken):
        with pytest.raises(ConfigurationError):
            parse_campaign_spec(broken, TASKS)

    def test_registry_names_resolve(self):
        spec = parse_campaign_spec(SPEC, TASKS)
        assert spec.task_ref == TASKS["election"]
        assert spec.grid == {"n": [24, 32], "alpha": [0.5]}


class TestExecution:
    def test_fresh_campaign_matches_serial_sweep(self, service):
        job = wait_done(service.submit(SPEC))
        summary = job.summary
        assert summary["cache_hits"] == 0
        assert summary["cache_misses"] == 4
        assert summary["failed"] == 0
        assert canonical_json(summary["points"]) == canonical_json(
            serial_reference()
        )

    def test_stream_records_are_sealed_and_ordered(self, service):
        job = wait_done(service.submit(SPEC))
        records = job.records
        assert [r[SEQ_KEY] for r in records] == list(range(len(records)))
        for sealed in records:
            payload = {
                k: v for k, v in sealed.items() if k not in (CRC_KEY, SEQ_KEY)
            }
            assert sealed[CRC_KEY] == record_crc(payload)
        kinds = [r.get("kind") or r.get("status") for r in records]
        assert kinds[0] == "campaign"
        assert kinds[-1] == "summary"
        assert kinds.count("ok") == 4

    def test_trial_records_reassemble_by_index(self, service):
        job = wait_done(service.submit(SPEC))
        trials = [r for r in job.records if "status" in r]
        values = {r["index"]: r["value"] for r in trials if r["value"]}
        flat = [values[i] for i in range(4)]
        reference = [v for row in serial_reference() for v in row["results"]]
        assert canonical_json(flat) == canonical_json(reference)

    def test_resubmission_is_served_entirely_from_cache(self, service):
        first = wait_done(service.submit(SPEC))
        second = wait_done(service.submit(SPEC))
        summary = second.summary
        assert summary["cache_hits"] == 4
        assert summary["cache_misses"] == 0
        assert summary["dispatched_trials"] == 0
        assert summary["dispatched_chunks"] == 0
        assert canonical_json(summary["points"]) == canonical_json(
            first.summary["points"]
        )
        statuses = [r["status"] for r in second.records if "status" in r]
        assert statuses == ["cached"] * 4

    def test_overlapping_campaign_reuses_the_overlap(self, service):
        wait_done(service.submit(SPEC))
        bigger = dict(SPEC, grid={"n": [24, 32, 40], "alpha": [0.5]})
        job = wait_done(service.submit(bigger))
        # The n=24/n=32 points are answered from cache; only n=40 runs.
        assert job.summary["cache_hits"] == 4
        assert job.summary["dispatched_trials"] == 2
        assert canonical_json(job.summary["points"]) == canonical_json(
            serial_reference(grid=bigger["grid"])
        )

    def test_concurrent_submissions_dedup_to_one_computation(self, service):
        # Both jobs enqueue before either runs; the single drainer runs
        # them in order, so the second finds the first's cache entries.
        first = service.submit(SPEC)
        second = service.submit(SPEC)
        wait_done(first)
        wait_done(second)
        total_dispatched = (
            first.summary["dispatched_trials"]
            + second.summary["dispatched_trials"]
        )
        assert total_dispatched == 4  # unique trials, computed once
        assert second.summary["cache_hits"] == 4

    def test_cache_survives_service_restart(self, tmp_path):
        service = CampaignService(cache_dir=tmp_path / "cache")
        try:
            first = wait_done(service.submit(SPEC))
        finally:
            service.close()
        reborn = CampaignService(cache_dir=tmp_path / "cache")
        try:
            job = wait_done(reborn.submit(SPEC))
        finally:
            reborn.close()
        assert job.summary["cache_hits"] == 4
        assert job.summary["dispatched_trials"] == 0
        assert canonical_json(job.summary["points"]) == canonical_json(
            first.summary["points"]
        )

    def test_failing_job_is_isolated(self, tmp_path):
        service = CampaignService(
            cache_dir=tmp_path / "cache", allow_task_refs=True
        )
        try:
            # elect_leader rejects alpha >= 1: every trial fails, the job
            # finishes "done" with failure accounting, not a dead worker.
            bad = {
                "task": "election",
                "grid": {"n": [24], "alpha": [2.0]},
                "trials": 1,
            }
            job = wait_done(service.submit(bad))
            assert job.summary["failed"] == 1
            assert job.summary["points"][0]["results"] == []
            # The service still works afterwards.
            ok = wait_done(service.submit(SPEC))
            assert ok.summary["completed"] == 4
        finally:
            service.close()

    def test_jobs4_campaign_is_byte_identical_to_serial(self, service):
        job = wait_done(service.submit(dict(SPEC, jobs=4)))
        assert job.summary["dispatched_chunks"] > 0
        assert canonical_json(job.summary["points"]) == canonical_json(
            serial_reference()
        )

    @pytest.mark.skipif(not have_numpy(), reason="vec backend needs numpy")
    def test_vec_backend_results_serve_ref_requests(self, service):
        vec = wait_done(service.submit(dict(SPEC, backend="vec")))
        assert vec.summary["cache_misses"] == 4
        # Same campaign without the backend: exact parity means every
        # trial is answered from the vec-computed entries.
        ref = wait_done(service.submit(SPEC))
        assert ref.summary["cache_hits"] == 4
        assert ref.summary["dispatched_trials"] == 0
        assert canonical_json(ref.summary["points"]) == canonical_json(
            serial_reference()
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_backend_reaches_every_trial(self, tmp_path, jobs):
        service = CampaignService(
            cache_dir=tmp_path / "cache", allow_task_refs=True
        )
        try:
            spec = dict(
                SPEC, task=f"{__name__}:backend_echo", backend="vec", jobs=jobs
            )
            job = wait_done(service.submit(spec))
        finally:
            service.close()
        results = [r for point in job.summary["points"] for r in point["results"]]
        assert results == ["vec"] * 4

    def test_raising_trials_per_point_dispatches_only_the_new_trials(self, service):
        first = wait_done(service.submit(dict(SPEC, jobs=2)))
        # The new trials are indices 2 and 5: a non-contiguous dispatch.
        more = wait_done(service.submit(dict(SPEC, trials=3, jobs=2)))
        assert more.summary["failed"] == 0
        assert more.summary["cache_hits"] == first.summary["completed"] == 4
        assert more.summary["dispatched_trials"] == 2
        assert canonical_json(more.summary["points"]) == canonical_json(
            serial_reference(trials=3)
        )

    def test_retried_success_is_cached_under_its_retry_seed(self, tmp_path):
        """A retry-free resubmission must not be served a retried success."""
        spec = dict(SPEC, task=f"{__name__}:fails_on_base_seeds")
        service = CampaignService(cache_dir=tmp_path / "cache", allow_task_refs=True)
        fresh = CampaignService(cache_dir=tmp_path / "fresh", allow_task_refs=True)
        try:
            retried = wait_done(service.submit(dict(spec, retries=1)))
            again = wait_done(service.submit(dict(spec, retries=0)))
            reference = wait_done(fresh.submit(dict(spec, retries=0)))
        finally:
            service.close()
            fresh.close()
        assert retried.summary["failed"] == 0
        assert reference.summary["failed"] == 4
        assert again.summary["cache_hits"] == 0
        assert again.summary["failed"] == reference.summary["failed"]
        assert canonical_json(again.summary["points"]) == canonical_json(
            reference.summary["points"]
        )

    def test_progress_records_carry_counters(self, tmp_path):
        service = CampaignService(cache_dir=tmp_path / "cache", progress_every=1)
        try:
            job = wait_done(service.submit(SPEC))
        finally:
            service.close()
        progress = [r for r in job.records if r.get("kind") == "progress"]
        assert progress, "expected streamed progress records"
        final = progress[-1]
        assert final["completed"] == 4
        assert final["total"] == 4

    def test_describe_shape(self, service):
        job = wait_done(service.submit(SPEC))
        described = job.describe()
        assert described["job"] == job.id
        assert described["state"] == "done"
        assert described["spec"]["task"] == "election"
        assert described["summary"]["total_trials"] == 4
