"""The campaign service: submission queue, result cache, streaming jobs.

:class:`CampaignService` is the transport-independent core of
``repro serve``.  It accepts campaign specifications (the same
``grid × trials`` shape :func:`repro.analysis.sweeps.sweep` takes),
queues them, and runs each through
:func:`~repro.analysis.sweeps.resilient_sweep` — the sweep core every
CLI campaign shares — with the persistent
:class:`~repro.serve.cache.ResultCache` on the executor, so every trial
seen before is answered by the executor's settle pass instead of
running.  Progress and per-trial results are published as **sealed
journal-v2 records** that the HTTP layer streams verbatim — the wire
format *is* the journal format, so any journal consumer (``repro
report``, ``fsck``) understands a captured stream.

Process shape
-------------

Specs are plain JSON, tasks are ``"module:qualname"`` references,
results are serialised values, and the queue is drained by one worker
thread that owns the pool.

The **single drainer** is also the cache's concurrency story: jobs run
one at a time, so two overlapping campaigns submitted together dedup
naturally — the second finds the first's entries in the cache and
dispatches nothing for the overlap.

Security
--------

Submitted task names resolve through a fixed registry (:data:`TASKS`)
by default.  Arbitrary ``"module:qualname"`` references are *remote code
execution* and are only honoured when the service is constructed with
``allow_task_refs=True`` (tests, trusted single-user setups).
"""

from __future__ import annotations

import io
import itertools
import queue
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from ..analysis.sweeps import grid_points, resilient_sweep
from ..core.families import FAMILIES
from ..errors import ConfigurationError
from ..exec import CACHED, ResilientExecutor, RetryPolicy, TrialOutcome, seal_record
from ..obs.progress import ProgressReporter
from ..parallel import TrialSpec, canonical_task_ref, resolve_task
from .cache import ResultCache

#: Task names the service executes by default.  Names — not references —
#: cross the HTTP boundary, so a client can only run what the operator
#: registered.
TASKS: Dict[str, str] = {
    **{name: family.task for name, family in FAMILIES.items() if family.task},
    # Adversary fuzzing as a campaign: pure per-(scenario, seed) verdicts,
    # so repeat submissions hit the result cache like any other task.
    "fuzz": "repro.parallel.tasks:fuzz_trial",
}

#: Job states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass(frozen=True)
class CampaignSpec:
    """One validated campaign submission."""

    task: str
    task_ref: str
    grid: Dict[str, List[Any]]
    trials: int
    master_seed: int
    jobs: int
    backend: Optional[str]
    timeout_seconds: Optional[float]
    retries: int

    def as_dict(self) -> Dict[str, Any]:
        """The spec as submitted-shape JSON (echoed in job descriptions)."""
        return {
            "task": self.task,
            "task_ref": self.task_ref,
            "grid": self.grid,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "jobs": self.jobs,
            "backend": self.backend,
            "timeout_seconds": self.timeout_seconds,
            "retries": self.retries,
        }


def parse_campaign_spec(
    payload: Any,
    registry: Mapping[str, str],
    allow_task_refs: bool = False,
    default_jobs: int = 1,
) -> CampaignSpec:
    """Validate a submission payload into a :class:`CampaignSpec`.

    Raises :class:`~repro.errors.ConfigurationError` with a message safe
    to echo back over HTTP (no internals, names the offending field).
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError("campaign spec must be a JSON object")
    task = payload.get("task")
    if not isinstance(task, str) or not task:
        raise ConfigurationError("'task' must be a non-empty string")
    if task in registry:
        task_ref = registry[task]
    elif allow_task_refs and ":" in task:
        task_ref = canonical_task_ref(task)
    else:
        known = ", ".join(sorted(registry))
        raise ConfigurationError(f"unknown task {task!r} (registered: {known})")
    # Fail at submission, not mid-campaign, if the reference is dangling.
    resolve_task(task_ref)

    grid_raw = payload.get("grid")
    if not isinstance(grid_raw, Mapping) or not grid_raw:
        raise ConfigurationError("'grid' must be a non-empty object of axes")
    grid: Dict[str, List[Any]] = {}
    for name, axis in grid_raw.items():
        if not isinstance(axis, Sequence) or isinstance(axis, (str, bytes)):
            raise ConfigurationError(f"grid axis {name!r} must be a list")
        if not axis:
            raise ConfigurationError(f"grid axis {name!r} must not be empty")
        grid[str(name)] = list(axis)

    def _int_field(name: str, default: int, minimum: int) -> int:
        value = payload.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ConfigurationError(f"{name!r} must be an integer >= {minimum}")
        return value

    trials = _int_field("trials", 1, 1)
    master_seed = payload.get("master_seed", 0)
    if not isinstance(master_seed, int) or isinstance(master_seed, bool):
        raise ConfigurationError("'master_seed' must be an integer")
    jobs = _int_field("jobs", default_jobs, 0)
    retries = _int_field("retries", 0, 0)
    backend = payload.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ConfigurationError("'backend' must be a string or null")
    timeout_seconds = payload.get("timeout_seconds")
    if timeout_seconds is not None:
        if not isinstance(timeout_seconds, (int, float)) or timeout_seconds <= 0:
            raise ConfigurationError("'timeout_seconds' must be a positive number")
        timeout_seconds = float(timeout_seconds)
    return CampaignSpec(
        task=task,
        task_ref=task_ref,
        grid=grid,
        trials=trials,
        master_seed=master_seed,
        jobs=jobs,
        backend=backend,
        timeout_seconds=timeout_seconds,
        retries=retries,
    )


class Job:
    """One queued/running/finished campaign with its streamed records.

    Records are sealed with the journal v2 envelope at emission
    (``_crc`` + per-job ``_seq``), buffered in order, and handed to any
    number of stream readers via :meth:`wait_records`.  All mutation
    happens on the service's worker thread; readers only take the lock.
    """

    def __init__(self, job_id: str, spec: CampaignSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.state = QUEUED
        self.error: Optional[str] = None
        self.summary: Optional[Dict[str, Any]] = None
        self.records: List[Dict[str, Any]] = []
        self._seq = 0
        self._cond = threading.Condition()

    @property
    def done(self) -> bool:
        return self.state in (DONE, FAILED)

    def emit(self, record: Dict[str, Any]) -> None:
        """Seal ``record`` and append it to the stream buffer."""
        with self._cond:
            self.records.append(seal_record(record, self._seq))
            self._seq += 1
            self._cond.notify_all()

    def set_state(self, state: str) -> None:
        with self._cond:
            self.state = state
            self._cond.notify_all()

    def wait_records(
        self, start: int, timeout: Optional[float] = 0.5
    ) -> "tuple[List[Dict[str, Any]], bool]":
        """``(records[start:], done)`` — blocks up to ``timeout`` for news.

        Returns immediately when records beyond ``start`` already exist
        or the job is finished; the ``done`` flag is read under the same
        lock, so a reader that sees ``done`` with no new records has seen
        the whole stream.
        """
        with self._cond:
            if len(self.records) <= start and not self.done:
                self._cond.wait(timeout)
            return list(self.records[start:]), self.done

    def describe(self) -> Dict[str, Any]:
        """JSON job status for the non-streaming endpoints."""
        with self._cond:
            return {
                "job": self.id,
                "state": self.state,
                "spec": self.spec.as_dict(),
                "records": len(self.records),
                "error": self.error,
                "summary": self.summary,
            }


class CampaignService:
    """Queue + cache + executor behind the ``repro serve`` HTTP front.

    One background thread drains the queue; :meth:`submit` is safe from
    any thread (the HTTP event loop calls it).  Close with
    :meth:`close` — queued jobs finish first.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        max_cache_entries: Optional[int] = None,
        registry: Optional[Mapping[str, str]] = None,
        allow_task_refs: bool = False,
        default_jobs: int = 1,
        progress_every: int = 25,
    ) -> None:
        if progress_every < 1:
            raise ConfigurationError(
                f"progress_every must be >= 1, got {progress_every}"
            )
        self.cache = ResultCache(cache_dir, max_entries=max_cache_entries)
        self.registry: Dict[str, str] = dict(TASKS if registry is None else registry)
        self.allow_task_refs = allow_task_refs
        self.default_jobs = default_jobs
        self.progress_every = progress_every
        self._jobs: Dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._worker = threading.Thread(
            target=self._drain, name="repro-serve-worker", daemon=True
        )
        self._worker.start()

    # -- submission ------------------------------------------------------

    def submit(self, payload: Any) -> Job:
        """Validate ``payload`` and enqueue it; returns the queued job."""
        spec = parse_campaign_spec(
            payload,
            self.registry,
            allow_task_refs=self.allow_task_refs,
            default_jobs=self.default_jobs,
        )
        with self._lock:
            job = Job(f"job-{next(self._ids):04d}", spec)
            self._jobs[job.id] = job
        self._queue.put(job)
        return job

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Finish queued jobs, then stop the worker thread."""
        self._queue.put(None)
        self._worker.join(timeout)

    # -- execution (worker thread) ---------------------------------------

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            job.set_state(RUNNING)
            try:
                self._execute(job)
            except Exception as exc:  # noqa: BLE001 - job isolation: one
                # failing campaign must not take the service down.
                job.error = f"{type(exc).__name__}: {exc}"
                job.emit({"kind": "error", "job": job.id, "error": job.error})
                job.set_state(FAILED)
            else:
                job.set_state(DONE)

    def _execute(self, job: Job) -> None:
        spec = job.spec
        total = len(grid_points(spec.grid)) * spec.trials
        job.emit(
            {
                "kind": "campaign",
                "job": job.id,
                "task": spec.task_ref,
                "total_trials": total,
                "grid": spec.grid,
                "trials": spec.trials,
                "master_seed": spec.master_seed,
                "jobs": spec.jobs,
                "backend": spec.backend,
            }
        )
        # The reporter is used for its counters/snapshot, not its
        # heartbeat: progress crosses the wire as JSON records, so the
        # text lines drain into a throwaway buffer.
        reporter = ProgressReporter(
            total=total, label=job.id, stream=io.StringIO(), interval=float("inf")
        )
        executor = ResilientExecutor(
            timeout_seconds=spec.timeout_seconds,
            retry=RetryPolicy(retries=spec.retries),
            cache=self.cache,
        )
        hits = 0
        emitted = 0

        def emit_trial(trial_spec: TrialSpec, outcome: TrialOutcome) -> None:
            # Cache hits arrive first, in spec order (the settle pass);
            # fresh trials follow in completion order, so records carry
            # their ``index`` for readers to reassemble.
            nonlocal hits, emitted
            record = outcome.journal_record(executor.serialize)
            record["index"] = trial_spec.index
            # The sweep folds outcome values into its points: fold the
            # serialised value this record streams, not the live object.
            outcome.value = record["value"]
            hits += outcome.status == CACHED
            job.emit(record)
            emitted += 1
            if emitted % self.progress_every == 0:
                job.emit(reporter.snapshot())

        result = resilient_sweep(
            spec.task_ref,
            spec.grid,
            spec.trials,
            spec.master_seed,
            executor=executor,
            jobs=spec.jobs,
            progress=reporter,
            backend=spec.backend,
            on_outcome=emit_trial,
        )
        job.emit(reporter.snapshot())
        summary = {
            "kind": "summary",
            "job": job.id,
            "task": spec.task_ref,
            "total_trials": total,
            "completed": result.completed,
            "failed": result.failed,
            "cache_hits": hits,
            "cache_misses": total - hits,
            "dispatched_trials": total - hits,
            "dispatched_chunks": (
                result.supervisor.dispatched_chunks if result.supervisor else 0
            ),
            "points": [
                {"point": p.point, "results": p.results, "failed": p.failed}
                for p in result.points
            ],
        }
        job.summary = summary
        job.emit(summary)
