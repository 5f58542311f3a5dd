"""The shared-nothing process-pool trial scheduler.

Trials are described by picklable :class:`~repro.parallel.spec.TrialSpec`
objects, dispatched to a ``concurrent.futures.ProcessPoolExecutor`` in
contiguous chunks, executed by warm, reused worker processes, and
reassembled **by position** — so the output of a parallel campaign is
exactly the output of the serial one, independent of worker timing.

Determinism contract
--------------------

* Seeds are derived *before* dispatch (the caller enumerates the same
  ``seed_sequence`` stream it would use serially).
* Workers share nothing; each trial is a pure function of its spec.
* Outcomes are placed at their spec's position in the input; chunking
  and completion order are invisible in the output.

One entry point, :func:`run_trials`, one pool per call: the parent
settles each spec as it draws it, answering the trials that must not run
(resumed, cached, or quarantined).  A list is settled in full before
anything runs; a lazy stream is drawn only when a worker is free.  The
rest run under the :mod:`repro.exec` safety net (per-trial SIGALRM
timeout + derived-seed retries) — in-process for ``jobs=1``, *inside a stateless
worker* otherwise — and the parent records each outcome in the
quarantine, journal, and cache (one writer, no cross-process file
races).  Trial exceptions never escape; they come back as ``failed``
outcomes for the caller to judge.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Sized
from itertools import chain, islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..exec import (
    FAILED,
    QUARANTINED,
    ResilientExecutor,
    RetryPolicy,
    TrialOutcome,
)
from ..obs.progress import ProgressReporter, ProgressSpec, ensure_progress
from ..obs.timing import NULL_TIMERS, PHASE_POOL_REASSEMBLY, PhaseTimers
from .spec import TrialSpec, resolve_task
from .supervisor import (
    GracefulShutdown,
    PoolSupervisor,
    SupervisorStats,
    chunk_deadline_seconds,
)

#: Chunks per worker used when no explicit chunk size is given: small
#: enough to balance load, large enough to amortise pickling.
_CHUNKS_PER_WORKER = 4


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` request: ``None``/``1`` serial, ``0`` = cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def default_chunk_size(total: int, jobs: int) -> int:
    """Contiguous chunk length for ``total`` trials over ``jobs`` workers."""
    if total <= 0:
        return 1
    return max(1, -(-total // (jobs * _CHUNKS_PER_WORKER)))


def _chunked(specs: Iterator[TrialSpec], size: int) -> Iterator[List[TrialSpec]]:
    while chunk := list(islice(specs, size)):
        yield chunk


def _check_picklable(spec: TrialSpec) -> None:
    """Fail fast (and helpfully) on unpicklable work instead of inside the pool."""
    try:
        pickle.dumps(spec)
    except Exception as exc:
        raise ConfigurationError(
            "trial task/point is not picklable, so it cannot cross a "
            "process boundary; pass a module-level task (or a "
            "'module:qualname' reference) or run with jobs=1 "
            f"(pickle error: {exc})"
        ) from exc


# ----------------------------------------------------------------------
# Trial execution (module-level so the pool can pickle it)
# ----------------------------------------------------------------------

def _run_spec(executor: ResilientExecutor, spec: TrialSpec) -> TrialOutcome:
    """One trial under ``executor`` — the only way a trial is run."""
    return executor.run_trial(
        resolve_task(spec.task), key=spec.trial_key, seed=spec.seed, **spec.kwargs
    )


def _run_chunk(
    chunk: List[TrialSpec],
    timeout_seconds: Optional[float],
    retries: int,
) -> List[Tuple[int, TrialOutcome]]:
    """Worker: every trial under timeout/retry, never raising."""
    executor = ResilientExecutor(
        timeout_seconds=timeout_seconds, retry=RetryPolicy(retries=retries)
    )
    return [(spec.index, _run_spec(executor, spec)) for spec in chunk]


# ----------------------------------------------------------------------
# Parent-side scheduling
# ----------------------------------------------------------------------

#: Per-outcome hook: ``on_outcome(spec, outcome)`` fires once per trial,
#: in completion order, as soon as the outcome is final.
OutcomeHook = Callable[[TrialSpec, TrialOutcome], None]


def in_order(
    specs: Sequence[TrialSpec], hook: OutcomeHook
) -> OutcomeHook:
    """``hook`` as an ``on_outcome`` that fires in ``specs`` order.

    Each outcome is held back until every spec before it has landed, so
    a caller can print, account, or journal in serial trial order while
    a parallel run is still in flight.  ``specs`` may still be growing:
    a caller that feeds :func:`run_trials` a stream appends each spec
    to it as the spec is drawn.
    """
    held: Dict[int, Tuple[TrialSpec, TrialOutcome]] = {}
    next_slot = 0

    def on_outcome(spec: TrialSpec, outcome: TrialOutcome) -> None:
        nonlocal next_slot
        held[spec.index] = (spec, outcome)
        while next_slot < len(specs) and specs[next_slot].index in held:
            hook(*held.pop(specs[next_slot].index))
            next_slot += 1

    return on_outcome


def run_trials(
    specs: Iterable[TrialSpec],
    jobs: int = 1,
    *,
    executor: Optional[ResilientExecutor] = None,
    chunk_size: Optional[int] = None,
    timers: Optional[PhaseTimers] = None,
    progress: ProgressSpec = False,
    shutdown: Optional[GracefulShutdown] = None,
    max_dispatches: int = 3,
    on_outcome: Optional[OutcomeHook] = None,
) -> List[TrialOutcome]:
    """Run ``specs`` under the resilience layer; outcomes in draw order.

    The :class:`~repro.exec.ResilientExecutor` (a fresh one, with no
    timeout, retries, journal, or cache, when ``executor`` is ``None``)
    supplies the policy (timeout, retries) and owns the parent-side
    state.  Each spec is settled as it is drawn: its index is checked
    for uniqueness, then ``executor.settled_outcome`` is asked for it,
    at every ``jobs``:

    * **resume** — specs whose key is in ``executor.completed`` are
      answered from the journal without running;
    * **cache** — specs whose ``(task, point, seed)`` is in
      ``executor.cache`` are answered with the stored value;
    * **quarantine** — consulted before a trial runs and fed back with
      each outcome (success clears strikes, exhausted retries add one).

    When ``specs`` has a length, the whole settle pass runs before
    anything else, so settled outcomes land first, in spec order, and
    the chunk size follows the count left to run.  Any other iterable is
    a stream: it is drawn only when a worker is free (one spec per chunk
    unless ``chunk_size`` says otherwise), so it may be endless and ends
    the campaign by ending.  Only the parent passes fresh outcomes to
    ``executor.record``, so the JSONL journal and the cache have exactly
    one writer.

    With ``jobs`` resolving to 1, or fewer than two specs left to run
    (a stream is peeked two specs ahead), they run in this process
    through the executor itself: no pool, no pickling, and the same
    shutdown boundary checks.  Otherwise timeout
    and retry run *inside* the workers (SIGALRM works there: each worker
    executes trials on its own main thread).  Either way a trial's spec
    is its identity — indices must be unique, but need not be contiguous
    — and journal append order follows completion, which resume ignores.

    The parallel path runs under a :class:`PoolSupervisor`: a worker
    killed with ``kill -9``, a hung pool, or a missed chunk deadline
    rebuilds the pool and re-dispatches only the in-flight chunks (at
    most ``max_dispatches`` times; a single trial that keeps breaking its
    worker is recorded as ``failed`` and counted against the quarantine
    instead of retrying forever).  Re-delivered results are ignored via
    the reassembly slots, so every trial lands exactly once.  Supervisor
    counters end up on ``executor.last_supervisor_stats`` (``None`` when
    this call built no pool) and — when anything eventful happened — as
    a ``{"kind": "supervisor"}`` journal record.

    ``shutdown`` (a :class:`GracefulShutdown`) stops the campaign at the
    next trial boundary on SIGINT/SIGTERM: the journal is already flushed
    per-outcome, workers are reaped, and
    :class:`~repro.errors.CampaignInterrupted` propagates — advertising
    ``--resume`` only when ``executor`` has a journal to resume from.

    ``timers`` (a :class:`~repro.obs.PhaseTimers`) profiles the parent's
    two pool phases — chunk dispatch and result reassembly.  ``progress``
    turns on a stderr heartbeat: trials completed/attempted,
    throughput/ETA, retry/quarantine counts, pool restarts, and how many
    workers still hold work.  Neither affects results.

    ``on_outcome(spec, outcome)`` fires once per trial in completion
    order, as soon as the outcome is final (resumed, cached, quarantined,
    fresh, or abandoned) — the seam campaign services use to stream
    results while the run is still in flight.  It runs in the
    parent process; exceptions it raises propagate (don't raise).
    Wrap it in :func:`in_order` to see outcomes in spec order instead.
    """
    jobs = resolve_jobs(jobs)
    executor = executor if executor is not None else ResilientExecutor()
    timers = timers if timers is not None else NULL_TIMERS
    # A caller-supplied reporter is shared across layers: the caller
    # owns its lifetime, so only a locally-built one gets finish() here.
    owns_reporter = not isinstance(progress, ProgressReporter)
    total = len(specs) if isinstance(specs, Sized) else None
    reporter = ensure_progress(progress, total=total, label="trials")
    # Both keyed by spec index, in draw order.
    drawn: Dict[int, TrialSpec] = {}
    outcomes: Dict[int, Optional[TrialOutcome]] = {}

    def announce(spec: TrialSpec, outcome: TrialOutcome) -> None:
        _advance_for(reporter, outcome)
        if on_outcome is not None:
            on_outcome(spec, outcome)

    def land(spec: TrialSpec, outcome: TrialOutcome) -> None:
        outcomes[spec.index] = outcome
        announce(spec, outcome)

    def settle() -> Iterator[TrialSpec]:
        """Draw and settle each spec; yield only those left to run."""
        for spec in specs:
            if spec.index in drawn:
                raise ConfigurationError("trial spec indices must be unique")
            drawn[spec.index] = spec
            outcomes[spec.index] = None
            settled = executor.settled_outcome(spec)
            if settled is None:
                yield spec
            else:
                land(spec, settled)

    executor.last_supervisor_stats = None
    pending = settle()
    size = chunk_size or 1
    if total is not None:
        queued = list(pending)
        pending = iter(queued)
        size = chunk_size or default_chunk_size(len(queued), jobs)
    # jobs=1 peeks nothing, so it always runs in process, drawing lazily.
    ahead = [] if jobs == 1 else list(islice(pending, 2))
    pending = chain(ahead, pending)
    if len(ahead) < 2:
        for spec in pending:
            if shutdown is not None and shutdown.requested:
                break
            outcome = _run_spec(executor, spec)
            executor.record(spec, outcome)
            land(spec, outcome)
    else:
        _check_picklable(ahead[0])
        reporter.set_workers(jobs)

        def on_result(index: int, outcome: TrialOutcome) -> None:
            with timers.timed(PHASE_POOL_REASSEMBLY):
                # Exactly-once guard: a redispatched chunk (hung worker
                # that was merely slow) may deliver the same trial twice.
                fresh = outcomes[index] is None
                if fresh:
                    outcomes[index] = outcome
            # Recording and caller hooks run outside the timed phase:
            # reassembly measures slotting, not journal/cache/stream I/O.
            if fresh:
                executor.record(drawn[index], outcome)
                announce(drawn[index], outcome)

        def on_abandon(spec: TrialSpec, reason: str) -> None:
            on_result(
                spec.index,
                TrialOutcome(
                    key=spec.trial_key,
                    seed=spec.seed,
                    status=FAILED,
                    attempts=0,
                    error=reason,
                ),
            )

        stats = SupervisorStats()
        executor.last_supervisor_stats = stats
        supervisor = PoolSupervisor(
            jobs,
            _run_chunk,
            (executor.timeout_seconds, executor.retry.retries),
            deadline_seconds=chunk_deadline_seconds(
                executor.timeout_seconds,
                executor.retry.max_attempts,
                sum(executor.retry.delays()),
            ),
            max_dispatches=max_dispatches,
            stats=stats,
            shutdown=shutdown,
            reporter=reporter,
            timers=timers,
        )
        try:
            supervisor.run(_chunked(pending, size), on_result, on_abandon)
        finally:
            # Interrupted or not, make the supervision events durable: the
            # stats record rides in the journal next to the trial outcomes.
            if stats.eventful and executor.journal is not None:
                executor.journal.append(stats.journal_record())
    if owns_reporter:
        reporter.finish()
    unlanded = sum(outcome is None for outcome in outcomes.values())
    if unlanded:
        assert shutdown is not None  # only a shutdown leaves trials unrun
        raise shutdown.interruption(unlanded, resumable=executor.journal is not None)
    return [outcome for outcome in outcomes.values() if outcome is not None]


def _advance_for(reporter: ProgressReporter, outcome: TrialOutcome) -> None:
    """Translate one trial outcome into progress-counter deltas."""
    reporter.advance(
        completed=1 if outcome.ok else 0,
        attempted=max(1, outcome.attempts),
        failed=0 if outcome.ok else 1,
        retries=max(0, outcome.attempts - 1),
        quarantined=1 if outcome.status == QUARANTINED else 0,
    )
