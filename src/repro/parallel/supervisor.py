"""Supervision for the process-pool scheduler: survive the pool itself.

The resilience layer (:mod:`repro.exec`) guards against trials that
*raise*; this module guards against the machinery *around* them — the
failure modes that historically killed whole campaigns:

* a worker dies (``kill -9``, OOM): ``ProcessPoolExecutor`` breaks every
  outstanding future with ``BrokenProcessPool``.  The supervisor rebuilds
  the pool and re-dispatches only the chunks that were in flight;
* a worker hangs (the in-worker SIGALRM net only fires inside a live,
  signal-receiving trial): each chunk carries a wall-clock deadline; a
  chunk past it has its workers killed, the pool rebuilt, and the chunk
  re-dispatched;
* a chunk whose trial *repeatedly* kills its worker would otherwise be
  re-dispatched forever: after ``max_dispatches`` the chunk is split into
  single-trial chunks to isolate the killer, and a single trial that
  still keeps killing workers is abandoned through ``on_abandon`` —
  recorded as ``failed`` (feeding the quarantine), never silently lost;
* the parent receives SIGINT/SIGTERM: :class:`GracefulShutdown` turns the
  signal into a flag, the supervisor stops dispatching at the next trial
  boundary, cancels queued work, reaps the workers, and returns with
  ``stats.interrupted`` set; the scheduler then raises
  :class:`~repro.errors.CampaignInterrupted` — the journal the caller
  maintained per-result is already flushed, so ``--resume`` continues
  from the exact boundary.

Exactly-once delivery is the caller's half of the contract: results are
handed to ``on_result(index, value)`` and a re-dispatched chunk may
complete twice (a "hung" worker may really just have been slow), so the
callback must ignore indices it has already recorded — the pool module's
callbacks do, keyed on the reassembly slot.

Everything observable is counted in :class:`SupervisorStats` and can be
embedded in the checkpoint journal as a ``{"kind": "supervisor"}`` record
(rendered by ``repro report``).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import CampaignInterrupted
from ..obs.progress import NULL_PROGRESS, ProgressReporter
from ..obs.timing import NULL_TIMERS, PHASE_POOL_DISPATCH, PhaseTimers
from .spec import TrialSpec

#: ``kind`` tag of the supervisor-stats record embedded in journals.
SUPERVISOR_RECORD_KIND = "supervisor"

#: Wall-clock slack added to computed chunk deadlines: dispatch, pickle,
#: and scheduling time that is not the trials' own budget.
DEADLINE_SLACK_SECONDS = 5.0


@dataclass
class SupervisorStats:
    """Counters for everything the supervisor had to do."""

    pool_rebuilds: int = 0
    worker_deaths: int = 0
    hung_chunks: int = 0
    redispatched_chunks: int = 0
    redispatched_trials: int = 0
    abandoned_trials: int = 0
    #: Total chunk submissions to the pool (first dispatches *and*
    #: redispatches).  Not an incident — it is the supervisor's work
    #: ledger, which is how the campaign service proves a fully cached
    #: resubmission touched the pool zero times.
    dispatched_chunks: int = 0
    interrupted: bool = False

    @property
    def eventful(self) -> bool:
        """True when the supervisor did anything worth reporting."""
        return bool(
            self.pool_rebuilds
            or self.worker_deaths
            or self.hung_chunks
            or self.redispatched_chunks
            or self.redispatched_trials
            or self.abandoned_trials
            or self.interrupted
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "pool_rebuilds": self.pool_rebuilds,
            "worker_deaths": self.worker_deaths,
            "hung_chunks": self.hung_chunks,
            "redispatched_chunks": self.redispatched_chunks,
            "redispatched_trials": self.redispatched_trials,
            "abandoned_trials": self.abandoned_trials,
            "dispatched_chunks": self.dispatched_chunks,
            "interrupted": self.interrupted,
        }

    def merge(self, other: "SupervisorStats") -> None:
        """Fold another run's counters into this one (resumed campaigns)."""
        self.pool_rebuilds += other.pool_rebuilds
        self.worker_deaths += other.worker_deaths
        self.hung_chunks += other.hung_chunks
        self.redispatched_chunks += other.redispatched_chunks
        self.redispatched_trials += other.redispatched_trials
        self.abandoned_trials += other.abandoned_trials
        self.dispatched_chunks += other.dispatched_chunks
        self.interrupted = self.interrupted or other.interrupted

    def journal_record(self) -> Dict[str, Any]:
        """The ``{"kind": "supervisor"}`` journal embedding."""
        record = {"kind": SUPERVISOR_RECORD_KIND}
        record.update(self.as_dict())
        return record


def campaign_counts(
    attempted: int,
    completed: int,
    failed: int,
    stats: Optional[SupervisorStats] = None,
) -> Dict[str, int]:
    """A campaign's headline accounting, for tables and logs.

    ``attempted/completed/failed``, plus — when the supervisor had to
    intervene (pool rebuilds, worker deaths, redispatches) — its nonzero
    counters, so summaries show *how* the numbers were reached.
    """
    counts = {"attempted": attempted, "completed": completed, "failed": failed}
    if stats is not None and stats.eventful:
        counts.update(
            {
                key: value
                for key, value in stats.as_dict().items()
                if isinstance(value, int) and value
            }
        )
    return counts


def is_supervisor_record(record: Any) -> bool:
    """Is this journal record an embedded supervisor-stats record?"""
    try:
        return record.get("kind") == SUPERVISOR_RECORD_KIND
    except AttributeError:
        return False


class GracefulShutdown:
    """Turns SIGINT/SIGTERM into a checked flag for trial-boundary exits.

    Installed as a context manager around a campaign (signal handlers
    only attach on the main thread; elsewhere the context is inert and
    the process keeps its default behaviour).  ``request()`` triggers the
    same path programmatically, which is what tests use.
    """

    def __init__(
        self, signals: Sequence[int] = (signal.SIGINT, signal.SIGTERM)
    ) -> None:
        self.signals = tuple(signals)
        self.requested = False
        self.signum: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    def request(self, signum: Optional[int] = None) -> None:
        """Ask for a graceful stop at the next trial boundary."""
        self.requested = True
        if signum is not None and self.signum is None:
            self.signum = signum

    def _handler(self, signum: int, frame: Any) -> None:
        self.request(signum)

    def __enter__(self) -> "GracefulShutdown":
        if threading.current_thread() is threading.main_thread():
            for signum in self.signals:
                self._previous[signum] = signal.signal(signum, self._handler)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()

    def describe(self) -> str:
        if self.signum is not None:
            try:
                return signal.Signals(self.signum).name
            except ValueError:  # pragma: no cover - exotic signal numbers
                return f"signal {self.signum}"
        return "shutdown request"

    def interruption(self, pending: int, resumable: bool) -> CampaignInterrupted:
        """The error that ends a campaign stopped with ``pending`` trials left.

        Only a ``resumable`` campaign (one with a journal) advertises
        ``--resume``: without a journal there is nothing to continue from.
        """
        message = (
            f"campaign interrupted by {self.describe()}; "
            f"{pending} trial(s) not completed"
        )
        if resumable:
            message += (
                " — journal is flushed, rerun with --resume to continue "
                "from this boundary"
            )
        return CampaignInterrupted(message, signum=self.signum)


class _Chunk:
    """One dispatchable unit plus its supervision bookkeeping."""

    __slots__ = ("specs", "dispatches", "started")

    def __init__(self, specs: List[TrialSpec], dispatches: int = 0) -> None:
        self.specs = specs
        self.dispatches = dispatches
        self.started = 0.0


class PoolSupervisor:
    """Run chunks through a process pool that is allowed to die.

    ``worker_fn(specs, *worker_args)`` must return an iterable of
    ``(index, value)`` pairs; results are streamed to ``on_result`` as
    chunks complete.  The supervisor owns the pool lifecycle: it detects
    worker death (``BrokenProcessPool``, dead pids) and missed chunk
    deadlines, kills and rebuilds the pool, and re-dispatches exactly the
    chunks that were in flight.  See the module docstring for the
    abandonment policy and the exactly-once contract.
    """

    def __init__(
        self,
        jobs: int,
        worker_fn: Callable[..., Any],
        worker_args: Tuple[Any, ...] = (),
        *,
        deadline_seconds: Optional[float] = None,
        poll_seconds: float = 0.25,
        max_dispatches: int = 3,
        stats: Optional[SupervisorStats] = None,
        shutdown: Optional[GracefulShutdown] = None,
        reporter: Optional[ProgressReporter] = None,
        timers: Optional[PhaseTimers] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_dispatches < 1:
            raise ValueError(f"max_dispatches must be >= 1, got {max_dispatches}")
        self.jobs = jobs
        self.worker_fn = worker_fn
        self.worker_args = tuple(worker_args)
        self.deadline_seconds = deadline_seconds
        self.poll_seconds = poll_seconds
        self.max_dispatches = max_dispatches
        self.stats = stats if stats is not None else SupervisorStats()
        self.shutdown = shutdown
        self.reporter = reporter if reporter is not None else NULL_PROGRESS
        #: Times every ``pool.submit`` under ``PHASE_POOL_DISPATCH``.
        self.timers = timers if timers is not None else NULL_TIMERS
        self._seen_pids: Dict[int, Any] = {}
        self._dead_pids: set = set()

    # -- public ----------------------------------------------------------

    def run(
        self,
        chunks: Iterable[List[TrialSpec]],
        on_result: Callable[[int, Any], None],
        on_abandon: Callable[[TrialSpec, str], None],
    ) -> SupervisorStats:
        """Supervised execution of ``chunks``; returns the stats.

        ``chunks`` is drawn one chunk at a time, only when a worker is
        free, so it may be a generator the caller feeds as it goes.  The
        run ends once it is exhausted and nothing is queued or in flight.
        A shutdown request stops it at the next trial boundary with the
        workers reaped and ``stats.interrupted`` set; the caller raises.
        """
        source = iter(chunks)
        queue: Deque[_Chunk] = deque()  # redispatches only
        pool = self._new_pool()
        inflight: Dict[Future, _Chunk] = {}
        try:
            while True:
                if self.shutdown is not None and self.shutdown.requested:
                    self.stats.interrupted = True
                    break
                pool = self._fill(pool, inflight, queue, source, on_abandon)
                self.reporter.advance(busy=len(inflight))
                if not inflight:
                    break  # nothing left to draw, queue or wait on
                done, _ = wait(
                    set(inflight),
                    timeout=self.poll_seconds,
                    return_when=FIRST_COMPLETED,
                )
                rebuild = False
                for future in done:
                    chunk = inflight.pop(future)
                    try:
                        results = future.result()
                    except BrokenProcessPool:
                        self._requeue(chunk, queue, on_abandon, "worker died")
                        rebuild = True
                    except Exception as exc:
                        # Not a trial exception (resilient workers never
                        # raise): the chunk could not be delivered — an
                        # unpicklable result, a worker lost mid-handoff.
                        self._requeue(
                            chunk,
                            queue,
                            on_abandon,
                            f"chunk delivery failed: {type(exc).__name__}: {exc}",
                        )
                        rebuild = True
                    else:
                        for index, value in results:
                            on_result(index, value)
                rebuild = self._reap_hung(inflight, queue, on_abandon) or rebuild
                self._count_worker_deaths(pool)
                if rebuild:
                    pool = self._rebuild(pool, inflight, queue, on_abandon)
        finally:
            self._terminate(pool)
        return self.stats

    # -- internals -------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs)

    def _fill(
        self,
        pool: ProcessPoolExecutor,
        inflight: Dict[Future, _Chunk],
        queue: Deque[_Chunk],
        source: Iterator[List[TrialSpec]],
        on_abandon: Callable[[TrialSpec, str], None],
    ) -> ProcessPoolExecutor:
        # One chunk per worker: a queued-but-unstarted chunk must not age
        # against its deadline, and a chunk is drawn only when it can run.
        while len(inflight) < self.jobs:
            if queue:
                chunk = queue.popleft()
            elif (specs := next(source, None)) is not None:
                chunk = _Chunk(specs)
            else:
                break
            try:
                with self.timers.timed(PHASE_POOL_DISPATCH):
                    future = pool.submit(
                        self.worker_fn, chunk.specs, *self.worker_args
                    )
            except (BrokenProcessPool, RuntimeError):
                # The pool broke between completions (worker killed while
                # idle): put the chunk back and rebuild immediately.
                queue.appendleft(chunk)
                pool = self._rebuild(pool, inflight, queue, on_abandon)
                continue
            chunk.dispatches += 1
            chunk.started = time.monotonic()
            self.stats.dispatched_chunks += 1
            inflight[future] = chunk
        return pool

    def _chunk_deadline(self, chunk: _Chunk) -> Optional[float]:
        if self.deadline_seconds is None:
            return None
        return self.deadline_seconds * max(1, len(chunk.specs)) + DEADLINE_SLACK_SECONDS

    def _reap_hung(
        self,
        inflight: Dict[Future, _Chunk],
        queue: Deque[_Chunk],
        on_abandon: Callable[[TrialSpec, str], None],
    ) -> bool:
        if self.deadline_seconds is None:
            return False
        now = time.monotonic()
        hung = [
            future
            for future, chunk in inflight.items()
            if now - chunk.started > self._chunk_deadline(chunk)  # type: ignore[operator]
        ]
        for future in hung:
            chunk = inflight.pop(future)
            self.stats.hung_chunks += 1
            self._requeue(
                chunk,
                queue,
                on_abandon,
                f"missed its {self._chunk_deadline(chunk):.1f}s deadline",
            )
        return bool(hung)

    def _requeue(
        self,
        chunk: _Chunk,
        queue: Deque[_Chunk],
        on_abandon: Callable[[TrialSpec, str], None],
        reason: str,
    ) -> None:
        """Give a failed chunk another shot, split it, or abandon it."""
        if chunk.dispatches < self.max_dispatches:
            self.stats.redispatched_chunks += 1
            self.stats.redispatched_trials += len(chunk.specs)
            queue.append(chunk)
            return
        if len(chunk.specs) > 1:
            # The chunk burnt its budget but we do not know *which* trial
            # is the killer: isolate them, one trial per chunk, each with
            # a fresh (single-trial) dispatch budget.
            self.stats.redispatched_chunks += 1
            self.stats.redispatched_trials += len(chunk.specs)
            for spec in chunk.specs:
                queue.append(_Chunk([spec]))
            return
        spec = chunk.specs[0]
        self.stats.abandoned_trials += 1
        on_abandon(
            spec,
            f"trial kept breaking its worker ({reason}) after "
            f"{chunk.dispatches} dispatch(es)",
        )

    def _count_worker_deaths(self, pool: ProcessPoolExecutor) -> None:
        processes = getattr(pool, "_processes", None) or {}
        for pid, process in list(processes.items()):
            self._seen_pids[pid] = process
        for pid, process in list(self._seen_pids.items()):
            if pid in self._dead_pids:
                continue
            if not process.is_alive():
                exitcode = process.exitcode
                # Only count violent deaths: a worker reaped during a
                # clean pool shutdown exits 0.
                if exitcode is not None and exitcode != 0:
                    self._dead_pids.add(pid)
                    self.stats.worker_deaths += 1

    def _rebuild(
        self,
        pool: ProcessPoolExecutor,
        inflight: Dict[Future, _Chunk],
        queue: Deque[_Chunk],
        on_abandon: Callable[[TrialSpec, str], None],
    ) -> ProcessPoolExecutor:
        """Kill the pool and start fresh, re-queueing all in-flight work.

        In-flight chunks may have partially (or even fully) executed; the
        caller's exactly-once guard on ``on_result`` makes the re-run
        harmless, and re-dispatching is the only way to guarantee the
        chunk's results exist at all.
        """
        self._count_worker_deaths(pool)
        for future in list(inflight):
            chunk = inflight.pop(future)
            self._requeue(chunk, queue, on_abandon, "pool rebuilt underneath it")
        self._terminate(pool)
        self.stats.pool_rebuilds += 1
        self.reporter.advance(restarts=1)
        return self._new_pool()

    def _terminate(self, pool: ProcessPoolExecutor) -> None:
        """Shut a pool down without waiting on wedged or dead workers."""
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            # Shutdown of an already-broken pool must never mask the
            # supervision path that called it; the kill below still reaps.
            pass
        for process in processes:
            if process.is_alive():
                process.kill()
        for process in processes:
            process.join(timeout=1.0)


def chunk_deadline_seconds(
    timeout_seconds: Optional[float],
    max_attempts: int,
    backoff_seconds: float = 0.0,
) -> Optional[float]:
    """Per-trial supervision deadline implied by the executor's budget.

    ``None`` (no per-trial timeout) disables deadline supervision —
    worker death is still caught via ``BrokenProcessPool``, but a silent
    hang cannot be told apart from a legitimately long trial.
    """
    if not timeout_seconds:
        return None
    return timeout_seconds * max(1, max_attempts) + backoff_seconds
