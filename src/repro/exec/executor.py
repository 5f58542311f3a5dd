"""The resilient trial executor.

:class:`ResilientExecutor` holds every robustness layer this package
provides:

* ``run_trial`` runs one harness trial — an arbitrary
  ``task(seed=..., **kwargs)`` call — under a hard wall-clock budget
  (:mod:`repro.exec.timeout`) and retry with derived seeds and capped
  exponential backoff (:mod:`repro.exec.retry`), keeping no state;
* ``settled_outcome`` answers a trial that must not run: resumed from
  the ``--resume`` journal (:mod:`repro.exec.journal`), a result-cache
  hit, or a quarantined config key that keeps failing;
* ``record`` feeds each fresh outcome to the quarantine, journal, cache.

:func:`repro.parallel.run_trials` calls the last two in the parent
process, so state has one owner at every ``jobs``.  The executor never
lets a trial exception escape: every trial yields a
:class:`TrialOutcome` with a status, and sweeps aggregate those into
partial results (:func:`repro.analysis.sweeps.resilient_sweep`) instead
of dying with the first bad configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Union

from ..errors import TrialTimeout
from .journal import Journal
from .retry import RetryPolicy
from .timeout import call_with_timeout

if TYPE_CHECKING:
    from ..parallel.spec import TrialSpec
    from ..serve.cache import ResultCache

#: Trial statuses.
OK = "ok"
FAILED = "failed"
TIMEOUT = "timeout"
QUARANTINED = "quarantined"
RESUMED = "resumed"
#: Served from a campaign result cache — same serialised value a fresh
#: execution would have produced, zero trial executions.
CACHED = "cached"

#: Default serialisation of a trial value into the journal: result objects
#: expose ``summary()`` (LeaderElectionResult, AgreementResult,
#: BaselineOutcome, Metrics...); JSON-native values pass through; anything
#: else degrades to ``repr``.
def default_serialize(value: Any) -> Any:
    if hasattr(value, "summary"):
        return value.summary()
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [default_serialize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): default_serialize(v) for k, v in value.items()}
    return repr(value)


@dataclass
class TrialOutcome:
    """Everything observable about one executed (or skipped) trial."""

    key: str
    seed: int
    status: str
    attempts: int = 0
    value: Any = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (OK, RESUMED, CACHED)

    def journal_record(
        self, serialize: Callable[[Any], Any] = default_serialize
    ) -> Dict[str, Any]:
        """JSON-safe form for the checkpoint journal."""
        return {
            "key": self.key,
            "seed": self.seed,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "value": serialize(self.value) if self.ok else None,
        }


class Quarantine:
    """Config keys that failed persistently and are no longer attempted."""

    def __init__(self, threshold: int = 3) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._failures: Dict[str, int] = {}

    def record_failure(self, key: str) -> None:
        """Count one exhausted-retries failure against ``key``."""
        self._failures[key] = self._failures.get(key, 0) + 1

    def record_success(self, key: str) -> None:
        """A success clears the key's strike count."""
        self._failures.pop(key, None)

    def blocks(self, key: str) -> bool:
        """True when ``key`` has reached the quarantine threshold."""
        return self._failures.get(key, 0) >= self.threshold

    def keys(self) -> Dict[str, int]:
        """Current strike counts (diagnostics)."""
        return dict(self._failures)


class ResilientExecutor:
    """Runs trials with timeouts and retries; settles and records them.

    ``cache`` (a :class:`~repro.serve.cache.ResultCache`) answers stored
    trials ``cached`` without running them and stores fresh successes.
    """

    def __init__(
        self,
        timeout_seconds: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        quarantine: Optional[Quarantine] = None,
        journal: Optional[Journal] = None,
        serialize: Callable[[Any], Any] = default_serialize,
        cache: Optional["ResultCache"] = None,
    ) -> None:
        self.timeout_seconds = timeout_seconds
        self.retry = retry or RetryPolicy()
        self.quarantine = quarantine or Quarantine()
        self.journal = journal
        self.serialize = serialize
        self.cache = cache
        #: key -> journalled record, loaded by :meth:`load_completed`.
        self.completed: Dict[str, Dict[str, Any]] = {}
        #: Stats of the last ``run_trials`` call's supervised pool (see
        #: :mod:`repro.parallel.supervisor`); ``None`` when it built none.
        self.last_supervisor_stats: Optional[Any] = None

    # -- resume ----------------------------------------------------------

    def begin(
        self,
        journal: Union[None, str, Path, Journal] = None,
        *,
        resume: bool = False,
        manifest: Optional[Any] = None,
    ) -> Optional[Journal]:
        """Open a campaign's journal; returns it (``None`` when journal-less).

        ``journal`` (a path or :class:`Journal`) is adopted unless the
        executor already has one.  ``resume=True`` loads the completed
        trials for skipping; otherwise a stale journal is cleared so
        leftover records cannot masquerade as progress.  ``manifest`` (a
        :class:`repro.obs.Manifest`) is then appended as a ``{"kind":
        "manifest"}`` record, so each run that touched the journal is
        documented in it.  Every campaign driver starts here.
        """
        if journal is not None and self.journal is None:
            self.journal = journal if isinstance(journal, Journal) else Journal(journal)
        if resume:
            self.load_completed()
        elif self.journal is not None:
            self.journal.clear()
        if manifest is not None and self.journal is not None:
            self.journal.append(manifest.journal_record())
        return self.journal

    def load_completed(self) -> int:
        """Read the journal and index successful records by key.

        Returns the number of resumable trials.  Failed/timeout records
        are *not* indexed — a resumed sweep retries them.  Embedded
        manifest records carry no ``key``/``status`` and are skipped
        naturally.
        """
        self.completed = {}
        if self.journal is None:
            return 0
        for record in self.journal.iter_records():
            if record.get("status") in (OK, RESUMED) and "key" in record:
                self.completed[str(record["key"])] = record
        return len(self.completed)

    # -- execution -------------------------------------------------------

    def settled_outcome(self, spec: "TrialSpec") -> Optional[TrialOutcome]:
        """The outcome of a trial that must not execute, else ``None``.

        Checked in order: a key finished in a previous (killed) run comes
        back ``resumed`` with its journalled value; a ``(task, point,
        seed)`` found in :attr:`cache` comes back ``cached`` with its
        stored value; a quarantined key comes back ``quarantined`` (and
        is journalled).  :func:`repro.parallel.run_trials` asks this in
        the parent for every spec before anything runs.
        """
        key = spec.trial_key
        record = self.completed.get(key)
        if record is not None:
            return TrialOutcome(
                key=key,
                seed=int(record.get("seed", spec.seed)),
                status=RESUMED,
                attempts=int(record.get("attempts", 1)),
                value=record.get("value"),
            )
        if self.cache is not None:
            hit, value = self.cache.get(spec.task, spec.point, spec.seed)
            if hit:
                return TrialOutcome(
                    key=key, seed=spec.seed, status=CACHED, attempts=0, value=value
                )
        if self.quarantine.blocks(key):
            outcome = TrialOutcome(
                key=key, seed=spec.seed, status=QUARANTINED, attempts=0,
                error="config quarantined after repeated failures",
            )
            self._journal(outcome)
            return outcome
        return None

    def record(self, spec: "TrialSpec", outcome: TrialOutcome) -> None:
        """Feed a freshly executed outcome to the quarantine, journal, cache.

        A success is cached under ``outcome.seed``, the seed its value was
        computed with (a retry's derived seed when the base seed failed).
        """
        if outcome.ok:
            self.quarantine.record_success(outcome.key)
        else:
            self.quarantine.record_failure(outcome.key)
        self._journal(outcome)
        if outcome.status == OK and self.cache is not None:
            self.cache.put(
                spec.task, spec.point, outcome.seed, self.serialize(outcome.value)
            )

    def run_trial(
        self,
        task: Callable[..., Any],
        key: str,
        seed: int,
        **kwargs: Any,
    ) -> TrialOutcome:
        """Execute ``task(seed=..., **kwargs)`` under timeout and retry only.

        Settling and recording are the scheduler's (parent-side) job.
        """
        started = time.monotonic()
        last_error: Optional[BaseException] = None
        timed_out = False
        attempts = 0
        for attempt, attempt_seed in enumerate(self.retry.attempt_seeds(seed)):
            if attempt > 0:
                self.retry.sleep(self.retry.delay(attempt))
            attempts = attempt + 1
            try:
                value = call_with_timeout(
                    task, self.timeout_seconds, seed=attempt_seed, **kwargs
                )
            except TrialTimeout as exc:
                last_error, timed_out = exc, True
            except Exception as exc:  # noqa: BLE001 - the whole point
                last_error, timed_out = exc, False
            else:
                return TrialOutcome(
                    key=key,
                    seed=attempt_seed,
                    status=OK,
                    attempts=attempts,
                    value=value,
                    elapsed_seconds=time.monotonic() - started,
                )
        return TrialOutcome(
            key=key,
            seed=seed,
            status=TIMEOUT if timed_out else FAILED,
            attempts=attempts,
            error=f"{type(last_error).__name__}: {last_error}",
            elapsed_seconds=time.monotonic() - started,
        )

    def _journal(self, outcome: TrialOutcome) -> None:
        if self.journal is not None:
            self.journal.append(outcome.journal_record(self.serialize))
