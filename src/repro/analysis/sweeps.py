"""Monte-Carlo and parameter-sweep drivers.

``monte_carlo`` repeats one configuration over derived trial seeds;
``sweep`` crosses a parameter grid, running a Monte-Carlo at each point.
Both return plain lists of results so callers can aggregate freely, and
both raise :class:`~repro.errors.TrialFailed` for the first (lowest
index) trial that failed.

``resilient_sweep`` is the grid driver underneath them: each trial runs
under a :class:`~repro.exec.ResilientExecutor` (timeout, retry,
quarantine, journal), failed trials degrade to annotated partial results
instead of aborting the grid, and a journalled sweep can be killed and
resumed.  All three derive their trials as :func:`enumerate_sweep_specs`
does and run them through :func:`repro.parallel.run_trials`, the one
trial scheduler.

All three drivers accept ``jobs=``: ``jobs=1`` (the default) runs every
trial in this process, ``jobs=N`` fans trials out over a process pool
(:mod:`repro.parallel`), and ``jobs=0`` auto-detects the core count.
Seed derivation is identical in every mode, and parallel results are
reassembled in serial order, so ``jobs`` never changes the output —
only the wall clock.

They also thread the observability layer (:mod:`repro.obs`):
``progress=True`` turns on a stderr heartbeat, ``timers=`` profiles the
pool's dispatch/reassembly, and ``resilient_sweep(manifest=...)`` embeds
a provenance manifest in the checkpoint journal.  None of these affect
results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import TrialFailed
from ..obs.progress import ProgressReporter, ProgressSpec, ensure_progress
from ..obs.provenance import Manifest
from ..obs.timing import PhaseTimers
from ..rng import seed_sequence

#: A task maps (seed, **point) to an arbitrary result object.
Task = Callable[..., Any]

#: One ``sweep`` row: the grid point and its trial results.
Row = Tuple[Dict[str, Any], List[Any]]


def monte_carlo(
    task: Task,
    trials: int,
    master_seed: int = 0,
    jobs: int = 1,
    progress: ProgressSpec = False,
    timers: Optional[PhaseTimers] = None,
    backend: Optional[str] = None,
    **point: Any,
) -> List[Any]:
    """Run ``task(seed=..., **point)`` for ``trials`` derived seeds.

    The one-point case of :func:`sweep`: the seeds are sweep point 0's.
    ``jobs`` > 1 dispatches the trials to a process pool; the returned
    list is identical to the serial one (same derived seeds, same order).
    ``progress=True`` emits a stderr heartbeat; ``timers`` profiles the
    pool's dispatch/reassembly phases (parallel mode only).  ``backend``
    (e.g. ``"vec"``) is forwarded to every trial; backends never change
    results, so it rides outside the grid point.
    """
    [(_, results)] = _checked_rows(
        task, [point], trials, master_seed, jobs, progress, timers, backend,
        label="monte-carlo",
    )
    return results


def sweep(
    task: Task,
    grid: Mapping[str, Sequence[Any]],
    trials: int = 1,
    master_seed: int = 0,
    jobs: int = 1,
    progress: ProgressSpec = False,
    timers: Optional[PhaseTimers] = None,
    backend: Optional[str] = None,
) -> List[Row]:
    """Cross the ``grid`` and Monte-Carlo each point.

    Returns ``[(point_dict, [result, ...]), ...]`` in grid order.  Each
    grid point gets its own deterministic seed stream, so adding points
    does not reshuffle the others.

    ``jobs`` > 1 flattens the whole grid × trials campaign into one
    trial list and dispatches it to a process pool, so workers stay busy
    across point boundaries; the rows come back in exact grid order.
    ``progress``/``timers`` as in :func:`monte_carlo`, covering the
    whole grid with one heartbeat.
    """
    return _checked_rows(
        task, grid_points(grid), trials, master_seed, jobs, progress, timers, backend,
        label="sweep",
    )


def _checked_rows(
    task: Task,
    points: List[Dict[str, Any]],
    trials: int,
    master_seed: int,
    jobs: int,
    progress: ProgressSpec,
    timers: Optional[PhaseTimers],
    backend: Optional[str],
    label: str,
) -> List[Row]:
    """:func:`_run_points`, then the rows or a raise for a failed trial.

    The error is the same for every ``jobs``: the lowest-index failed
    trial's :class:`~repro.errors.TrialFailed`, carrying its index, its
    spec, and the ``"Type: message"`` text of the exception it raised.
    That trial is re-run once in this process, so the exception itself
    (with its traceback) rides along as ``__cause__``.  ``label`` names
    the heartbeat.
    """
    from ..exec import ResilientExecutor

    result = _run_points(
        task, points, trials, master_seed, jobs, ResilientExecutor(),
        progress, timers, None, backend, label, None,
    )
    if result.complete:
        return result.rows()
    failure = result.failures[0]
    spec = next(
        spec
        for spec in _point_specs(task, points, trials, master_seed, backend)
        if spec.trial_key == failure.key
    )
    error = TrialFailed(
        f"trial {failure.key} failed: {failure.error}",
        attempts=failure.attempts,
        trial_index=spec.index,
        spec=spec,
    )
    try:
        spec.run()
    except Exception as exc:
        raise error from exc
    raise error


@dataclass
class SweepPoint:
    """One grid point of a resilient sweep, with per-trial bookkeeping."""

    point: Dict[str, Any]
    results: List[Any] = field(default_factory=list)
    attempted: int = 0
    completed: int = 0
    failed: int = 0

    def as_row(self) -> Dict[str, Any]:
        """The point's parameters plus its attempt accounting."""
        row = dict(self.point)
        row.update(
            attempted=self.attempted, completed=self.completed, failed=self.failed
        )
        return row


@dataclass
class ResilientSweepResult:
    """A grid sweep that survives (and accounts for) failing trials."""

    points: List[SweepPoint] = field(default_factory=list)
    #: Outcomes of trials that did not produce a result.
    failures: List[Any] = field(default_factory=list)
    #: :class:`~repro.parallel.supervisor.SupervisorStats` of the parallel
    #: run (``None`` for serial sweeps or when nothing was supervised).
    supervisor: Optional[Any] = None

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.points)

    @property
    def completed(self) -> int:
        return sum(p.completed for p in self.points)

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.points)

    @property
    def complete(self) -> bool:
        """True when every attempted trial produced a result."""
        return self.failed == 0

    def rows(self) -> List[Row]:
        """The classic ``sweep`` shape (point dict, result list)."""
        return [(p.point, p.results) for p in self.points]

    def counts(self) -> Dict[str, int]:
        """Headline accounting (see :func:`repro.parallel.campaign_counts`)."""
        from ..parallel import campaign_counts

        return campaign_counts(
            self.attempted, self.completed, self.failed, self.supervisor
        )


def _trial_key(combo_index: int, point: Mapping[str, Any], trial: int) -> str:
    """Stable journal key: grid position + parameters + trial index."""
    described = ",".join(f"{k}={point[k]!r}" for k in sorted(point))
    return f"point[{combo_index}]({described})#trial{trial}"


def grid_points(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cross a parameter grid into its ordered list of point dicts.

    Axis order follows the mapping's insertion order, exactly as
    :func:`sweep` has always crossed it — this is the single definition
    every driver (and the campaign service) shares, so grid order can
    never drift between them.
    """
    if not grid:
        raise ValueError("grid must contain at least one axis")
    names = list(grid)
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(grid[k] for k in names))
    ]


def enumerate_sweep_specs(
    task: Any,
    grid: Mapping[str, Sequence[Any]],
    trials: int,
    master_seed: int = 0,
    backend: Optional[str] = None,
) -> List[Any]:
    """The full ``grid`` × ``trials`` campaign as ordered trial specs.

    This is the sweep's seed-derivation contract in one place: point
    ``i`` seeds its trial stream from ``master_seed + i * 1_000_003``,
    and every spec carries the :func:`_trial_key` journal key.  Serial,
    parallel, resilient, and served campaigns all enumerate through
    here, which is what makes a cache entry computed by one mode valid
    for every other.
    """
    return _point_specs(task, grid_points(grid), trials, master_seed, backend)


def _point_specs(
    task: Any,
    points: List[Dict[str, Any]],
    trials: int,
    master_seed: int,
    backend: Optional[str],
) -> List[Any]:
    """:func:`enumerate_sweep_specs` over already-crossed points."""
    from ..parallel import TrialSpec

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    specs: List[TrialSpec] = []
    for combo_index, point in enumerate(points):
        point_seed = master_seed + combo_index * 1_000_003
        for trial, seed in enumerate(seed_sequence(point_seed, trials)):
            specs.append(
                TrialSpec(
                    index=len(specs),
                    task=task,
                    seed=seed,
                    point=point,
                    key=_trial_key(combo_index, point, trial),
                    backend=backend,
                )
            )
    return specs


def _fold(
    points: List[Dict[str, Any]],
    trials: int,
    outcomes: List[Any],
    supervisor: Optional[Any] = None,
) -> "ResilientSweepResult":
    """Group spec-ordered trial outcomes into per-point accounting."""
    result = ResilientSweepResult(supervisor=supervisor)
    for combo_index, point in enumerate(points):
        sweep_point = SweepPoint(point=point)
        for outcome in outcomes[combo_index * trials : (combo_index + 1) * trials]:
            sweep_point.attempted += 1
            if outcome.ok:
                sweep_point.completed += 1
                sweep_point.results.append(outcome.value)
            else:
                sweep_point.failed += 1
                result.failures.append(outcome)
        result.points.append(sweep_point)
    return result


def resilient_sweep(
    task: Task,
    grid: Mapping[str, Sequence[Any]],
    trials: int = 1,
    master_seed: int = 0,
    *,
    executor: Optional["ResilientExecutor"] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    timeout_seconds: Optional[float] = None,
    retries: int = 0,
    jobs: int = 1,
    progress: ProgressSpec = False,
    manifest: Optional[Manifest] = None,
    shutdown: Optional[Any] = None,
    backend: Optional[str] = None,
    timers: Optional[PhaseTimers] = None,
    on_outcome: Optional[Callable[[Any, Any], None]] = None,
) -> ResilientSweepResult:
    """Cross ``grid`` like :func:`sweep`, but never die on a bad trial.

    Each trial runs under a :class:`~repro.exec.ResilientExecutor`; a
    trial that fails (or times out) after its retries is recorded in the
    result's ``failures`` and the sweep continues, so callers get partial
    rows with exact ``attempted/completed/failed`` counts.  With
    ``journal_path`` set, every outcome is checkpointed; ``resume=True``
    reloads the journal and skips trials that already completed — their
    journalled (serialised) values are returned in place of live results.

    Seed derivation matches :func:`sweep` exactly (which is this
    driver plus a raise on the first failure), so a resumed or
    retry-free resilient sweep is trial-for-trial identical to the plain
    one.

    ``jobs`` > 1 runs the timeout/retry net inside pool workers while
    the parent keeps sole ownership of resume, quarantine, and the
    journal file; outcomes are accounted in serial order.

    ``progress=True`` emits a stderr heartbeat (with retry/quarantine
    counts); ``timers`` profiles the pool's dispatch/reassembly.
    ``manifest`` (a :class:`~repro.obs.Manifest`) is embedded
    in the journal as a ``{"kind": "manifest"}`` record, so the journal
    file alone is enough for ``repro report``; on resume the new
    invocation's manifest is appended too, documenting every run that
    touched the journal.

    ``shutdown`` (a :class:`~repro.parallel.GracefulShutdown`) lets
    SIGINT/SIGTERM stop the campaign at the next trial boundary:
    :class:`~repro.errors.CampaignInterrupted` propagates with the
    journal flushed, so the same invocation with ``resume=True``
    continues from exactly where it stopped.  The parallel path runs
    under a :class:`~repro.parallel.PoolSupervisor` (worker kills, hung
    pools, and missed deadlines rebuild the pool and redispatch in-flight
    chunks); its counters land on the result's ``supervisor`` field.

    ``executor`` replaces the one built from ``timeout_seconds`` and
    ``retries`` (``repro serve`` passes one with a result ``cache``);
    ``on_outcome`` is :func:`repro.parallel.run_trials`' per-trial hook.
    """
    from ..exec import ResilientExecutor, RetryPolicy

    points = grid_points(grid)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if executor is None:
        executor = ResilientExecutor(
            timeout_seconds=timeout_seconds,
            retry=RetryPolicy(retries=retries),
        )
    executor.begin(journal_path, resume=resume, manifest=manifest)
    return _run_points(
        task, points, trials, master_seed, jobs, executor, progress, timers,
        shutdown, backend, "sweep", on_outcome,
    )


def _run_points(
    task: Task,
    points: List[Dict[str, Any]],
    trials: int,
    master_seed: int,
    jobs: int,
    executor: "ResilientExecutor",
    progress: ProgressSpec,
    timers: Optional[PhaseTimers],
    shutdown: Optional[Any],
    backend: Optional[str],
    label: str,
    on_outcome: Optional[Callable[[Any, Any], None]],
) -> ResilientSweepResult:
    """The one grid driver: ``points`` × ``trials`` through the scheduler.

    Enumerates the specs as :func:`enumerate_sweep_specs` does, runs them
    with :func:`repro.parallel.run_trials` under ``executor``, and folds
    the outcomes into per-point accounting.  :func:`resilient_sweep`,
    :func:`sweep`, and :func:`monte_carlo` (whose single point may be
    empty) all run here; ``label`` names their heartbeat.
    """
    from ..parallel import run_trials

    specs = _point_specs(task, points, trials, master_seed, backend)
    owns_reporter = not isinstance(progress, ProgressReporter)
    reporter = ensure_progress(progress, total=len(specs), label=label)
    outcomes = run_trials(
        specs, jobs, executor=executor, progress=reporter, timers=timers,
        shutdown=shutdown, on_outcome=on_outcome,
    )
    if owns_reporter:
        reporter.finish()
    return _fold(points, trials, outcomes, executor.last_supervisor_stats)


def collect(
    rows: Iterable[Row],
    reducer: Callable[[List[Any]], Any],
) -> List[Dict[str, Any]]:
    """Reduce each sweep point's results into one flat record."""
    flattened = []
    for point, results in rows:
        record = dict(point)
        reduced = reducer(results)
        if isinstance(reduced, dict):
            record.update(reduced)
        else:
            record["value"] = reduced
        flattened.append(record)
    return flattened
