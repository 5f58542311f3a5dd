"""Experiment harness primitives.

An :class:`Experiment` bundles an id, the paper artifact it reproduces,
and a ``run(quick)`` callable returning an :class:`ExperimentReport` —
rows (the measured table) plus shape checks (pass/fail with detail).

:func:`run_experiments_resilient` executes a batch of experiments under
the fault-tolerant executor (:mod:`repro.exec`): per-experiment timeout,
retry, a checkpoint journal, and ``resume`` support — a killed ``repro
run all`` picks up where it stopped instead of starting over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.tables import format_table


@dataclass(frozen=True)
class Check:
    """One shape check of an experiment."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f" — {self.detail}" if self.detail else "")


@dataclass
class ExperimentReport:
    """Everything an experiment produces."""

    experiment_id: str
    title: str
    paper_claim: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    columns: Optional[Sequence[str]] = None

    @property
    def passed(self) -> bool:
        """True iff every check passed."""
        return all(check.passed for check in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form (used by ``repro run --json``)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "passed": self.passed,
            "rows": self.rows,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentReport":
        """Rebuild a report from :meth:`to_dict` output (journal resume)."""
        return cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data.get("title", "")),
            paper_claim=str(data.get("paper_claim", "")),
            rows=[dict(row) for row in data.get("rows", [])],
            checks=[
                Check(
                    name=str(c["name"]),
                    passed=bool(c["passed"]),
                    detail=str(c.get("detail", "")),
                )
                for c in data.get("checks", [])
            ],
            notes=[str(note) for note in data.get("notes", [])],
        )

    def render(self) -> str:
        """Human-readable report (table + checks + notes)."""
        parts = [
            f"{self.experiment_id}: {self.title}",
            f"paper claim: {self.paper_claim}",
            "",
            format_table(self.rows, columns=self.columns),
            "",
        ]
        parts.extend(str(check) for check in self.checks)
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    runner: Callable[[bool], ExperimentReport]

    def run(self, quick: bool = False) -> ExperimentReport:
        """Execute the experiment (``quick`` shrinks sizes/trials)."""
        return self.runner(quick)


def _failure_report(experiment: "Experiment", outcome: Any) -> ExperimentReport:
    """Stand-in report for an experiment whose trial never completed."""
    return ExperimentReport(
        experiment_id=experiment.experiment_id,
        title=experiment.title,
        paper_claim=experiment.paper_claim,
        checks=[
            Check(
                name="experiment completed",
                passed=False,
                detail=(
                    f"status={outcome.status} after {outcome.attempts} attempt(s):"
                    f" {outcome.error}"
                ),
            )
        ],
        notes=["experiment did not complete; partial campaign result"],
    )


def _experiment_task(
    seed: int = 0, experiment_id: str = "", quick: bool = False
) -> ExperimentReport:
    """Picklable trial task: run one registered experiment by id.

    Experiments are looked up *inside* the worker process (an
    ``Experiment`` carries an arbitrary runner callable, which may not
    pickle; its id always does).  ``seed`` is accepted for the executor
    interface and ignored — experiments seed themselves internally.
    """
    from .registry import get_experiment

    return get_experiment(experiment_id).run(quick=quick)


def run_experiments_resilient(
    experiments: Sequence["Experiment"],
    quick: bool = False,
    *,
    journal_path: Optional[str] = None,
    resume: bool = False,
    timeout_seconds: Optional[float] = None,
    retries: int = 0,
    jobs: int = 1,
    progress: Any = False,
    manifest: Optional[Any] = None,
    shutdown: Optional[Any] = None,
) -> Tuple[List[ExperimentReport], Dict[str, int]]:
    """Run a batch of experiments under the resilient executor.

    Each experiment is one trial (journal key = experiment id, journalled
    value = ``report.to_dict()``).  A failing or timing-out experiment
    degrades to a synthetic failing report instead of aborting the batch;
    with ``resume=True`` experiments already journalled as complete are
    reconstructed via :meth:`ExperimentReport.from_dict` without re-running.

    ``jobs`` > 1 fans the batch out over a process pool: workers look the
    experiments up by id from the registry, run them under the same
    timeout/retry net, and the parent keeps sole ownership of the journal
    and resume state.  Reports come back in the order given.

    ``progress=True`` emits a stderr heartbeat; ``manifest`` (a
    :class:`repro.obs.Manifest`) is embedded in the journal so the
    campaign file is self-describing for ``repro report``.  ``shutdown``
    (a :class:`~repro.parallel.GracefulShutdown`) stops the batch at the
    next experiment boundary on SIGINT/SIGTERM, leaving a resumable
    journal.

    Returns ``(reports, counts)`` with counts keyed
    ``attempted/completed/failed`` — plus the parallel supervisor's
    counters (``pool_rebuilds``, ``worker_deaths``, ...) whenever it had
    to intervene.
    """
    from ..exec import Journal, ResilientExecutor, RetryPolicy
    from ..parallel import TrialSpec, resolve_jobs, run_trials

    executor = ResilientExecutor(
        timeout_seconds=timeout_seconds,
        retry=RetryPolicy(retries=retries),
        serialize=lambda report: report.to_dict()
        if isinstance(report, ExperimentReport)
        else report,
    )
    if journal_path is not None:
        executor.journal = Journal(journal_path)
    if resume:
        executor.load_completed()
    elif executor.journal is not None:
        executor.journal.clear()
    if manifest is not None:
        executor.write_manifest(manifest)

    # Workers must look experiments up by id (runner callables may not
    # pickle); serially the experiment object runs directly, which also
    # covers ad-hoc experiments that are not in the registry.
    if resolve_jobs(jobs) > 1:
        specs = [
            TrialSpec(
                index=index,
                task=_experiment_task,
                seed=0,
                point={"experiment_id": experiment.experiment_id, "quick": quick},
                key=experiment.experiment_id,
            )
            for index, experiment in enumerate(experiments)
        ]
    else:
        specs = [
            TrialSpec(
                index=index,
                # repro: lint-ignore[PAR001] serial path only (jobs==1 above):
                # this lambda never crosses a process boundary
                task=lambda seed, exp=experiment, **_: exp.run(quick=quick),
                seed=0,
                key=experiment.experiment_id,
            )
            for index, experiment in enumerate(experiments)
        ]
    outcomes = run_trials(
        specs, jobs=jobs, executor=executor, progress=progress, shutdown=shutdown
    )

    reports: List[ExperimentReport] = []
    counts = {"attempted": 0, "completed": 0, "failed": 0}
    for experiment, outcome in zip(experiments, outcomes):
        counts["attempted"] += 1
        if outcome.ok:
            counts["completed"] += 1
            value = outcome.value
            if isinstance(value, ExperimentReport):
                reports.append(value)
            else:
                reports.append(ExperimentReport.from_dict(value))
        else:
            counts["failed"] += 1
            reports.append(_failure_report(experiment, outcome))
    stats = executor.last_supervisor_stats
    if stats is not None and stats.eventful:
        counts.update(
            {
                key: value
                for key, value in stats.as_dict().items()
                if isinstance(value, int) and value
            }
        )
    return reports, counts
