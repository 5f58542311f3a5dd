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
    seed: int, experiment: Experiment, quick: bool
) -> ExperimentReport:
    """Trial task of one experiment (picklable for every module-level runner).

    ``seed`` is accepted for the executor interface and ignored —
    experiments seed themselves internally.
    """
    return experiment.run(quick=quick)


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
    on_report: Optional[Callable[[ExperimentReport], None]] = None,
) -> Tuple[List[ExperimentReport], Dict[str, int]]:
    """Run a batch of experiments under the resilient executor.

    Each experiment is one trial (journal key = experiment id, journalled
    value = ``report.to_dict()``).  A failing or timing-out experiment
    degrades to a synthetic failing report instead of aborting the batch;
    with ``resume=True`` experiments already journalled as complete are
    reconstructed via :meth:`ExperimentReport.from_dict` without re-running.

    ``jobs`` > 1 fans the batch out over a process pool (the
    :class:`Experiment` itself rides in the trial spec, so its runner
    must be picklable — every registered one is), running each under the
    same timeout/retry net while the parent keeps sole ownership of the
    journal and resume state.  Reports come back in the order given, and
    ``on_report(report)`` sees each one as soon as it and every report
    before it are done.

    ``progress=True`` emits a stderr heartbeat; ``manifest`` (a
    :class:`repro.obs.Manifest`) is embedded in the journal so the
    campaign file is self-describing for ``repro report``.  ``shutdown``
    (a :class:`~repro.parallel.GracefulShutdown`) stops the batch at the
    next experiment boundary on SIGINT/SIGTERM (resumable when there is
    a journal).

    Returns ``(reports, counts)`` with counts as
    :func:`repro.parallel.campaign_counts` builds them.
    """
    from ..exec import ResilientExecutor, RetryPolicy
    from ..parallel import TrialSpec, campaign_counts, in_order, run_trials

    executor = ResilientExecutor(
        timeout_seconds=timeout_seconds,
        retry=RetryPolicy(retries=retries),
        serialize=ExperimentReport.to_dict,
    )
    executor.begin(journal_path, resume=resume, manifest=manifest)
    specs = [
        TrialSpec(
            index=index,
            task=_experiment_task,
            seed=0,
            point={"experiment": experiment, "quick": quick},
            key=experiment.experiment_id,
        )
        for index, experiment in enumerate(experiments)
    ]
    reports: List[ExperimentReport] = []

    def land(spec: TrialSpec, outcome: Any) -> None:
        if not outcome.ok:
            report = _failure_report(spec.point["experiment"], outcome)
        elif isinstance(outcome.value, ExperimentReport):
            report = outcome.value
        else:
            report = ExperimentReport.from_dict(outcome.value)
        reports.append(report)
        if on_report is not None:
            on_report(report)

    outcomes = run_trials(
        specs,
        jobs,
        executor=executor,
        progress=progress,
        shutdown=shutdown,
        on_outcome=in_order(specs, land),
    )
    completed = sum(1 for outcome in outcomes if outcome.ok)
    return reports, campaign_counts(
        len(outcomes),
        completed,
        len(outcomes) - completed,
        executor.last_supervisor_stats,
    )
