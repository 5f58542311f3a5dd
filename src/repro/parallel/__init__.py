"""Process-pool trial scheduling for Monte-Carlo campaigns.

Shared-nothing parallelism with a hard determinism contract: the output
of ``jobs=N`` is exactly the output of ``jobs=1`` for the same master
seed — same derived seed streams, results reassembled by trial index.
"""

from .pool import (
    OutcomeHook,
    default_chunk_size,
    in_order,
    resolve_jobs,
    run_trials,
)
from .spec import TrialSpec, canonical_task_ref, resolve_task, task_ref
from .supervisor import (
    GracefulShutdown,
    PoolSupervisor,
    SupervisorStats,
    campaign_counts,
    chunk_deadline_seconds,
    is_supervisor_record,
)
from .tasks import agreement_trial, ben_or_trial, election_trial

__all__ = [
    "GracefulShutdown",
    "OutcomeHook",
    "PoolSupervisor",
    "SupervisorStats",
    "TrialSpec",
    "agreement_trial",
    "ben_or_trial",
    "campaign_counts",
    "canonical_task_ref",
    "chunk_deadline_seconds",
    "default_chunk_size",
    "election_trial",
    "in_order",
    "is_supervisor_record",
    "resolve_jobs",
    "resolve_task",
    "run_trials",
    "task_ref",
]
