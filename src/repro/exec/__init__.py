"""Fault-tolerant trial execution for the experiment layer.

The paper's protocols tolerate crashing *nodes*; this subpackage makes
the harness tolerate crashing *trials*: per-trial wall-clock timeouts,
retry with derived seeds and capped exponential backoff, quarantine of
persistently failing configurations, and a JSONL checkpoint journal that
lets a killed sweep resume without re-running finished trials.

Entry points: :class:`ResilientExecutor` (one guarded trial; its
:meth:`~ResilientExecutor.begin` opens every campaign's journal),
:func:`repro.analysis.sweeps.resilient_sweep` (guarded grids), and the
``repro run|sweep --resume/--trial-timeout/--retries`` CLI flags.
"""

from .executor import (
    CACHED,
    FAILED,
    OK,
    QUARANTINED,
    RESUMED,
    TIMEOUT,
    Quarantine,
    ResilientExecutor,
    TrialOutcome,
    default_serialize,
)
from .journal import FsckReport, Journal, fsck_journal, seal_record
from .retry import RetryPolicy
from .timeout import call_with_timeout

__all__ = [
    "CACHED",
    "FAILED",
    "FsckReport",
    "OK",
    "QUARANTINED",
    "RESUMED",
    "TIMEOUT",
    "Journal",
    "Quarantine",
    "ResilientExecutor",
    "RetryPolicy",
    "TrialOutcome",
    "call_with_timeout",
    "default_serialize",
    "fsck_journal",
    "seal_record",
]
