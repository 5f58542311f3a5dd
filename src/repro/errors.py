"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """A parameter combination is outside the model's validity range."""


class CongestViolation(ReproError):
    """A protocol tried to send a message exceeding the CONGEST bit budget."""


class KnowledgeViolation(ReproError):
    """A protocol addressed a node it could not know under KT0 anonymity."""


class SimulationError(ReproError):
    """The engine reached an inconsistent state (a bug, not a protocol fault)."""


class ProtocolViolation(ReproError):
    """A protocol broke an engine contract (e.g. sent after deciding to halt)."""


class BudgetExceeded(ReproError):
    """A hard message/round budget was exhausted (used by lower-bound tooling)."""


class TrialFailed(ReproError):
    """A harness trial raised (or kept raising after retries).

    Wraps the underlying exception; :attr:`attempts` counts how many times
    the trial was tried before giving up.  Campaign drivers also say
    *which* trial failed: :attr:`trial_index` (its index in the campaign)
    and :attr:`spec` (the :class:`~repro.parallel.spec.TrialSpec`, when
    known).
    """

    def __init__(
        self,
        message: str,
        attempts: int = 1,
        trial_index: "int | None" = None,
        spec: "object | None" = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.trial_index = trial_index
        self.spec = spec


class TrialTimeout(TrialFailed):
    """A harness trial exceeded its wall-clock budget."""


class BackendUnavailable(ReproError):
    """A requested engine backend cannot run in this environment.

    Raised when ``backend="vec"`` is requested but numpy is not installed
    (install the ``perf`` extra: ``pip install repro[perf]``).
    """


class VecUnsupported(ReproError):
    """The vectorized backend cannot reproduce this configuration exactly.

    Raised *before any side effects* when a run uses a feature the vec
    engine does not model (adaptive adversaries, delivery delays, traces,
    message budgets, Byzantine faults, or a committee overflow).  Callers
    fall back to the reference engine, so users only see this when they
    request ``backend="vec"`` with ``strict=True`` semantics (tests).
    """


class WireError(ReproError):
    """A real-network trial (:mod:`repro.net`) failed at the system layer.

    Raised by the wire coordinator for transport-level faults the model
    does not contain: a node process that never connected, heartbeat
    silence from an unscripted death, a frame-count mismatch, or a
    sender-side delivery filter diverging from the coordinator's replay.
    The driver converts it into a journalled failed trial — never a hang.
    """


class OracleViolation(ReproError):
    """A fuzzed run broke a protocol-level safety oracle (see repro.chaos)."""


class ScriptError(ReproError):
    """A chaos script (CrashScript JSON) is malformed or unsupported.

    Raised by the loaders with a message naming the offending entry, so a
    hand-edited or future-version script fails with context instead of a
    bare ``KeyError``.
    """


class CampaignInterrupted(ReproError):
    """The parent caught SIGINT/SIGTERM and stopped at a trial boundary.

    The checkpoint journal (when one was configured) is flushed and
    consistent, so the campaign resumes with ``--resume`` from exactly
    the trials that had not completed.  :attr:`signum` is the signal that
    triggered the shutdown (``None`` for programmatic requests).
    """

    def __init__(self, message: str, signum: "int | None" = None) -> None:
        super().__init__(message)
        self.signum = signum
