"""Picklable trial specifications and task references.

A :class:`TrialSpec` names one Monte-Carlo trial: *which* task to run
(either a picklable callable or a ``"module:qualname"`` string
reference), the trial's derived seed, the grid-point keyword arguments,
and the trial's global ``index`` — the position its result must occupy in
the reassembled output, which is what makes a parallel campaign
order-identical to a serial one.

String task references exist for two reasons: they survive pickling even
when the callable itself would not (decorated functions, CLI-configured
partials), and they let each worker process resolve the task *once* and
reuse it for every trial it executes (warm reuse).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

from ..errors import ConfigurationError

#: A task is a callable ``task(seed=..., **point)`` or a string reference.
TaskRef = Union[str, Callable[..., Any]]

#: Per-process cache of resolved string task references (warm reuse: a
#: pool worker resolves each distinct task once, then serves every chunk
#: from the cache).
_RESOLVED: Dict[str, Callable[..., Any]] = {}


def task_ref(task: Callable[..., Any]) -> str:
    """The ``"module:qualname"`` reference of a module-level callable.

    Raises :class:`~repro.errors.ConfigurationError` for callables that
    cannot be named (lambdas, closures, instance methods) — those must be
    shipped as picklable objects instead.
    """
    name = getattr(task, "__qualname__", None)
    module = getattr(task, "__module__", None)
    if not name or not module or "<" in name or "." in name:
        raise ConfigurationError(
            f"task {task!r} is not a module-level function; pass the "
            "callable itself (it must then be picklable)"
        )
    return f"{module}:{name}"


def canonical_task_ref(task: TaskRef) -> str:
    """The stable ``"module:qualname"`` string form of any task.

    String references pass through unchanged; callables are named via
    :func:`task_ref`.  This is the task half of the campaign service's
    cache key, so it must be identical however the task was supplied.
    """
    if isinstance(task, str):
        if ":" not in task:
            raise ConfigurationError(
                f"task reference must be 'module:qualname', got {task!r}"
            )
        return task
    return task_ref(task)


def resolve_task(task: TaskRef) -> Callable[..., Any]:
    """Materialise a task: callables pass through, strings are imported.

    Resolution of string references is cached per process.
    """
    if callable(task):
        return task
    if not isinstance(task, str) or ":" not in task:
        raise ConfigurationError(
            f"task reference must be callable or 'module:qualname', got {task!r}"
        )
    cached = _RESOLVED.get(task)
    if cached is not None:
        return cached
    module_name, _, qualname = task.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(f"cannot import task module {module_name!r}: {exc}")
    obj: Any = module
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise ConfigurationError(
                f"module {module_name!r} has no attribute path {qualname!r}"
            ) from None
    if not callable(obj):
        raise ConfigurationError(f"task reference {task!r} is not callable")
    _RESOLVED[task] = obj
    return obj


@dataclass(frozen=True)
class TrialSpec:
    """One schedulable trial of a Monte-Carlo campaign.

    ``index`` is the trial's position in the *serial* execution order;
    the scheduler reassembles results by it, so output ordering never
    depends on worker timing.  ``key`` is the resilience-layer journal
    key (``None`` outside resilient campaigns).
    """

    index: int
    task: TaskRef
    seed: int
    point: Dict[str, Any] = field(default_factory=dict)
    key: Optional[str] = None
    #: Engine backend forwarded to the task (``None`` = task default).
    #: A separate field rather than a ``point`` entry so grid points stay
    #: pure parameters (journal keys, sweep rows) while the backend —
    #: which never changes results — rides alongside.
    backend: Optional[str] = None

    @property
    def trial_key(self) -> str:
        """The journal key, or ``trial[index]`` for keyless specs."""
        return self.key or f"trial[{self.index}]"

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The task's keyword arguments: the grid point plus the backend."""
        kwargs = dict(self.point)
        if self.backend is not None:
            kwargs["backend"] = self.backend
        return kwargs

    def run(self) -> Any:
        """Execute the trial in this process, letting its exception escape."""
        return resolve_task(self.task)(seed=self.seed, **self.kwargs)
