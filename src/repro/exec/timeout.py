"""Per-trial wall-clock budgets.

``call_with_timeout`` runs a callable under a hard deadline.  On the main
thread it uses the POSIX interval timer (``SIGALRM``): when the deadline
fires mid-call a :class:`~repro.errors.TrialTimeout` is raised *inside*
the call, which unwinds it cleanly — no threads to orphan, no state to
pickle, and the interrupted simulation is simply garbage.

Signals only reach the main thread, so off the main thread (the wire
driver's coordinator, the serve drainer) or on a platform without
``setitimer`` the call falls back to a portable thread-based deadline: the
callable runs in a daemon worker thread and the caller joins it with a
timeout.  On expiry the *caller* gets the same :class:`TrialTimeout`; the
worker thread is abandoned (Python cannot kill a thread), which is
acceptable for the pure-compute trials this guards — the abandoned thread
holds no locks the caller needs and exits with the process.  The SIGALRM
path is preferred exactly because it has no such zombie.
"""

from __future__ import annotations

import signal
import threading
from typing import Any, Callable, List, Optional, TypeVar

from ..errors import TrialTimeout

T = TypeVar("T")


def _signal_timeouts_usable() -> bool:
    """True when the zero-thread SIGALRM path can be used right now."""
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


def _call_with_signal_deadline(
    fn: Callable[..., T],
    timeout_seconds: float,
    args: Any,
    kwargs: Any,
) -> T:
    """Main-thread path: SIGALRM raises TrialTimeout inside the call."""

    def _expired(signum: int, frame: Any) -> None:
        raise TrialTimeout(
            f"trial exceeded its {timeout_seconds}s wall-clock budget"
        )

    previous_handler = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, timeout_seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)


def _call_with_thread_deadline(
    fn: Callable[..., T],
    timeout_seconds: float,
    args: Any,
    kwargs: Any,
) -> T:
    """Portable path: run ``fn`` in a daemon worker, join with a timeout.

    The worker re-raises nothing itself; it parks the outcome and the
    caller re-raises or returns it, so exceptions propagate with their
    original traceback chained.
    """
    outcome: List[Any] = []
    failure: List[BaseException] = []

    def _run() -> None:
        try:
            outcome.append(fn(*args, **kwargs))
        # repro: lint-ignore[EXC001] parked for the joining caller, which re-raises it
        except BaseException as exc:
            failure.append(exc)

    worker = threading.Thread(
        target=_run, name="repro-trial-deadline", daemon=True
    )
    worker.start()
    worker.join(timeout_seconds)
    if worker.is_alive():
        raise TrialTimeout(
            f"trial exceeded its {timeout_seconds}s wall-clock budget "
            "(worker thread abandoned)"
        )
    if failure:
        raise failure[0]
    return outcome[0]


def call_with_timeout(
    fn: Callable[..., T],
    timeout_seconds: Optional[float],
    *args: Any,
    **kwargs: Any,
) -> T:
    """Run ``fn(*args, **kwargs)``, raising :class:`TrialTimeout` on expiry.

    ``timeout_seconds`` of ``None`` or ``0`` disables the deadline.  On
    the main thread the deadline is a SIGALRM interval timer (byte-
    identical to the historical behaviour); elsewhere it is a joined
    daemon worker thread (see module docstring for the trade-off).
    """
    if not timeout_seconds:
        return fn(*args, **kwargs)
    if _signal_timeouts_usable():
        return _call_with_signal_deadline(fn, timeout_seconds, args, kwargs)
    return _call_with_thread_deadline(fn, timeout_seconds, args, kwargs)
