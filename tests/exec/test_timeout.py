"""Tests for per-trial wall-clock budgets (repro.exec.timeout)."""

import signal
import threading
import time

import pytest

from repro.errors import TrialFailed, TrialTimeout
from repro.exec import call_with_timeout


def _in_worker_thread(fn):
    """Run ``fn`` on a non-main thread, re-raising whatever it raised.

    Exercises the portable thread-based deadline path (signals never
    reach worker threads).
    """
    box = {}

    def _run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # surfaced to the test below
            box["error"] = exc

    worker = threading.Thread(target=_run)
    worker.start()
    worker.join(30.0)
    assert not worker.is_alive(), "worker wedged"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestCallWithTimeout:
    def test_disabled_timeout_passes_through(self):
        assert call_with_timeout(lambda x: x + 1, None, 41) == 42
        assert call_with_timeout(lambda x: x + 1, 0, 41) == 42

    def test_fast_call_completes(self):
        assert call_with_timeout(lambda: "done", 5.0) == "done"

    def test_slow_call_raises_trial_timeout(self):
        def stall():
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                pass  # busy loop: proves the interrupt lands mid-computation

        started = time.monotonic()
        with pytest.raises(TrialTimeout):
            call_with_timeout(stall, 0.05)
        assert time.monotonic() - started < 1.0

    def test_timeout_is_a_trial_failure(self):
        with pytest.raises(TrialFailed):
            call_with_timeout(time.sleep, 0.05, 5.0)

    def test_handler_and_timer_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        call_with_timeout(lambda: None, 5.0)
        assert signal.getsignal(signal.SIGALRM) is before
        with pytest.raises(TrialTimeout):
            call_with_timeout(time.sleep, 0.05, 5.0)
        assert signal.getsignal(signal.SIGALRM) is before
        # No pending alarm may fire after the call returned.
        time.sleep(0.08)

    def test_exceptions_propagate_and_clean_up(self):
        before = signal.getsignal(signal.SIGALRM)
        with pytest.raises(ValueError):
            call_with_timeout(lambda: (_ for _ in ()).throw(ValueError("x")), 5.0)
        assert signal.getsignal(signal.SIGALRM) is before


class TestThreadFallback:
    """Deadlines enforced off the main thread (no SIGALRM available)."""

    def test_fast_call_completes_off_main_thread(self):
        assert _in_worker_thread(lambda: call_with_timeout(lambda: "ok", 5.0)) == "ok"

    def test_slow_call_raises_trial_timeout_off_main_thread(self):
        started = time.monotonic()
        with pytest.raises(TrialTimeout):
            _in_worker_thread(lambda: call_with_timeout(time.sleep, 0.05, 5.0))
        assert time.monotonic() - started < 1.0

    def test_timeout_is_a_trial_failure_off_main_thread(self):
        with pytest.raises(TrialFailed):
            _in_worker_thread(lambda: call_with_timeout(time.sleep, 0.05, 5.0))

    def test_exceptions_propagate_off_main_thread(self):
        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            _in_worker_thread(lambda: call_with_timeout(boom, 5.0))

    def test_signal_state_untouched_off_main_thread(self):
        before = signal.getsignal(signal.SIGALRM)
        with pytest.raises(TrialTimeout):
            _in_worker_thread(lambda: call_with_timeout(time.sleep, 0.05, 5.0))
        assert signal.getsignal(signal.SIGALRM) is before
