"""Trial drivers: real node processes over TCP, and an in-process twin.

:func:`run_wire_trial` is the headline entry point.  It binds the
coordinator's listening socket, spawns one ``python -m repro.net.node``
process per model node (stderr redirected into a per-node journal file),
runs the :class:`~repro.net.rounds.WireCoordinator` under the spec's
overall ``trial_timeout``, and **always** tears the fleet down — a wire
trial ends in a result or a journalled failure, never a hang or an
orphaned process.  The result carries the same :class:`Metrics` object
and canonical outcome dict the sim runners produce, which is what the
parity oracle diffs.

:func:`run_loopback_trial` is the transport-free twin: the same
:class:`~repro.sim.adapter.NodeRuntime` per node and the same
:class:`~repro.net.rounds.RoundAccountant`, with message passing done by
plain dict shuffling in one process.  It exercises every accounting and
canonicalisation path of the wire backend at sim speed, so the tier-1
test suite can sweep the full parity grid without paying for sockets and
process spawns; the socket tests then only need to cover the transport
itself.

Journal layout (``journal_dir``)::

    node-<u>.log        per-node stderr (tracebacks, interpreter noise)
    coordinator.jsonl   one JSON object per control-plane event
    result.json         the trial verdict, metrics, and outcome
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Tuple

from ..errors import WireError
from ..sim.message import Delivery
from ..sim.metrics import Metrics
from .faults import WireFaultPlan, kill_node
from .rounds import RoundAccountant, WireCoordinator
from .spec import WireSpec, metrics_dict, snapshot_outputs, wire_outcome


@dataclass
class WireTrialResult:
    """Outcome of one wire (or loopback) trial.

    ``ok`` is the *system* verdict — the trial ran to completion and all
    cross-checks held.  The *protocol* verdict lives in
    ``outcome["success"]``, same as in the sim: a scripted run where the
    protocol loses is still a successful trial.
    """

    ok: bool
    reason: str
    spec: WireSpec
    backend: str
    metrics: Optional[Metrics] = None
    outcome: Optional[Dict[str, object]] = None
    crashed: Dict[int, int] = field(default_factory=dict)
    rounds: int = 0
    horizon: int = 0
    journal_dir: Optional[str] = None
    frames: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def metrics_dict(self) -> Optional[Dict[str, object]]:
        return metrics_dict(self.metrics) if self.metrics is not None else None

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "backend": self.backend,
            "spec": self.spec.to_dict(),
            "metrics": self.metrics_dict(),
            "outcome": self.outcome,
            "crashed": dict(self.crashed),
            "rounds": self.rounds,
            "horizon": self.horizon,
            "journal_dir": self.journal_dir,
            "frames": {str(u): f for u, f in sorted(self.frames.items())},
        }


def _source_root() -> Path:
    """The directory to put on the node processes' ``PYTHONPATH``."""
    import repro

    return Path(repro.__file__).resolve().parents[1]


def _spawn_node(
    node_id: int,
    spec_json: str,
    coord: str,
    journal_dir: Path,
) -> "Tuple[subprocess.Popen[bytes], IO[bytes]]":
    log = open(journal_dir / f"node-{node_id}.log", "wb")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_source_root()) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.net.node",
            "--node-id",
            str(node_id),
            "--coord",
            coord,
            "--spec",
            spec_json,
        ],
        stdout=log,
        stderr=subprocess.STDOUT,
        env=env,
    )
    return proc, log


def run_wire_trial(
    spec: WireSpec,
    *,
    journal_dir: Optional[str] = None,
    kill_after: Optional[Tuple[int, int]] = None,
) -> WireTrialResult:
    """Run one real-network trial: ``n`` OS processes, TCP, SIGKILLs.

    Never raises for trial-level faults and never hangs: system failures
    (including an exhausted ``trial_timeout``) come back as a
    ``WireTrialResult`` with ``ok=False`` and the journals intact.
    """
    spec.validate()
    journal_path = Path(
        journal_dir
        if journal_dir is not None
        else tempfile.mkdtemp(prefix="repro-wire-")
    )
    journal_path.mkdir(parents=True, exist_ok=True)

    server_socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server_socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server_socket.bind((spec.host, 0))
    server_socket.listen(spec.point.n)
    coord = f"{spec.host}:{server_socket.getsockname()[1]}"

    events: List[Dict[str, Any]] = []
    procs: "Dict[int, subprocess.Popen[bytes]]" = {}
    logs: List[IO[bytes]] = []
    spec_json = json.dumps(spec.to_dict(), separators=(",", ":"))
    coordinator = WireCoordinator(
        spec,
        kill=lambda u: kill_node(procs[u]),
        journal=events.append,
        kill_after=kill_after,
    )
    result = WireTrialResult(
        ok=False,
        reason="trial did not start",
        spec=spec,
        backend="wire",
        journal_dir=str(journal_path),
    )
    try:
        for u in range(spec.point.n):
            proc, log = _spawn_node(u, spec_json, coord, journal_path)
            procs[u] = proc
            logs.append(log)
        try:
            summary = asyncio.run(
                asyncio.wait_for(
                    coordinator.run(server_socket), timeout=spec.trial_timeout
                )
            )
        except WireError as exc:
            result.reason = str(exc)
        except asyncio.TimeoutError:
            result.reason = (
                f"trial timed out after {spec.trial_timeout:.1f}s "
                "(coordinator deadline)"
            )
        except Exception as exc:  # noqa: BLE001 — journalled, not hidden
            result.reason = f"{type(exc).__name__}: {exc}"
        else:
            result.ok = True
            result.reason = ""
            result.metrics = summary.metrics
            result.outcome = summary.outcome
            result.crashed = summary.crashed
            result.rounds = summary.rounds
            result.horizon = summary.horizon
            result.frames = summary.frames
        if not result.ok:
            result.crashed = dict(coordinator.accountant.crashed)
            result.rounds = coordinator.accountant.metrics.rounds_executed
    finally:
        for proc in procs.values():
            kill_node(proc)
        for proc in procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass  # kernel will reap it with us; journals already flushed
        for log in logs:
            log.close()
        try:
            server_socket.close()
        except OSError:
            pass
        _write_journals(journal_path, events, result)
    return result


def _write_journals(
    journal_path: Path, events: List[Dict[str, Any]], result: WireTrialResult
) -> None:
    with open(journal_path / "coordinator.jsonl", "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, separators=(",", ":")) + "\n")
    with open(journal_path / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# The in-process twin
# ----------------------------------------------------------------------


def run_loopback_trial(spec: WireSpec) -> WireTrialResult:
    """The wire backend minus the wires: same runtimes, same accountant,
    message passing by dict.  Raises ``WireError`` on internal
    inconsistencies (there is no journal to fail into)."""
    spec.validate()
    plan = WireFaultPlan.from_script(spec.script)
    accountant = RoundAccountant(spec.point.n, plan)
    runtimes = {u: spec.make_runtime(u) for u in range(spec.point.n)}
    outputs: Dict[int, Dict[str, Any]] = {}
    # mail[u]: data frames deposited for u's next round, as (src, Message).
    mail: Dict[int, List[Any]] = {u: [] for u in range(spec.point.n)}
    horizon = spec.point.horizon()
    for round_ in range(1, horizon + 1):
        if accountant.quiescent_at(round_):
            break
        expects, crashers = accountant.begin_round(round_)
        next_mail: Dict[int, List[Any]] = {u: [] for u in range(spec.point.n)}
        reports: Dict[int, Dict[str, Any]] = {}
        for u in accountant.alive():
            runtime = runtimes[u]
            entries = mail[u]
            mail[u] = []
            if len(entries) != expects[u]:
                raise WireError(
                    f"loopback: node {u} holds {len(entries)} frames for "
                    f"round {round_}, accountant expected {expects[u]}"
                )
            entries.sort(key=lambda entry: entry[0])
            deliveries = [
                Delivery(src, message, round_) for src, message in entries
            ]
            if runtime.should_step(round_, bool(deliveries)):
                runtime.step(round_, deliveries)
            envelopes = runtime.transmit(round_)
            filter_ = crashers.get(u)
            sent: List[List[Any]] = []
            for envelope in envelopes:
                kept = True if filter_ is None else filter_.keep(envelope)
                if kept:
                    next_mail[envelope.dst].append(
                        (envelope.src, envelope.message)
                    )
                sent.append(
                    [
                        envelope.dst,
                        envelope.message.kind,
                        envelope.message.bits,
                        kept,
                    ]
                )
            reports[u] = {
                "r": round_,
                "sent": sent,
                "next_wake": runtime.next_wake,
                "backlog": runtime.backlog,
                "halted": runtime.halted,
            }
            if filter_ is not None:
                outputs[u] = snapshot_outputs(spec, runtime.protocol)
                runtime.discard_backlog()
        accountant.finish_round(round_, reports)
        # Frames addressed to a receiver that just crashed vanish on the
        # wire too (the corpse's listener is gone).
        for u in accountant.crashed:
            next_mail[u] = []
        mail = next_mail
    metrics = accountant.finalize(horizon)
    for u in accountant.alive():
        runtimes[u].stop(metrics.rounds_executed)
        outputs[u] = snapshot_outputs(spec, runtimes[u].protocol)
    outcome = wire_outcome(spec, outputs, accountant.crashed, metrics)
    return WireTrialResult(
        ok=True,
        reason="",
        spec=spec,
        backend="loopback",
        metrics=metrics,
        outcome=outcome,
        crashed=dict(accountant.crashed),
        rounds=metrics.rounds_executed,
        horizon=horizon,
    )
