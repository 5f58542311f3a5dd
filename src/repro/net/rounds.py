"""Round-synchronous coordination and engine-exact accounting over TCP.

Two halves, mirroring the split in :mod:`repro.sim.adapter`:

:class:`RoundAccountant`
    The *global* half of :class:`~repro.sim.network.Network`'s round loop,
    replayed from per-node reports instead of in-process state.  It owns
    the run's :class:`~repro.sim.metrics.Metrics` and reproduces, phase by
    phase, exactly what the engine would have counted for the same
    ``(spec, seed, script)``: send attribution in ascending sender order,
    crash bookkeeping before delivery classification, the drop / expire /
    deliver trichotomy in the engine's precedence (filter drops are
    checked before dead-receiver expiry), and the top-of-round quiescence
    fast-forward.  The parity oracle works because this replay is exact —
    the wire backend does not *approximate* the sim's accounting, it
    recomputes it from ground-truth reports.

:class:`WireCoordinator`
    The asyncio control plane: accepts one control connection per node
    process, hands out the peer port map, drives the round barrier
    (``round`` frame out, ``report`` frame in, per round, per alive
    node), injects scripted SIGKILLs between a victim's crash-round
    report and the next round, and runs the heartbeat
    :class:`~repro.net.heartbeat.FailureDetector` so an *unscripted*
    death turns into a :class:`~repro.errors.WireError` within one
    detection bound instead of a hung barrier.

The round barrier is what makes the wire run round-faithful: no node
receives the round-``r+1`` control frame until every alive node's
round-``r`` report is in, so a wire round can never interleave with its
neighbours even though the transport is fully asynchronous underneath.

Trust model: nodes report what they sent (the coordinator cannot observe
``n^2`` data edges), but every claim that affects accounting is
cross-checked — crash-round kept-flags are replayed against the script's
pure ``(src, dst)`` filter, and end-of-run received totals must equal the
accountant's per-receiver delivered count before a trial passes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import WireError
from ..sim.metrics import Metrics
from ..sim.node import NEVER
from .comm import FrameStream
from .faults import WireFaultPlan, check_report_against_filter
from .heartbeat import HEARTBEAT_FRAME, FailureDetector
from .spec import WireSpec, metrics_dict, wire_outcome

#: Queue-poll granularity while awaiting a frame (also the detector's
#: effective polling resolution); bounded so tiny heartbeat intervals in
#: tests do not busy-poll.
_POLL_FLOOR = 0.02
_POLL_CEIL = 0.25

#: A report's per-message entry: ``[dst, kind, bits, kept]``.
SentEntry = List[Any]


class RoundAccountant:
    """Engine-exact global accounting, replayed from node reports."""

    def __init__(self, n: int, plan: WireFaultPlan) -> None:
        self.n = n
        self.plan = plan
        self.metrics = Metrics()
        self.crashed: Dict[int, int] = {}
        #: Engine wake schedule: every node starts awake in round 1.
        self.next_wake: Dict[int, int] = {u: 1 for u in range(n)}
        #: Untransmitted queue depth, as last reported.
        self.backlog: Dict[int, int] = {u: 0 for u in range(n)}
        #: Deliveries deposited last round, awaiting the next round's
        #: inbox swap (the engine's ``_inboxes`` as counts).
        self.expect: Dict[int, int] = {u: 0 for u in range(n)}
        #: Cumulative deliveries per receiver (the end-of-run frame-count
        #: cross-check compares node-side received totals against this).
        self.delivered_to: Dict[int, int] = {u: 0 for u in range(n)}
        self._crashers: Dict[int, Any] = {}

    # ------------------------------------------------------------------

    def alive(self) -> List[int]:
        return [u for u in range(self.n) if u not in self.crashed]

    def quiescent_at(self, round_: int) -> bool:
        """The engine's top-of-round fast-forward test.

        True when no future activity is possible: no alive backlog, no
        pending deliveries, no live wake entry, and the fault plan has
        nothing left to do (``Network.run`` requires ``adversary.done``
        too — a pending crash is future activity even in a silent net).
        """
        for u in self.alive():
            if self.backlog[u] or self.expect[u]:
                return False
            if self.next_wake[u] != NEVER:
                return False
        return self.plan.done(round_, self.crashed)

    def begin_round(self, round_: int) -> Tuple[Dict[int, int], Dict[int, Any]]:
        """Open round ``round_``; return (deliveries due, scripted crashers).

        Mirrors ``Network._execute_round``'s entry: ``begin_round`` on the
        metrics and the inbox swap (pending deliveries are consumed here —
        they reach their receivers in this round's step phase).
        """
        self.metrics.begin_round()
        expects = self.expect
        self.expect = {u: 0 for u in range(self.n)}
        self._crashers = self.plan.crashers_at(round_, self.crashed)
        return expects, self._crashers

    def finish_round(self, round_: int, reports: Dict[int, Dict[str, Any]]) -> None:
        """Replay the engine's transmit / crash / delivery phases.

        ``reports`` maps each alive node to its round-``round_`` report
        (``sent`` entries, post-round ``next_wake`` and ``backlog``).
        Raises :class:`WireError` on a crash-round filter divergence.
        """
        metrics = self.metrics
        # Phase 2 (transmit): account sends in ascending sender order,
        # exactly as the engine's pending-sender scan does.
        for u in sorted(reports):
            report = reports[u]
            for entry in report.get("sent", ()):
                dst, kind, bits, _kept = entry
                metrics.record_send(u, str(kind), int(bits))
            self.next_wake[u] = int(report.get("next_wake", NEVER))
            self.backlog[u] = int(report.get("backlog", 0))

        # Phase 3 (crash): mark victims before classifying deliveries —
        # the engine's delivery phase sees the *post-crash* crashed map.
        crashers = self._crashers
        for victim in crashers:
            self.crashed[victim] = round_
            metrics.record_crash()
            self.backlog[victim] = 0  # engine discards the victim's queues
            self.next_wake[victim] = NEVER

        # Phase 4 (delivery): drop / expire / deliver per wire message,
        # filter drops checked before dead-receiver expiry (engine order).
        delivered = 0
        for u in sorted(reports):
            filter_ = crashers.get(u)
            entries = reports[u].get("sent", ())
            if filter_ is not None:
                check_report_against_filter(u, round_, filter_, entries)
            for entry in entries:
                dst, _kind, _bits, kept = entry
                dst = int(dst)
                if filter_ is not None and not kept:
                    metrics.record_drop()
                elif dst in self.crashed:
                    metrics.record_expiry()
                else:
                    delivered += 1
                    self.expect[dst] += 1
                    self.delivered_to[dst] += 1
        metrics.messages_delivered += delivered
        if delivered:
            metrics.delivery_latency[1] += delivered

    def finalize(self, horizon: int) -> Metrics:
        """Close the run exactly as ``Network.run`` does."""
        self.metrics.rounds = self.metrics.rounds_executed
        self.metrics.horizon = horizon
        return self.metrics


@dataclass
class WireRunSummary:
    """What the coordinator hands back to the driver on success."""

    metrics: Metrics
    outcome: Dict[str, object]
    crashed: Dict[int, int]
    rounds: int
    horizon: int
    #: per-node frame counters from ``bye`` frames: {node: {sent, received}}.
    frames: Dict[int, Dict[str, int]] = field(default_factory=dict)

    def metrics_dict(self) -> Dict[str, object]:
        return metrics_dict(self.metrics)


class WireCoordinator:
    """Drives one wire trial's control plane over an asyncio server.

    ``kill`` is the fault injector (the driver binds it to SIGKILLing the
    node's OS process); ``journal`` receives one dict per control-plane
    event (the driver buffers them and writes JSONL after the event loop
    exits, keeping file I/O out of async code); ``kill_after`` is a test
    hook — ``(node, round)`` SIGKILLs an *unscripted* node after that
    round's barrier, which must surface via the heartbeat detector.
    """

    def __init__(
        self,
        spec: WireSpec,
        *,
        kill: Optional[Callable[[int], None]] = None,
        journal: Optional[Callable[[Dict[str, Any]], None]] = None,
        kill_after: Optional[Tuple[int, int]] = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.plan = WireFaultPlan.from_script(spec.script)
        self.accountant = RoundAccountant(spec.point.n, self.plan)
        self.detector = FailureDetector(
            spec.heartbeat_interval, spec.suspicion_threshold
        )
        self._kill = kill if kill is not None else lambda node: None
        self._journal = journal if journal is not None else lambda event: None
        self._kill_after = kill_after
        self._streams: Dict[int, FrameStream] = {}
        self._queues: "Dict[int, asyncio.Queue[Dict[str, Any]]]" = {}
        self._ports: Dict[int, int] = {}
        self._eof: Set[int] = set()
        self._all_hello = asyncio.Event()
        self._poll = min(_POLL_CEIL, max(_POLL_FLOOR, spec.heartbeat_interval))
        self.outputs: Dict[int, Dict[str, Any]] = {}
        self.frames: Dict[int, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        stream = FrameStream(reader, writer)
        try:
            hello = await stream.recv()
        except WireError:
            stream.close()
            return
        if (
            hello is None
            or hello.get("t") != "hello"
            or "node" not in hello
            or "port" not in hello
        ):
            stream.close()
            return
        node = int(hello["node"])  # type: ignore[arg-type]
        if not 0 <= node < self.spec.point.n or node in self._streams:
            stream.close()
            return
        self._streams[node] = stream
        self._ports[node] = int(hello["port"])  # type: ignore[arg-type]
        self._queues[node] = asyncio.Queue()
        self.detector.register(node)
        self._journal({"event": "hello", "node": node, "port": self._ports[node]})
        if len(self._streams) == self.spec.point.n:
            self._all_hello.set()
        await self._pump(node, stream)

    async def _pump(self, node: int, stream: FrameStream) -> None:
        """Demultiplex one node's control frames until EOF."""
        queue = self._queues[node]
        while True:
            try:
                frame = await stream.recv()
            except WireError as exc:
                await queue.put({"t": "__error__", "error": str(exc)})
                return
            if frame is None:
                self._eof.add(node)
                return
            if frame.get("t") == HEARTBEAT_FRAME:
                self.detector.beat(node)
                continue
            await queue.put(frame)

    async def _send(self, node: int, frame: Dict[str, Any]) -> bool:
        """Best-effort control send; a dead node just misses the frame
        (the detector, not the send path, decides whether that is fatal)."""
        try:
            await self._streams[node].send(frame)
            return True
        except (ConnectionError, OSError):
            return False

    async def _await_frame(
        self, node: int, kind: str, timeout: float
    ) -> Dict[str, Any]:
        """Wait for ``node``'s next ``kind`` frame, polling the detector.

        The heartbeat detector is the failure authority: a SIGKILLed
        node's EOF alone does not fail the trial — its silence does, one
        detection bound after its last beat.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        queue = self._queues[node]
        while True:
            suspects = self.detector.suspects()
            if suspects:
                raise WireError(
                    f"heartbeat detector suspects node(s) {suspects} "
                    f"(silent > {self.detector.bound:.2f}s) while awaiting "
                    f"{kind!r} from node {node}"
                )
            remaining = deadline - loop.time()
            if remaining <= 0:
                closed = " (control channel closed)" if node in self._eof else ""
                raise WireError(
                    f"timed out after {timeout:.1f}s awaiting {kind!r} "
                    f"from node {node}{closed}"
                )
            try:
                frame = await asyncio.wait_for(
                    queue.get(), timeout=min(self._poll, remaining)
                )
            except asyncio.TimeoutError:
                continue
            tag = frame.get("t")
            if tag == "__error__":
                raise WireError(
                    f"node {node} control channel error: {frame.get('error')}"
                )
            if tag != kind:
                raise WireError(
                    f"node {node} sent {tag!r} while coordinator awaited "
                    f"{kind!r}: {frame!r}"
                )
            return frame

    # ------------------------------------------------------------------
    # The trial
    # ------------------------------------------------------------------

    async def run(self, server_socket: Any) -> WireRunSummary:
        """Run one wire trial to completion; raises ``WireError`` on any
        system-layer fault (never hangs past its timeouts)."""
        server = await asyncio.start_server(self._handle, sock=server_socket)
        try:
            return await self._run_trial()
        finally:
            for stream in self._streams.values():
                stream.close()
            server.close()
            await server.wait_closed()

    async def _run_trial(self) -> WireRunSummary:
        spec = self.spec
        acc = self.accountant
        try:
            await asyncio.wait_for(
                self._all_hello.wait(), timeout=spec.setup_timeout
            )
        except asyncio.TimeoutError:
            missing = sorted(set(range(spec.point.n)) - set(self._streams))
            raise WireError(
                f"setup timed out after {spec.setup_timeout:.1f}s; "
                f"nodes {missing} never connected"
            ) from None

        ports = {str(u): self._ports[u] for u in sorted(self._ports)}
        for u in range(spec.point.n):
            if not await self._send(u, {"t": "peers", "ports": ports}):
                raise WireError(f"node {u} died before the peer exchange")
        self._journal({"event": "peers", "ports": ports})

        horizon = spec.point.horizon()
        for round_ in range(1, horizon + 1):
            if acc.quiescent_at(round_):
                self._journal({"event": "quiescent", "round": round_})
                break
            expects, crashers = acc.begin_round(round_)
            alive = acc.alive()
            for u in alive:
                frame: Dict[str, Any] = {
                    "t": "round",
                    "r": round_,
                    "expect": expects[u],
                }
                if u in crashers:
                    frame["crash"] = crashers[u].to_dict()
                await self._send(u, frame)
            reports: Dict[int, Dict[str, Any]] = {}
            for u in alive:
                report = await self._await_frame(
                    u, "report", spec.round_timeout
                )
                if int(report.get("r", -1)) != round_:
                    raise WireError(
                        f"node {u} reported round {report.get('r')} during "
                        f"round {round_}"
                    )
                reports[u] = report
            for victim in sorted(crashers):
                outputs = reports[victim].get("outputs")
                if not isinstance(outputs, dict):
                    raise WireError(
                        f"crash-round report from node {victim} carries no "
                        "output snapshot"
                    )
                self.outputs[victim] = outputs
                # Expected death: stand the detector down first, then kill.
                self.detector.forget(victim)
                self._kill(victim)
                self._journal(
                    {"event": "crash", "node": victim, "round": round_}
                )
            acc.finish_round(round_, reports)
            self._journal(
                {
                    "event": "round",
                    "round": round_,
                    "sent": acc.metrics.per_round_messages[-1],
                    "crashed": sorted(acc.crashed),
                }
            )
            if self._kill_after is not None and self._kill_after[1] == round_:
                # Unscripted death: no forget(), no accounting — only the
                # heartbeat detector may notice.
                self._kill(self._kill_after[0])
                self._journal(
                    {
                        "event": "unscripted_kill",
                        "node": self._kill_after[0],
                        "round": round_,
                    }
                )

        metrics = acc.finalize(horizon)
        last_round = metrics.rounds_executed
        alive = acc.alive()
        for u in alive:
            await self._send(
                u,
                {
                    "t": "stop",
                    "last_round": last_round,
                    "expect_total": acc.delivered_to[u],
                },
            )
        for u in alive:
            bye = await self._await_frame(u, "bye", spec.round_timeout)
            outputs = bye.get("outputs")
            if not isinstance(outputs, dict):
                raise WireError(f"bye from node {u} carries no outputs")
            self.outputs[u] = outputs
            received = int(bye.get("received", -1))
            if received != acc.delivered_to[u]:
                raise WireError(
                    f"frame-count mismatch at node {u}: received {received} "
                    f"data frames, accountant delivered "
                    f"{acc.delivered_to[u]}"
                )
            self.frames[u] = {
                "received": received,
                "sent": int(bye.get("frames_sent", 0)),
            }
        self._journal({"event": "stop", "last_round": last_round})

        outcome = wire_outcome(spec, self.outputs, acc.crashed, metrics)
        return WireRunSummary(
            metrics=metrics,
            outcome=outcome,
            crashed=dict(acc.crashed),
            rounds=last_round,
            horizon=horizon,
            frames=dict(self.frames),
        )
