"""The campaign workloads and the checks on their outputs.

Every workload is a closed loop with one client: the next campaign is
submitted only after the previous one has returned its result.  Pools
run with ``JOBS`` workers on the synchronous model (no delivery delay),
so every latency here is processor time.  Campaign seeds derive from
the workload seed and the campaign's position in the loop, so the same
``--seed`` always submits the same campaigns.

The benchmark only calls public entry points (``resilient_sweep``,
``sweep``, ``fuzz``, the campaign service over HTTP, ``elect_leader``).
The tracing seams below (:class:`Tracer`, :class:`TimingJournal`,
:class:`TimingCache`) wrap those calls from outside; they are only
switched on by a traced run.
"""

from __future__ import annotations

import http.client
import io
import json
import shutil
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis.sweeps import resilient_sweep, sweep
from repro.chaos.fuzzer import default_scenarios, fuzz, fuzz_one
from repro.core import elect_leader
from repro.exec import Journal, ResilientExecutor
from repro.exec.journal import CRC_KEY, SEQ_KEY, record_crc
from repro.obs import PhaseTimers, ProgressReporter
from repro.parallel import agreement_trial, election_trial
from repro.rng import derive_seed
from repro.serve.cache import ResultCache, canonical_json
from repro.serve.http import CampaignServer
from repro.serve.service import CampaignService

#: Pool width of every campaign: the core count of the 2-core machine
#: the workloads were sized on.
JOBS = 2

#: sweep-ref: what ``repro sweep --journal`` runs on the reference engine.
REF_GRID = {
    "n": [64, 128, 256],
    "alpha": [0.5],
    "adversary": ["random", "staggered"],
}
REF_TRIALS = 2

#: sweep-vec: large n on the vectorized engine, fault-free and crashing.
VEC_GRID = {
    "n": [4096, 16384],
    "alpha": [0.5],
    "adversary": ["none", "random"],
}

#: fuzz-budget: the time box of one budgeted fuzz campaign.  Short, so a
#: run holds several campaigns; the mechanism (one pool per wave, budget
#: checked between waves) is the one the 30 s CI campaign uses.
FUZZ_BUDGET_SECONDS = 2.5
FUZZ_SCENARIOS = default_scenarios(n=64)

#: serve-*: agreement campaigns submitted with ``"backend": "vec"``
#: (which the service's resilient path drops today, so they run on the
#: reference engine).  The extension appends a point at the *end* of the
#: n axis: prepending would shift every point seed
#: (``master_seed + i * 1_000_003``) and turn the extension into misses.
SERVE_COLD_N = [64, 128]
SERVE_EXTEND_N = [64, 128, 256]
SERVE_TRIALS = 48

#: Total simulated messages of campaign 0 at workload seeds 0-2.
#: Computed by serial (``jobs=1``) sweeps, so they also pin ``jobs=2``
#: output to the serial result.
PINNED_MESSAGES: Dict[str, Dict[int, int]] = {
    "sweep-ref": {0: 1761777, 1: 1811778, 2: 2026996},
    "sweep-vec": {0: 5497162, 1: 4619776, 2: 5048861},
}

#: ``elect_leader(n=512, alpha=0.5, seed=2)`` on every backend.
CANARY_MESSAGES = 411687


# ----------------------------------------------------------------------
# Tracing seams (switched on only by a traced run)
# ----------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent, workload and run id.

    A disabled tracer records nothing and costs one attribute check per
    span.  Spans opened on the client thread nest through :attr:`current`;
    calls made on the service's own threads (cache reads and writes) are
    parented to the client span that is open while they run, which is
    exact because campaigns run one at a time.
    """

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.workload = ""
        self.spans: List[Dict[str, Any]] = []
        self.current: Optional[int] = None
        self._origin = time.perf_counter()
        self._lock = threading.Lock()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        span_id: Optional[int] = None,
    ) -> None:
        """Store one finished span (in the slot ``span_id`` if reserved)."""
        if not self.enabled:
            return
        with self._lock:
            if span_id is None:
                span_id = len(self.spans)
                self.spans.append({})
            self.spans[span_id] = {
                "id": span_id,
                "name": name,
                "start": start - self._origin,
                "end": end - self._origin,
                "parent": parent,
                "workload": self.workload,
                "run": self.run_id,
            }

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body as a child of the open span."""
        if not self.enabled:
            yield
            return
        parent = self.current
        with self._lock:
            # Reserve the id now: spans opened inside point at it.
            span_id = len(self.spans)
            self.spans.append({})
        self.current = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.current = parent
            self.record(name, start, time.perf_counter(), parent, span_id)

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        children: Dict[int, float] = {}
        for span in self.spans:
            if span.get("parent") is not None:
                children[span["parent"]] = children.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - children.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals


DISABLED = Tracer("", enabled=False)


class TimingJournal(Journal):
    """A journal that times every append (the ``exec`` layer)."""

    def __init__(self, path: Path, tracer: Tracer) -> None:
        super().__init__(path)
        self.tracer = tracer
        self.append_seconds: List[float] = []

    def append(self, record: Dict[str, Any]) -> None:
        start = time.perf_counter()
        super().append(record)
        end = time.perf_counter()
        self.append_seconds.append(end - start)
        self.tracer.record("exec.journal.append", start, end, self.tracer.current)


class TimingCache(ResultCache):
    """A result cache that times every lookup and store (the ``serve`` layer)."""

    def __init__(self, root: Path, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer
        self.get_seconds: List[float] = []
        self.put_seconds: List[float] = []

    def get(self, task_ref, point, seed):
        start = time.perf_counter()
        found = super().get(task_ref, point, seed)
        end = time.perf_counter()
        self.get_seconds.append(end - start)
        self.tracer.record("serve.cache.get", start, end, self.tracer.current)
        return found

    def put(self, task_ref, point, seed, value) -> None:
        start = time.perf_counter()
        super().put(task_ref, point, seed, value)
        end = time.perf_counter()
        self.put_seconds.append(end - start)
        self.tracer.record("serve.cache.put", start, end, self.tracer.current)


class FirstResult(ProgressReporter):
    """A silent progress reporter that notes when the first trial lands."""

    def __init__(self) -> None:
        super().__init__(stream=io.StringIO(), interval=float("inf"))
        self.first: Optional[float] = None

    def advance(self, completed: int = 0, **counts: Any) -> None:
        if completed and self.first is None:
            self.first = time.perf_counter()
        super().advance(completed=completed, **counts)


# ----------------------------------------------------------------------
# Campaign records
# ----------------------------------------------------------------------


@dataclass
class Campaign:
    """What one campaign cost the client, and what was wrong with it."""

    kind: str
    wall_s: float
    first_s: float
    trials: int
    #: Part of ``wall_s`` fixed by a wall-clock budget the program keeps.
    budget_s: float = 0.0
    messages: int = 0
    trial_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: Layer objects a traced run reads afterwards (journal, timers, ...).
    probes: Dict[str, Any] = field(default_factory=dict)


def _first_after(reporter: FirstResult, start: float, end: float) -> float:
    return (reporter.first if reporter.first is not None else end) - start


def _pinned(workload: str, seed: int, index: int, messages: int) -> List[str]:
    expected = PINNED_MESSAGES[workload].get(seed) if index == 0 else None
    if expected is not None and messages != expected:
        return [f"campaign 0 sent {messages} messages, pinned {expected}"]
    return []


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """One closed-loop client: ``setup``, then ``campaign(k)`` for k = 0, 1, ..."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tracer: Tracer = DISABLED) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        #: Problems found by checks that ran during :meth:`prepare`.
        self.setup_problems: List[str] = []

    def master_seed(self, index: int) -> int:
        return derive_seed(self.seed, "campaign-bench", self.name, index)

    def setup(self) -> None:
        """What ``setup_s`` times after the imports: bind, warm up one trial."""

    def prepare(self) -> None:
        """Untimed work the loop needs before its first campaign."""

    def campaign(self, index: int) -> Campaign:
        raise NotImplementedError

    def close(self) -> None:
        pass


class SweepRef(Workload):
    """``resilient_sweep`` with a fresh journal, reference engine."""

    name = "sweep-ref"

    def setup(self) -> None:
        election_trial(seed=0, n=64, alpha=0.5, adversary="random")

    def campaign(self, index: int) -> Campaign:
        path = self.workdir / f"{self.name}-{index}.jsonl"
        traced = self.tracer.enabled
        journal = TimingJournal(path, self.tracer) if traced else Journal(path)
        executor = ResilientExecutor(journal=journal)
        # A traced campaign asks each trial for its engine phase times.
        grid = dict(REF_GRID, profile=[True]) if traced else REF_GRID
        reporter = FirstResult()
        start = time.perf_counter()
        with self.tracer.span("resilient_sweep"):
            result = resilient_sweep(
                election_trial,
                grid,
                trials=REF_TRIALS,
                master_seed=self.master_seed(index),
                executor=executor,
                jobs=JOBS,
                progress=reporter,
            )
        end = time.perf_counter()
        values = [value for point in result.points for value in point.results]
        records = [r for r in Journal(path).iter_records() if "status" in r]
        messages = sum(value["messages"] for value in values)
        problems = _pinned(self.name, self.seed, index, messages)
        if not result.complete:
            problems.append(f"{result.failed} trial(s) failed")
        if sorted(canonical_json(r["value"]) for r in records) != sorted(
            canonical_json(value) for value in values
        ):
            problems.append("journal values differ from the returned results")
        return Campaign(
            kind="sweep",
            wall_s=end - start,
            first_s=_first_after(reporter, start, end),
            trials=len(values),
            messages=messages,
            trial_s=[r["elapsed_seconds"] for r in records],
            problems=problems,
            probes={"journal": journal, "path": path, "executor": executor},
        )


class SweepVec(Workload):
    """Plain ``sweep`` on the vectorized engine (no journal)."""

    name = "sweep-vec"

    def setup(self) -> None:
        election_trial(seed=0, n=4096, alpha=0.5, adversary="none", backend="vec")

    def campaign(self, index: int) -> Campaign:
        timers = PhaseTimers() if self.tracer.enabled else None
        reporter = FirstResult()
        start = time.perf_counter()
        with self.tracer.span("sweep"):
            rows = sweep(
                election_trial,
                VEC_GRID,
                trials=1,
                master_seed=self.master_seed(index),
                jobs=JOBS,
                progress=reporter,
                timers=timers,
                backend="vec",
            )
        end = time.perf_counter()
        values = [value for _, results in rows for value in results]
        messages = sum(value["messages"] for value in values)
        problems = _pinned(self.name, self.seed, index, messages)
        if len(values) != len(rows) or not all(v["messages"] > 0 for v in values):
            problems.append("a grid point returned no messages")
        return Campaign(
            kind="sweep",
            wall_s=end - start,
            first_s=_first_after(reporter, start, end),
            trials=len(values),
            messages=messages,
            problems=problems,
            probes={"timers": timers},
        )


class FuzzBudget(Workload):
    """``fuzz`` in its time-boxed mode, as ``repro fuzz --budget-seconds``."""

    name = "fuzz-budget"

    def setup(self) -> None:
        fuzz_one(FUZZ_SCENARIOS[0], 0)

    def campaign(self, index: int) -> Campaign:
        reporter = FirstResult()
        start = time.perf_counter()
        with self.tracer.span("fuzz"):
            report = fuzz(
                FUZZ_SCENARIOS,
                master_seed=self.master_seed(index),
                budget_seconds=FUZZ_BUDGET_SECONDS,
                jobs=JOBS,
                progress=reporter,
            )
        end = time.perf_counter()
        problems = [] if report.clean else [f"fuzz found {len(report.failures)} failure(s)"]
        return Campaign(
            kind="fuzz",
            wall_s=end - start,
            first_s=_first_after(reporter, start, end),
            trials=report.attempted,
            budget_s=FUZZ_BUDGET_SECONDS,
            problems=problems,
        )


class Serve(Workload):
    """An in-process ``repro serve`` driven by one ``http.client`` client."""

    def setup(self) -> None:
        cache_dir = self.workdir / f"{self.name}-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.service = CampaignService(cache_dir, default_jobs=JOBS)
        if self.tracer.enabled:
            self.service.cache = TimingCache(cache_dir, self.tracer)
        self.server = CampaignServer(self.service, "127.0.0.1", 0)
        self.server.start()
        status, _ = self.request("GET", "/health")
        if status != 200:
            raise RuntimeError(f"campaign server health check answered {status}")
        agreement_trial(seed=0, n=64, alpha=0.5, adversary="random", backend="vec")

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()
            self.service.close()

    def request(self, method: str, path: str, body: Any = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=120)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if body is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def spec(self, index: int, n_axis: List[int]) -> Dict[str, Any]:
        return {
            "task": "agreement",
            "grid": {"n": n_axis, "alpha": [0.5], "adversary": ["random"]},
            "trials": SERVE_TRIALS,
            "master_seed": self.master_seed(index),
            "backend": "vec",
        }

    def submit(self, kind: str, spec: Dict[str, Any], expected_hits: int) -> Campaign:
        """POST one campaign and read its stream up to the summary record."""
        start = time.perf_counter()
        with self.tracer.span(f"serve.{kind}"):
            with self.tracer.span("http.post"):
                status, submitted = self.request("POST", "/campaigns", spec)
            submitted_at = time.perf_counter()
            if status != 202:
                return Campaign(kind, submitted_at - start, submitted_at - start, 0,
                                problems=[f"POST /campaigns answered {status}"])
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.server.port, timeout=120
            )
            first: Optional[float] = None
            opened: Optional[float] = None
            lines: List[bytes] = []
            try:
                with self.tracer.span("http.stream"):
                    connection.request("GET", submitted["stream_url"])
                    response = connection.getresponse()
                    for line in response:
                        lines.append(line)
                        if opened is None:
                            opened = time.perf_counter()
                        if first is None and b'"status"' in line:
                            first = time.perf_counter()
            finally:
                connection.close()
        end = time.perf_counter()
        records = [json.loads(line) for line in lines]
        summary = records[-1] if records else {}
        problems = []
        for seq, sealed in enumerate(records):
            payload = {k: v for k, v in sealed.items() if k not in (CRC_KEY, SEQ_KEY)}
            if sealed.get(SEQ_KEY) != seq or sealed.get(CRC_KEY) != record_crc(payload):
                problems.append(f"stream record {seq} fails its seal")
                break
        if summary.get("kind") != "summary":
            problems.append("stream did not end with a summary")
        elif summary["failed"]:
            problems.append(f"{summary['failed']} trial(s) failed")
        elif summary["cache_hits"] != expected_hits:
            problems.append(
                f"{summary['cache_hits']} cache hits, expected {expected_hits}"
            )
        points = summary.get("points", [])
        return Campaign(
            kind=kind,
            wall_s=end - start,
            first_s=(first if first is not None else end) - start,
            trials=summary.get("completed", 0),
            messages=sum(r["messages"] for p in points for r in p["results"]),
            problems=problems,
            probes={
                "points": canonical_json(points),
                "submit_s": submitted_at - start,
                # The first stream line is the job's own opening record.
                "queue_wait_s": (opened if opened is not None else end) - submitted_at,
                "records": len(records),
                "bytes": sum(len(line) for line in lines),
            },
        )


class ServeCold(Serve):
    """Campaigns the service has never seen: every trial misses and is stored."""

    name = "serve-cold"

    def campaign(self, index: int) -> Campaign:
        return self.submit("cold", self.spec(index, SERVE_COLD_N), expected_hits=0)


class ServeCached(Serve):
    """Resubmissions of a campaign the service already answered: pure reads.

    Before the loop it submits a cold campaign, then its extension, which
    must find every trial of the cold campaign in the cache; the loop
    resubmits the extension.
    """

    name = "serve-cached"

    def prepare(self) -> None:
        cold_hits = len(SERVE_COLD_N) * SERVE_TRIALS
        self.populated = [
            self.submit("cold", self.spec(0, SERVE_COLD_N), expected_hits=0),
            self.submit("extend", self.spec(0, SERVE_EXTEND_N), expected_hits=cold_hits),
        ]
        self.setup_problems = [
            f"{c.kind} campaign: {p}" for c in self.populated for p in c.problems
        ]

    def campaign(self, index: int) -> Campaign:
        extended = self.populated[-1]
        cached = self.submit(
            "cached",
            self.spec(0, SERVE_EXTEND_N),
            expected_hits=len(SERVE_EXTEND_N) * SERVE_TRIALS,
        )
        if cached.probes.get("points") != extended.probes["points"]:
            cached.problems.append("cached points differ from the computed ones")
        return cached


WORKLOADS = {
    cls.name: cls
    for cls in (SweepRef, SweepVec, FuzzBudget, ServeCold, ServeCached)
}


# ----------------------------------------------------------------------
# Checks every run makes before it measures
# ----------------------------------------------------------------------


def run_checks(seed: int) -> Dict[str, List[str]]:
    """The set-up canary and a vec/ref parity trial at the workload seed."""
    checks: Dict[str, List[str]] = {"canary": [], "parity": []}
    for backend in ("ref", "vec"):
        messages = elect_leader(n=512, alpha=0.5, seed=2, backend=backend).messages
        if messages != CANARY_MESSAGES:
            checks["canary"].append(
                f"{backend}: {messages} messages, expected {CANARY_MESSAGES}"
            )
    summaries = [
        elect_leader(
            n=1024, alpha=0.5, seed=seed, adversary="random", backend=backend
        ).summary()
        for backend in ("ref", "vec")
    ]
    if summaries[0] != summaries[1]:
        checks["parity"].append(f"n=1024 seed={seed}: vec summary differs from ref")
    return checks

