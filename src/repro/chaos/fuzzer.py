"""Schedule-space fuzzing: the empirical analogue of "for every adversary".

The paper's guarantees (Theorems 4.1/5.1) quantify over *all* adaptive
crash schedules; the hand-written portfolio in
:mod:`repro.faults.strategies` covers seven of them.  The fuzzer samples
the schedule space at random: each trial draws a :class:`FuzzedAdversary`
schedule from the grammar, runs a protocol under it with a full trace,
and checks

* the model validator (:func:`repro.sim.validate.validate_run`), which
  now also enforces delivery latency, and
* the protocol safety oracle (:mod:`repro.chaos.oracles`),

treating any engine exception as a violation as well.  A failing trial is
packaged as a :class:`FuzzCase` — scenario parameters plus the realised
:class:`CrashScript` — shrunk to a minimal reproducer, and returned for
storage/replay (``repro fuzz`` / ``repro replay``).

With an *extended* :class:`GrammarConfig` (Byzantine modes and/or a delay
bound) each trial instead samples its script eagerly — the lying nodes
need swapped protocol instances and the delay bound configures the
network, both of which must exist before the run starts.  Oracle
violations of runs whose guarantees the sampled faults void (Byzantine
nodes; delays under synchronous-only protocols) are *findings*: shrunk
and journalled like failures, but they do not fail the campaign (see
:func:`repro.chaos.oracles.downgrade_fragile`).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.families import FAMILIES, RunPoint
from ..errors import ConfigurationError, ReproError
from ..faults.adversary import Adversary
from ..obs.progress import ProgressSpec, ensure_progress
from ..obs.provenance import Manifest
from ..params import Params
from ..rng import derive_seed
from ..sim.network import RunResult
from ..sim.validate import validate_run
from .grammar import FuzzedAdversary, GrammarConfig, sample_script
from .oracles import FRAGILE_PREFIXES, downgrade_fragile
from .script import CrashScript, as_script

#: The families with a fuzz oracle.
PROTOCOLS = tuple(name for name, family in FAMILIES.items() if family.oracle)

#: Reduced sampling constants for high-throughput fuzzing (validated by
#: the test-suite's fast fixtures: same code paths, ~10x fewer messages).
FAST_CONSTANTS = dict(candidate_factor=3.0, referee_factor=1.5, iteration_factor=4.0)


def fuzz_scenario(
    protocol: str = "election",
    n: int = 64,
    alpha: float = 0.5,
    inputs: Any = None,
    fast_constants: bool = True,
    extra_rounds: int = 0,
) -> RunPoint:
    """A fuzz scenario: the run point a trial gives its seed and schedule.

    Its constants are :data:`FAST_CONSTANTS` (or the paper's, without
    ``fast_constants``) for the families that use them.
    """
    if protocol not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; choose from {PROTOCOLS}"
        )
    constants = FAST_CONSTANTS if fast_constants else {}
    return RunPoint(
        protocol, n, alpha, inputs=inputs, extra_rounds=extra_rounds,
        params=Params(n=n, alpha=alpha, **constants)
        if FAMILIES[protocol].uses_params else None,
    )


#: Version of the case JSON :meth:`FuzzCase.to_dict` writes.  Version 2
#: held a scenario object, the seed and the script beside each other.
CASE_VERSION = 3


@dataclass
class FuzzCase:
    """A reproducer: a run point, whose seed and crash script are the
    case's, plus the violations it produced."""

    point: RunPoint
    violations: List[str] = field(default_factory=list)

    @property
    def seed(self) -> int:
        return self.point.seed

    @property
    def script(self) -> CrashScript:
        return self.point.adversary

    @property
    def signature(self) -> Tuple[str, ...]:
        """Coarse failure classes, for shrink-preservation checks."""
        return classify(self.violations)

    @property
    def is_finding(self) -> bool:
        """True when every violation is fault-fragile (journalled, not a
        campaign failure): the sampled faults void the broken guarantee."""
        signature = self.signature
        return bool(signature) and all(
            cls in FRAGILE_PREFIXES for cls in signature
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": CASE_VERSION,
            "point": self.point.to_dict(),
            "violations": list(self.violations),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FuzzCase":
        if "scenario" in data:
            # Version 2 wrote ``"inputs": "mixed"`` for every family; for
            # one that takes no inputs that value means none.
            scenario = dict(data["scenario"])
            protocol = scenario.pop("protocol")
            if protocol in PROTOCOLS and not FAMILIES[protocol].takes_inputs:
                if scenario.get("inputs") == "mixed":
                    del scenario["inputs"]
            point = fuzz_scenario(protocol, **scenario).with_(
                seed=int(data["seed"]), adversary=as_script(data["script"])
            )
        else:
            point = RunPoint.from_dict(data["point"])
        return cls(point, [str(v) for v in data.get("violations", [])])

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        return cls.from_dict(json.loads(text))


def classify(violations: Sequence[str]) -> Tuple[str, ...]:
    """Sorted failure classes of a violation list.

    ``"oracle"`` for problem-definition breaks, ``"engine"`` for engine
    exceptions, ``"byzantine"``/``"async"`` for fault-fragile findings
    (oracle breaks excused by the sampled fault model), ``"model"`` for
    validator findings — shrinking preserves this set, so a minimised
    script still fails *the same way*.
    """
    known = ("oracle", "engine") + FRAGILE_PREFIXES
    classes = set()
    for violation in violations:
        prefix = violation.split(":", 1)[0].strip()
        classes.add(prefix if prefix in known else "model")
    return tuple(sorted(classes))


def run_scenario(
    scenario: RunPoint, seed: int, adversary: Adversary
) -> Tuple[List[str], Optional[Any]]:
    """Run ``scenario`` at ``seed`` under ``adversary``; return (violations, result).

    Engine exceptions become ``"engine: ..."`` violations (the run has no
    result then); otherwise violations combine the model validator and
    the protocol oracle.

    A version-2 :class:`CrashScript` carries its own Byzantine plan and
    delivery schedule: both are handed to the run (which swaps the
    lying nodes' protocols and configures the network), and oracle
    violations the sampled faults excuse are downgraded to journalled
    findings — consistently here, so replay and shrink classify a case
    exactly as the original fuzz trial did.
    """
    point = scenario.with_(seed=seed, adversary=adversary)
    family = point.family
    byzantine = None
    delivery = None
    fragile_prefix: Optional[str] = None
    if isinstance(adversary, CrashScript):
        if adversary.byzantine.modes:
            byzantine = adversary.byzantine
            fragile_prefix = "byzantine"
        if not adversary.delivery.is_synchronous:
            delivery = adversary.delivery
            point = point.with_(max_delay=delivery.max_delay)
            if fragile_prefix is None and not family.delay_tolerant:
                fragile_prefix = "async"
    try:
        result = family.run(
            point, collect_trace=True, delivery=delivery, byzantine=byzantine
        )
    except ReproError as exc:
        return [f"engine: {type(exc).__name__}: {exc}"], None

    run = RunResult(
        n=result.n,
        protocols=[],
        metrics=result.metrics,
        trace=result.trace,
        faulty=result.faulty,
        crashed=result.crashed,
        rounds=result.rounds,
        horizon=result.horizon,
        max_delay=result.max_delay,
    )
    violations = [f"model: {v}" for v in validate_run(run)]
    assert family.oracle is not None
    oracle_violations = family.oracle(result)
    if fragile_prefix is not None:
        oracle_violations = downgrade_fragile(
            oracle_violations, prefix=fragile_prefix
        )
    violations.extend(oracle_violations)
    return violations, result


def replay_case(case: FuzzCase) -> List[str]:
    """Re-run a recorded case and return the violations it produces now."""
    violations, _ = run_scenario(case.point, case.seed, case.script)
    return violations


def fuzz_one(
    scenario: RunPoint,
    seed: int,
    config: Optional[GrammarConfig] = None,
) -> Optional[FuzzCase]:
    """One fuzz trial; a :class:`FuzzCase` when it failed, else ``None``.

    Crash-only grammars sample lazily from the engine's adversary stream
    (:class:`FuzzedAdversary`); extended grammars sample the script
    eagerly from a seed-derived stream, because Byzantine protocol swaps
    and the delay bound must be fixed before the network exists.  Either
    way the realised script is a pure function of ``(scenario, seed,
    config)``.  Crash rounds are sampled against the synchronous
    timetable; a delayed Ben-Or run stretches past it, which only means
    the latest sampled crashes land while it is still running.
    """
    if config is not None and config.extended:
        # An agreement trial never draws a rank forger: the mode pool is
        # the configured modes the scenario's family supports.
        modes = scenario.family.modes
        effective = replace(
            config,
            byzantine_modes=tuple(m for m in config.byzantine_modes if m in modes),
        )
        rng = random.Random(derive_seed(seed, "chaos", "script"))
        adversary = sample_script(
            rng,
            n=scenario.n,
            max_faulty=scenario.fault_budget,
            horizon=scenario.horizon(),
            config=effective,
            label=f"fuzz@{seed}",
        )
    else:
        adversary = FuzzedAdversary(
            horizon=scenario.horizon(), config=config, label=f"fuzz@{seed}"
        )
    violations, _ = run_scenario(scenario, seed, adversary)
    if not violations:
        return None
    script = adversary if isinstance(adversary, CrashScript) else adversary.script
    assert script is not None
    return FuzzCase(scenario.with_(seed=seed, adversary=script), violations)


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    attempted: int = 0
    failures: List[FuzzCase] = field(default_factory=list)
    #: Fault-fragile cases (``byzantine:``/``async:`` only): shrunk and
    #: journalled like failures, but they do not fail the campaign — they
    #: are the measured result of fuzzing beyond the crash model.
    findings: List[FuzzCase] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: (scenario protocol, seed) pairs attempted, for reproducibility.
    trials: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no trial produced a *hard* violation (crash-safe
        oracles, model validator, engine contracts all held)."""
        return not self.failures

    def summary(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failures": len(self.failures),
            "findings": len(self.findings),
            "clean": self.clean,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }


def fuzz(
    scenarios: Sequence[RunPoint],
    seeds: int = 50,
    master_seed: int = 0,
    budget_seconds: Optional[float] = None,
    config: Optional[GrammarConfig] = None,
    shrink_failures: bool = True,
    jobs: int = 1,
    progress: ProgressSpec = False,
    journal: Optional[Any] = None,
    manifest: Optional[Manifest] = None,
) -> FuzzReport:
    """Fuzz each scenario over derived seeds (or until the time budget).

    With ``budget_seconds`` set, trials keep running round-robin over the
    scenarios until the budget expires (at least one trial per scenario
    always runs); otherwise exactly ``seeds`` trials run per scenario.
    Failures are shrunk to minimal reproducers unless
    ``shrink_failures=False``.

    Every trial runs through :func:`repro.parallel.run_trials`, which
    with ``jobs`` > 1 shards the seed stream over a process pool.  Seed
    derivation is identical for every ``jobs`` (so every failing case
    replays with ``jobs=1``), failures are reported and journalled in
    serial trial order as soon as the trials before them have finished,
    and shrinking always happens in the parent.  The campaign is one
    lazily drawn stream on one pool.  In budget mode the budget is
    checked before each seed index and every drawn trial finishes, so
    the report holds whole seed indices in serial order; past the budget
    only the trials in flight and the rest of the current index run.
    A trial that raises outside the oracle net is re-run in this
    process, so its exception escapes exactly as under ``jobs=1``.

    Observability: ``progress=True`` emits a stderr heartbeat;
    ``journal`` (a path or :class:`~repro.exec.Journal`) records one
    JSONL line per trial — key, protocol, seed, status ``ok`` /
    ``violation``, and the failure signature — written by the parent
    only; ``manifest`` is embedded in the journal as a
    ``{"kind": "manifest"}`` record so ``repro report <journal>`` can
    render the campaign's provenance.
    """
    from .shrink import shrink_case

    if not scenarios:
        raise ConfigurationError("need at least one scenario")
    if budget_seconds is None and seeds < 1:
        raise ConfigurationError(f"seeds must be >= 1, got {seeds}")
    if budget_seconds is not None and not 0 <= budget_seconds < math.inf:
        raise ConfigurationError(
            f"budget_seconds must be finite and >= 0, got {budget_seconds}"
        )
    from ..exec import ResilientExecutor
    from ..parallel import TrialSpec, in_order, resolve_jobs, run_trials
    from ..parallel.tasks import fuzz_trial

    workers = resolve_jobs(jobs)
    report = FuzzReport()
    start = time.monotonic()
    journal = ResilientExecutor().begin(journal, manifest=manifest)
    reporter = ensure_progress(
        progress,
        total=None if budget_seconds is not None else seeds * len(scenarios),
        label="fuzz",
    )
    if workers > 1:
        reporter.set_workers(workers)

    def shrink(case: FuzzCase) -> FuzzCase:
        return shrink_case(case) if shrink_failures else case

    def journal_trial(
        scenario: RunPoint, trial_seed: int, case: Optional[FuzzCase]
    ) -> None:
        if journal is None:
            return
        if case is None:
            status = "ok"
        elif case.is_finding:
            status = "finding"
        else:
            status = "violation"
        record: Dict[str, Any] = {
            "key": f"{scenario.protocol}@{trial_seed}",
            "protocol": scenario.protocol,
            "seed": trial_seed,
            "attempts": 1,
            "status": status,
            "value": {"violations": 0} if case is None else None,
        }
        if case is not None:
            record["signature"] = list(case.signature)
            record["violations"] = len(case.violations)
            record["script"] = case.script.to_dict()
        journal.append(record)

    specs: List[TrialSpec] = []

    def draw() -> Iterator[TrialSpec]:
        """One spec per scenario for each seed index, until seeds or budget run out."""
        for index in range(seeds) if budget_seconds is None else itertools.count():
            if budget_seconds is not None and index > 0:
                if time.monotonic() - start >= budget_seconds:
                    return
            for scenario in scenarios:
                specs.append(
                    TrialSpec(
                        index=len(specs),
                        task=fuzz_trial,
                        seed=derive_seed(master_seed, "fuzz", scenario.protocol, index),
                        point={"scenario": scenario, "config": config},
                    )
                )
                yield specs[-1]

    def account(spec: TrialSpec, outcome: Any) -> None:
        scenario = scenarios[spec.index % len(scenarios)]
        verdict = outcome.value if outcome.ok else spec.run()
        case = shrink(FuzzCase.from_dict(verdict["case"])) if verdict["failed"] else None
        report.trials.append((scenario.protocol, spec.seed))
        report.attempted += 1
        if case is not None:
            if case.is_finding:
                report.findings.append(case)
            else:
                report.failures.append(case)
        journal_trial(scenario, spec.seed, case)
        reporter.advance(
            completed=1,
            attempted=1,
            failed=0 if case is None or case.is_finding else 1,
        )

    run_trials(draw(), jobs=workers, on_outcome=in_order(specs, account))
    report.elapsed_seconds = time.monotonic() - start
    reporter.finish()
    return report


def default_scenarios(
    n: int = 64,
    alpha: float = 0.5,
    protocols: Sequence[str] = ("election", "agreement"),
    fast_constants: bool = True,
    inputs: Any = None,
) -> List[RunPoint]:
    """The standard scenario pair (leader election + agreement).

    ``ben_or`` is opt-in (pass it in ``protocols``): it is a baseline,
    not one of the paper's protocols.  ``inputs`` go to the families
    that take them."""
    return [
        fuzz_scenario(
            protocol, n=n, alpha=alpha, fast_constants=fast_constants,
            inputs=inputs if FAMILIES[protocol].takes_inputs else None,
        )
        for protocol in protocols
    ]
