"""Module-level, picklable Monte-Carlo trial tasks.

Parallel campaigns need tasks that cross a process boundary.  These
wrappers run the headline protocols and return their plain-dict
``summary()`` — picklable, JSON-serialisable, and exactly what the
benchmark and CLI sweeps aggregate.

Pass adversaries by *name* (``"random"``, ``"staggered"``, ...): names
are picklable and resolved inside the worker, stateful adversary objects
may not be.

With ``profile=True`` each trial runs under a fresh
:class:`~repro.obs.PhaseTimers` and its summary gains a
``phase_seconds`` dict — timings ride back through the pool (and into
journals) as plain data.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional


def election_trial(
    seed: int = 0, profile: bool = False, **kwargs: Any
) -> Dict[str, Any]:
    """One leader-election trial → its ``summary()`` dict."""
    from ..core.runner import elect_leader

    return _trial(lambda timers: elect_leader(seed=seed, timers=timers, **kwargs), profile)


def agreement_trial(
    seed: int = 0, profile: bool = False, **kwargs: Any
) -> Dict[str, Any]:
    """One agreement trial → its ``summary()`` dict."""
    from ..core.runner import agree

    return _trial(lambda timers: agree(seed=seed, timers=timers, **kwargs), profile)


def ben_or_trial(
    seed: int = 0,
    profile: bool = False,
    n: int = 64,
    alpha: float = 0.5,
    adversary: str = "random",
    inputs: str = "mixed",
    max_delay: int = 0,
    max_phases: Optional[int] = None,
    byzantine: Any = None,
    collect_trace: bool = False,
) -> Dict[str, Any]:
    """One Ben-Or consensus trial → its ``summary()`` dict.

    ``alpha`` maps to the crash budget the other tasks use
    (``Params.max_faulty``), capped at Ben-Or's ``< n/2`` resilience;
    ``max_delay`` > 0 runs the trial under bounded-delay delivery.
    """
    from ..core.families import FAMILIES, RunPoint

    point = RunPoint(
        "ben_or", n, alpha, seed, adversary, inputs=inputs, max_delay=max_delay,
        options={"max_phases": max_phases},
    )
    return _trial(
        lambda timers: FAMILIES["ben_or"].run(
            point, byzantine=byzantine, collect_trace=collect_trace, timers=timers
        ),
        profile,
        {"alpha": alpha, "adversary": adversary, "max_delay": max_delay},
    )


def _trial(
    run: Callable[[Any], Any], profile: bool, echo: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """``run(timers)`` one trial → its summary dict, plus ``echo`` (point
    values the result does not record)."""
    from ..obs.timing import PhaseTimers

    result = run(PhaseTimers() if profile else None)
    summary = result.summary()
    summary.update(echo or {})
    if result.metrics.phase_seconds:
        summary["phase_seconds"] = dict(result.metrics.phase_seconds)
    return summary


def fuzz_trial(
    seed: int = 0, scenario: Any = None, config: Any = None, **fields: Any
) -> Dict[str, Any]:
    """One adversary-fuzzing trial → a plain-dict verdict.

    ``scenario`` is a :class:`~repro.core.families.RunPoint`, or
    ``fields`` are :func:`~repro.chaos.fuzzer.fuzz_scenario`'s keywords;
    ``config`` is the schedule grammar.  A pure function of ``(scenario,
    seed, config)`` — the sampled crash schedule derives from the engine's
    seeded adversary stream — so the serve layer's content-addressed
    result cache can answer repeats.  A failing case ships its full
    replayable reproducer as plain data (``repro replay`` accepts the
    embedded ``case`` object verbatim), so a case found in a pool worker
    is bit-identical to what a serial run records; fault-fragile findings
    are flagged separately so campaign aggregation can journal instead of
    fail, mirroring ``repro fuzz``.
    """
    from ..chaos.fuzzer import fuzz_one, fuzz_scenario

    if scenario is None:
        scenario = fuzz_scenario(**fields)
    elif fields:
        raise TypeError(f"fuzz_trial() got a scenario and its fields {sorted(fields)}")
    case = fuzz_one(scenario, seed, config=config)
    summary: Dict[str, Any] = {
        "protocol": scenario.protocol,
        "n": scenario.n,
        "alpha": scenario.alpha,
        "seed": seed,
        "failed": case is not None,
    }
    if case is not None:
        summary["violations"] = list(case.violations)
        summary["classes"] = list(case.signature)
        summary["finding"] = case.is_finding
        summary["case"] = case.to_dict()
    return summary
