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

    return _trial(elect_leader, seed, profile, kwargs)


def agreement_trial(
    seed: int = 0, profile: bool = False, **kwargs: Any
) -> Dict[str, Any]:
    """One agreement trial → its ``summary()`` dict."""
    from ..core.runner import agree

    return _trial(agree, seed, profile, kwargs)


#: The run options ``ben_or_trial`` forwards, as ``ben_or_consensus`` takes them.
_BEN_OR_OPTIONS = frozenset({"byzantine", "max_phases", "collect_trace"})


def ben_or_trial(
    seed: int = 0,
    profile: bool = False,
    n: int = 64,
    alpha: float = 0.5,
    adversary: str = "random",
    inputs: str = "mixed",
    max_delay: int = 0,
    **kwargs: Any,
) -> Dict[str, Any]:
    """One Ben-Or consensus trial → its ``summary()`` dict.

    ``alpha`` maps to the crash budget the other tasks use
    (``Params.max_faulty``), capped at Ben-Or's ``< n/2`` resilience;
    ``max_delay`` > 0 runs the trial under bounded-delay delivery.
    """
    from ..core.families import FAMILIES
    from ..sim.delivery import UniformDelay

    unknown = sorted(set(kwargs) - _BEN_OR_OPTIONS)
    if unknown:
        raise TypeError(f"ben_or_trial() got unexpected keyword arguments {unknown}")
    point = dict(
        kwargs, n=n, alpha=alpha, adversary=adversary, inputs=inputs,
        delivery=UniformDelay(max_delay, salt=seed) if max_delay else None,
    )
    echo = {"alpha": alpha, "adversary": adversary, "max_delay": max_delay}
    return _trial(FAMILIES["ben_or"].run, seed, profile, point, echo)


def _trial(
    run: Callable[..., Any],
    seed: int,
    profile: bool,
    point: Dict[str, Any],
    echo: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """``run`` one trial at ``point`` → its summary dict, plus ``echo``
    (point values the result does not record)."""
    from ..obs.timing import PhaseTimers

    result = run(seed=seed, timers=PhaseTimers() if profile else None, **point)
    summary = result.summary()
    summary.update(echo or {})
    if result.metrics.phase_seconds:
        summary["phase_seconds"] = dict(result.metrics.phase_seconds)
    return summary


def fuzz_trial(
    seed: int = 0,
    protocol: str = "election",
    n: int = 64,
    alpha: float = 0.5,
    inputs: str = "mixed",
    extra_rounds: int = 0,
    **kwargs: Any,
) -> Dict[str, Any]:
    """One adversary-fuzzing trial → a plain-dict verdict.

    A pure function of ``(scenario, seed)`` — the sampled crash schedule
    derives from the engine's seeded adversary stream — so the serve
    layer's content-addressed result cache can answer repeats.  A failing
    case ships its full replayable reproducer (``repro replay`` accepts
    the embedded ``case`` object verbatim); fault-fragile findings are
    flagged separately so campaign aggregation can journal instead of
    fail, mirroring ``repro fuzz``.
    """
    from ..chaos.fuzzer import FuzzScenario, fuzz_one

    scenario = FuzzScenario(
        protocol=protocol,
        n=n,
        alpha=alpha,
        inputs=inputs,
        extra_rounds=extra_rounds,
        **kwargs,
    )
    case = fuzz_one(scenario, seed)
    summary: Dict[str, Any] = {
        "protocol": protocol,
        "n": n,
        "alpha": alpha,
        "seed": seed,
        "failed": case is not None,
    }
    if case is not None:
        summary["violations"] = list(case.violations)
        summary["classes"] = list(case.signature)
        summary["finding"] = case.is_finding
        summary["case"] = case.to_dict()
    return summary
