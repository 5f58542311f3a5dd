"""Greedy schedule shrinking: from a failing schedule to a minimal one.

Given a :class:`FuzzCase` whose script provokes a violation, the shrinker
looks for the smallest schedule that still provokes a violation of the
same class (:func:`repro.chaos.fuzzer.classify`).  Candidate edits, in
order of aggressiveness:

1. **drop a crash** — the node stays faulty but never crashes;
2. **drop a faulty node** that has no crash scheduled;
3. **drop a Byzantine node** — it rejoins the honest majority;
4. **remove or halve the delay bound** — a smaller Δ is a strictly
   weaker scheduler (Δ=0 is the classic synchronous model);
5. **widen delivery** — replace a ``drop_all``/partial filter with
   ``keep_all`` (a crash that loses nothing is the mildest crash);
6. **downgrade a Byzantine mode to omission** — a node that merely goes
   quiet is milder than one that forges or equivocates;
7. **delay the crash** towards the horizon (geometric jumps, largest
   first) — later crashes give the protocol strictly more fault-free
   rounds.

Each accepted edit strictly decreases the lexicographic measure of
:meth:`CrashScript.size` (faulty+Byzantine count, crash+mode count,
severity+delay) or delays a crash, so the greedy fixpoint loop
converges; a hard evaluation cap bounds worst-case work.  Every
candidate is *re-executed* (never pattern-matched), so the minimised
script is guaranteed to reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Tuple

from ..sim.delivery import SYNCHRONOUS, UniformDelay
from ..types import Round
from .fuzzer import FuzzCase, classify, replay_case
from .script import CrashScript, DeliveryFilter

#: Hard cap on candidate re-executions per shrink (safety valve; greedy
#: descent on realistic schedules uses far fewer).
DEFAULT_MAX_EVALS = 400

#: Predicate deciding whether a candidate script still fails "the same way".
FailurePredicate = Callable[[CrashScript], bool]


@dataclass
class ShrinkResult:
    """A minimised script plus shrink statistics."""

    script: CrashScript
    evaluations: int = 0
    accepted_steps: int = 0
    #: True when the loop reached a fixpoint (no candidate still failed),
    #: False when the evaluation cap cut it short.
    converged: bool = True
    history: List[Tuple[int, int, int]] = field(default_factory=list)


def _candidates(
    script: CrashScript, max_round: Round
) -> Iterator[CrashScript]:
    """Candidate one-step reductions, most aggressive first."""
    keep_all = DeliveryFilter(kind="keep_all")
    for node in sorted(script.crashes):
        yield script.without_crash(node)
    crashing = set(script.crashes)
    for node in sorted(script.faulty):
        if node not in crashing:
            yield script.without_faulty(node)
    for node in sorted(script.byzantine.modes):
        yield script.without_byzantine(node)
    if not script.delivery.is_synchronous:
        yield script.with_delivery(SYNCHRONOUS)
        salt = getattr(script.delivery, "salt", 0)
        delay = script.delivery.max_delay // 2
        while delay >= 1:
            yield script.with_delivery(
                UniformDelay(max_delay=delay, salt=salt)
            )
            delay //= 2
    for node in sorted(script.crashes):
        _, filter_ = script.crashes[node]
        if filter_.severity > 0:
            yield script.with_filter(node, keep_all)
    for node, mode in sorted(script.byzantine.modes.items()):
        if mode != "omission":
            yield script.with_byzantine_mode(node, "omission")
    for node in sorted(script.crashes):
        round_, _ = script.crashes[node]
        # Geometric delays (largest jump first): delaying one round at a
        # time would cost one re-execution per round of the horizon.
        delta = max_round - round_
        while delta >= 1:
            yield script.with_round(node, round_ + delta)
            delta //= 2


def shrink_script(
    script: CrashScript,
    still_fails: FailurePredicate,
    max_round: Round,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> ShrinkResult:
    """Greedily minimise ``script`` while ``still_fails`` holds.

    ``max_round`` bounds crash delaying (normally the run horizon).  The
    returned script always satisfies ``still_fails`` — the input script is
    assumed to (callers verify before shrinking).
    """
    result = ShrinkResult(script=script)
    improved = True
    while improved:
        improved = False
        for candidate in _candidates(result.script, max_round):
            if result.evaluations >= max_evals:
                result.converged = False
                return result
            result.evaluations += 1
            if still_fails(candidate):
                # Accepted edits strictly shrink the (faulty, crashes,
                # severity) measure or delay a crash, so this loop is finite.
                result.script = candidate
                result.accepted_steps += 1
                result.history.append(candidate.size())
                improved = True
                break
    return result


def shrink_case(case: FuzzCase, max_evals: int = DEFAULT_MAX_EVALS) -> FuzzCase:
    """Minimise a failing :class:`FuzzCase`, preserving its failure class.

    The returned case carries the shrunk script and the violations the
    shrunk script actually produces (re-observed, not inherited).
    """
    target = case.signature
    if not target:
        return case

    def still_fails(candidate: CrashScript) -> bool:
        trial = FuzzCase(case.point.with_(adversary=candidate))
        return classify(replay_case(trial)) == target

    shrunk = shrink_script(
        case.script,
        still_fails,
        max_round=case.point.horizon(),
        max_evals=max_evals,
    )
    minimised = FuzzCase(case.point.with_(adversary=shrunk.script))
    minimised.violations = replay_case(minimised)
    return minimised
