"""Experiments E15-E16: the paper's open problems, explored.

* E15 (open problem 3, Byzantine faults) — the crash-fault protocols are
  *not* Byzantine-tolerant: a single zero-forger breaks agreement
  validity, and a single rank-forger (or equivocator pair) captures or
  voids the election — while the same node count under crash faults is
  harmless.  This measured cliff is exactly why sub-linear Byzantine
  agreement is open.
* E16 (open problem 2, general graphs) — a random-walk-based implicit
  election in the style of [43] works beyond the complete graph; its
  message cost scales with the topology's mixing time (expander ~
  complete ≪ torus), matching the ``Õ(sqrt(n) t_mix)`` shape.
"""

from __future__ import annotations

from typing import List

from ..analysis.stats import mean, summarize_trials
from ..core.results import AgreementResult, LeaderElectionResult
from ..core.runner import agree, elect_leader
from ..extensions.general_graphs import walk_based_leader_election
from ..faults.byzantine import ByzantinePlan
from ..rng import RngFactory, seed_sequence
from ..types import Decision
from .harness import Check, Experiment, ExperimentReport


def _liar(n: int, seed: int, mode: str) -> ByzantinePlan:
    """One Byzantine node in ``mode``, drawn from the seed's own stream."""
    (node,) = RngFactory(seed).stream("byzantine").sample(range(n), 1)
    return ByzantinePlan(modes={node: mode})


def _validity_holds(result: AgreementResult) -> bool:
    """Every honest decision is some honest node's input."""
    inputs = {b for u, b in enumerate(result.inputs) if u not in result.faulty}
    return all(
        d is Decision.UNDECIDED or d.bit in inputs
        for u, d in result.decisions.items()
        if u not in result.faulty
    )


def _captured(result: LeaderElectionResult) -> bool:
    """Honest candidates unanimously believe the forged rank 1."""
    beliefs = {r for u, r in result.beliefs.items() if u not in result.faulty}
    return beliefs - {None} == {1}


def _run_e15(quick: bool) -> ExperimentReport:
    n = 96 if quick else 256
    alpha = 0.5
    trials = 5 if quick else 12
    rows: List[dict] = []
    checks: List[Check] = []

    # Crash-fault control at the same corruption count.
    crash_control = summarize_trials(
        [
            agree(n=n, alpha=alpha, inputs="all1", seed=seed, adversary="random",
                  faulty_count=1).success
            for seed in seed_sequence(120, trials)
        ]
    )
    validity = summarize_trials(
        [
            _validity_holds(
                agree(n=n, alpha=alpha, inputs="all1", seed=seed, adversary="none",
                      byzantine=_liar(n, seed, "zero_forger"))
            )
            for seed in seed_sequence(121, trials)
        ]
    )
    rows.append(
        {
            "scenario": "agreement, 1 crash-faulty node",
            "guarantee": "validity+agreement",
            "holds": crash_control.rate,
        }
    )
    rows.append(
        {
            "scenario": "agreement, 1 zero-forger (Byzantine)",
            "guarantee": "validity",
            "holds": validity.rate,
        }
    )
    checks.append(
        Check("crash faults are harmless at count 1", crash_control.at_least(0.95),
              str(crash_control))
    )
    checks.append(
        Check(
            "one Byzantine forger breaks validity",
            validity.clearly_below(0.5),
            str(validity),
        )
    )

    crash_le = summarize_trials(
        [
            elect_leader(n=n, alpha=alpha, seed=seed, adversary="random",
                         faulty_count=1).success
            for seed in seed_sequence(122, trials)
        ]
    )
    capture_rate = summarize_trials(
        [
            _captured(
                elect_leader(n=n, alpha=alpha, seed=seed, adversary="none",
                             byzantine=_liar(n, seed, "rank_forger"))
            )
            for seed in seed_sequence(123, trials)
        ]
    )
    rows.append(
        {
            "scenario": "election, 1 crash-faulty node",
            "guarantee": "unique honest leader",
            "holds": crash_le.rate,
        }
    )
    rows.append(
        {
            "scenario": "election, 1 rank-forger (Byzantine)",
            "guarantee": "not captured",
            "holds": 1.0 - capture_rate.rate,
        }
    )
    checks.append(
        Check(
            "one Byzantine rank-forger captures the election",
            capture_rate.at_least(0.9),
            str(capture_rate),
        )
    )
    return ExperimentReport(
        experiment_id="E15",
        title=f"Byzantine stress (open problem 3, n={n})",
        paper_claim=(
            "Section VI (3): sub-linear agreement under Byzantine faults is open — "
            "the crash-fault protocols collapse under a single liar"
        ),
        rows=rows,
        checks=checks,
        columns=["scenario", "guarantee", "holds"],
    )


def _run_e16(quick: bool) -> ExperimentReport:
    # Walk simulation costs ~n * sqrt(n log n) * t_mix steps; the torus's
    # t_mix ~ n keeps full-mode sizes modest.
    n = 144 if quick else 400
    trials = 4 if quick else 5
    rows: List[dict] = []
    checks: List[Check] = []
    measured = {}
    for kind in ("complete", "regular", "torus"):
        outcomes = [
            walk_based_leader_election(n=n, graph_kind=kind, seed=seed)
            for seed in seed_sequence(124, trials)
        ]
        success = summarize_trials([o.success for o in outcomes])
        messages = mean([o.messages for o in outcomes])
        measured[kind] = messages
        rows.append(
            {
                "graph": kind,
                "success": success.rate,
                "messages": round(messages),
                "rounds": outcomes[0].rounds,
            }
        )
        checks.append(
            Check(
                f"{kind}: walk-based election succeeds w.h.p.",
                success.at_least(0.7 if quick else 0.85),
                str(success),
            )
        )
    checks.append(
        Check(
            "cost scales with mixing time (torus >> expander)",
            measured["torus"] > 3 * measured["regular"],
            f"torus {measured['torus']:.0f} vs regular {measured['regular']:.0f}",
        )
    )
    return ExperimentReport(
        experiment_id="E16",
        title=f"general graphs (open problem 2, n={n})",
        paper_claim=(
            "Section VI (2): message complexity in general graphs — the [43]-style "
            "walk election pays Õ(sqrt(n) t_mix)"
        ),
        rows=rows,
        checks=checks,
    )


E15 = Experiment("E15", "Byzantine stress", "open problem 3", _run_e15)
E16 = Experiment("E16", "general graphs", "open problem 2", _run_e16)
