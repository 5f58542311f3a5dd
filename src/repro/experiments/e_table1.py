"""Experiment E9: the paper's Table I, measured.

Table I compares agreement protocols on messages / rounds / resilience /
knowledge model.  We run every comparator on the same simulator, same
faulty budget (``n/2 - 1``, the greatest value all protocols tolerate),
same uniformly random crash adversary, and report measured columns.

Shape checks (who wins, not absolute numbers):

* flooding pays quadratically: its messages dwarf everyone else's;
* our implicit agreement *grows* sublinearly while the O(n log n)
  protocols grow (super-)linearly — measured by doubling ratios;
* every protocol reaches its correctness condition w.h.p. under this
  adversary.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..analysis.stats import mean, summarize_trials
from ..core.families import FAMILIES
from ..core.runner import agree
from ..faults.strategies import RandomCrash
from .harness import Check, Experiment, ExperimentReport

#: The crash baselines' family rows, under their table labels.
BASELINES = {
    "gilbert-kowalski [24]": "gilbert_kowalski",
    "chlebus-kowalski [36]": "chlebus_kowalski",
    "rotating-coord [35,37]": "rotating_coordinator",
    "flooding (naive)": "flooding",
}


def _runners(n: int, faulty: int) -> Dict[str, Callable[[int], object]]:
    def ours(seed: int):
        return agree(
            n=n,
            alpha=0.5,
            inputs="mixed",
            seed=seed,
            adversary="random",
            faulty_count=faulty,
        )

    def baseline(row: str) -> Callable[[int], object]:
        return lambda seed: FAMILIES[row].run(
            n, seed=seed, adversary=RandomCrash(horizon=8), inputs="mixed",
            faulty_count=faulty,
        )

    return {
        "this paper (implicit)": ours,
        **{label: baseline(row) for label, row in BASELINES.items()},
    }


def _run_e9(quick: bool) -> ExperimentReport:
    sizes = [128, 256] if quick else [256, 512, 1024]
    trials = 3 if quick else 6
    rows: List[Dict[str, object]] = []
    by_protocol: Dict[str, List[float]] = {}
    success_by_protocol: Dict[str, List[float]] = {}
    from ..rng import seed_sequence

    for n in sizes:
        faulty = n // 2 - 1
        for name, runner in _runners(n, faulty).items():
            results = [runner(seed) for seed in seed_sequence(110 + n, trials)]
            messages = mean([r.messages for r in results])
            rounds = mean([r.rounds for r in results])
            success = summarize_trials([r.success for r in results])
            rows.append(
                {
                    "protocol": name,
                    "n": n,
                    "f": faulty,
                    "messages": round(messages),
                    "rounds": round(rounds, 1),
                    "success": success.rate,
                }
            )
            by_protocol.setdefault(name, []).append(messages)
            success_by_protocol.setdefault(name, []).append(success.rate)

    checks: List[Check] = []
    ours = by_protocol["this paper (implicit)"]
    flood = by_protocol["flooding (naive)"]
    checks.append(
        Check(
            "flooding pays quadratically vs our protocol",
            flood[-1] > 5 * ours[-1],
            f"flooding {flood[-1]:.0f} vs ours {ours[-1]:.0f} at n={sizes[-1]}",
        )
    )
    our_growth = ours[-1] / ours[0]
    flood_growth = flood[-1] / flood[0]
    checks.append(
        Check(
            "our growth rate is the slowest in the table",
            all(
                our_growth <= by_protocol[name][-1] / by_protocol[name][0] + 1e-9
                for name in by_protocol
            ),
            f"ours x{our_growth:.2f} vs flooding x{flood_growth:.2f} "
            f"over n={sizes[0]}..{sizes[-1]}",
        )
    )
    checks.append(
        Check(
            "every protocol meets its correctness condition w.h.p.",
            all(min(rates) >= (0.6 if quick else 0.8) for rates in success_by_protocol.values()),
            "success column",
        )
    )
    return ExperimentReport(
        experiment_id="E9",
        title="Table I: agreement protocol comparison (measured)",
        paper_claim="Table I: message/round/resilience comparison of crash-fault agreement protocols",
        rows=rows,
        checks=checks,
        columns=["protocol", "n", "f", "messages", "rounds", "success"],
    )


E9 = Experiment("E9", "Table I comparison", "Table I", _run_e9)
