"""Experiment E17: bounded-delay delivery (partial synchrony).

The paper's model is fully synchronous; this experiment measures what the
bounded-delay relaxation (:mod:`repro.sim.delivery`) costs and checks
that the delay layer is a strict generalisation:

* **Δ=0 is free** — running the paper's election under an explicit
  zero-delay schedule is message-for-message identical to the classic
  synchronous engine path (the schedule only adds code, never behaviour);
* **Ben-Or absorbs Δ** — the delay-tolerant baseline
  (:mod:`repro.baselines.ben_or`) keeps deciding correctly for Δ ∈
  {0, 1, 3} under random crashes, with wall-clock rounds stretching
  roughly linearly in ``1 + Δ`` while the *message* cost stays flat
  (delay slows rounds, not communication);
* **latency invariant** — every observed delivery latency lies in
  ``[1, 1 + Δ]`` (also enforced run-by-run by the validator's
  conservation/latency checks).
"""

from __future__ import annotations

from typing import List

from ..analysis.stats import mean, summarize_trials
from ..core.families import FAMILIES
from ..core.runner import elect_leader
from ..rng import seed_sequence
from ..sim.delivery import UniformDelay
from .harness import Check, Experiment, ExperimentReport


def _run_e17(quick: bool) -> ExperimentReport:
    n = 32 if quick else 64
    alpha = 0.5
    trials = 4 if quick else 10
    rows: List[dict] = []
    checks: List[Check] = []

    # Δ=0 parity: an explicit zero-delay schedule must not change the
    # synchronous engine's behaviour in any observable way.
    parity_n = 128
    baseline = elect_leader(n=parity_n, alpha=alpha, seed=7, adversary="random")
    delayed = elect_leader(
        n=parity_n,
        alpha=alpha,
        seed=7,
        adversary="random",
        delivery=UniformDelay(max_delay=0, salt=99),
    )
    parity = (
        baseline.metrics.messages_sent == delayed.metrics.messages_sent
        and baseline.metrics.rounds == delayed.metrics.rounds
        and baseline.leader_node == delayed.leader_node
    )
    rows.append(
        {
            "scenario": f"election n={parity_n}, Δ=0 schedule vs sync engine",
            "success": 1.0 if parity else 0.0,
            "messages": baseline.metrics.messages_sent,
            "rounds": baseline.metrics.rounds,
            "max_latency": 1,
        }
    )
    checks.append(
        Check(
            "Δ=0 schedule is byte-identical to the synchronous engine",
            parity,
            f"messages {baseline.metrics.messages_sent} vs "
            f"{delayed.metrics.messages_sent}",
        )
    )

    mean_rounds = {}
    mean_messages = {}
    for delta in (0, 1, 3):
        outcomes = []
        for seed in seed_sequence(170 + delta, trials):
            outcomes.append(
                FAMILIES["ben_or"].run(n, alpha, seed, "random", max_delay=delta)
            )
        success = summarize_trials([o.success for o in outcomes])
        mean_rounds[delta] = mean([o.rounds for o in outcomes])
        mean_messages[delta] = mean([o.messages for o in outcomes])
        max_latency = max(
            (
                latency
                for o in outcomes
                for latency in o.metrics.delivery_latency
            ),
            default=1,
        )
        rows.append(
            {
                "scenario": f"ben-or n={n}, Δ={delta}, random crashes",
                "success": success.rate,
                "messages": round(mean_messages[delta]),
                "rounds": round(mean_rounds[delta], 1),
                "max_latency": max_latency,
            }
        )
        checks.append(
            Check(
                f"ben-or decides under Δ={delta} with crashes",
                success.at_least(0.9),
                str(success),
            )
        )
        checks.append(
            Check(
                f"Δ={delta}: delivery latencies stay within 1 + Δ",
                max_latency <= 1 + delta,
                f"max observed latency {max_latency}",
            )
        )
    checks.append(
        Check(
            "delay stretches rounds, not messages",
            mean_rounds[3] > mean_rounds[0]
            and mean_messages[3] < 2 * mean_messages[0],
            f"rounds {mean_rounds[0]:.1f} -> {mean_rounds[3]:.1f}, "
            f"messages {mean_messages[0]:.0f} -> {mean_messages[3]:.0f}",
        )
    )
    return ExperimentReport(
        experiment_id="E17",
        title=f"bounded-delay delivery (n={n})",
        paper_claim=(
            "model extension: the synchronous engine generalises to "
            "delay-Δ delivery at zero cost for Δ=0, and a delay-tolerant "
            "protocol (Ben-Or) pays only rounds, not messages"
        ),
        rows=rows,
        checks=checks,
        columns=["scenario", "success", "messages", "rounds", "max_latency"],
    )


E17 = Experiment("E17", "bounded-delay delivery", "model extension", _run_e17)
