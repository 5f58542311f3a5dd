#!/usr/bin/env python
"""Byzantine frontier: where the crash-fault guarantees end.

The paper's protocols tolerate up to n - log^2(n) *crash* faults.  Its
conclusion asks (open problem 3) whether sublinear-message agreement can
survive *Byzantine* faults.  This example shows the cliff: the same
protocols that shrug off half the network crashing collapse against a
single actively lying node.

Usage::

    python examples/byzantine_frontier.py [n] [trials]
"""

import sys

from repro import agree, elect_leader
from repro.analysis.stats import summarize_trials
from repro.analysis.tables import format_table
from repro.faults.byzantine import ByzantinePlan
from repro.rng import RngFactory, seed_sequence
from repro.types import Decision

ALPHA = 0.5


def one_liar(n, seed, mode):
    """A plan making one seed-drawn node a Byzantine ``mode`` attacker."""
    (node,) = RngFactory(seed).stream("byzantine").sample(range(n), 1)
    return ByzantinePlan(modes={node: mode})


def forged_zero(result):
    """Some honest node decided 0 although every input is 1."""
    return any(
        d is Decision.ZERO
        for u, d in result.decisions.items()
        if u not in result.faulty
    )


def captured(result):
    """Every honest candidate believes the liar's forged rank 1."""
    beliefs = {r for u, r in result.beliefs.items() if u not in result.faulty}
    return beliefs - {None} == {1}


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    rows = []

    # Crash faults: half the network may die — business as usual.
    crash_ok = summarize_trials(
        [
            agree(n=n, alpha=ALPHA, inputs="all1", seed=seed, adversary="random").success
            for seed in seed_sequence(1, trials)
        ]
    )
    rows.append(
        {
            "scenario": f"{n // 2} crash-faulty nodes (paper model)",
            "guarantee": "agreement + validity",
            "survives": crash_ok.rate,
        }
    )

    # Byzantine: ONE forger, all-1 inputs — any decided 0 is fabricated.
    validity_ok = summarize_trials(
        [
            not forged_zero(
                agree(n=n, alpha=ALPHA, inputs="all1", seed=seed, adversary="none",
                      byzantine=one_liar(n, seed, "zero_forger"))
            )
            for seed in seed_sequence(2, trials)
        ]
    )
    rows.append(
        {
            "scenario": "1 Byzantine zero-forger",
            "guarantee": "validity",
            "survives": validity_ok.rate,
        }
    )

    crash_le = summarize_trials(
        [
            elect_leader(n=n, alpha=ALPHA, seed=seed, adversary="random").success
            for seed in seed_sequence(3, trials)
        ]
    )
    rows.append(
        {
            "scenario": f"{n // 2} crash-faulty nodes (election)",
            "guarantee": "unique leader",
            "survives": crash_le.rate,
        }
    )

    not_captured = summarize_trials(
        [
            not captured(
                elect_leader(n=n, alpha=ALPHA, seed=seed, adversary="none",
                             byzantine=one_liar(n, seed, "rank_forger"))
            )
            for seed in seed_sequence(4, trials)
        ]
    )
    rows.append(
        {
            "scenario": "1 Byzantine rank-forger (claims rank 1)",
            "guarantee": "election not captured",
            "survives": not_captured.rate,
        }
    )

    print(format_table(rows, title=f"crash vs Byzantine at n={n} ({trials} seeds)"))
    print(
        "\nthe committee trusts every well-formed message — one forged rank or "
        "bit hijacks it.  Making the committee verifiable without blowing the "
        "sqrt(n) message budget is exactly the paper's open problem 3."
    )


if __name__ == "__main__":
    main()
