"""Pinned trace digests of the reference engine.

Each pin is a sha256 over every trace event's ``(round, kind, src, dst,
message_kind, round_received)``, in the order the engine recorded it,
plus the run's ``per_kind_messages``, ``per_round_messages`` and
``delivery_latency``.  Summary and per-node pins cannot see the order of
a sender's outbox or of a receiver's inbox; these do: a change to the
order in which a node's queued destinations go on the wire moves the
send events, and for a crashing sender it moves which envelopes its
``keep_fraction`` draw drops.

The runs cover every path a message can take through the engine: an
election under the random and the staggered crash adversary (faulty
senders lose part of their crash-round outbox), a budget-suppressed
election, an agreement run under bounded delay (delayed arrivals and
expiries resolved at the top of their arrival round) and a flooding run.
"""

import hashlib
import json

import pytest

from repro.core.families import FAMILIES
from repro.core.runner import agree, elect_leader, make_inputs
from repro.lowerbound.budget import run_budgeted_election
from repro.sim.delivery import UniformDelay

ELECTION = dict(n=128, alpha=0.5, seed=7)
BUDGET = 70000  # about half of the uncapped run's 141533 messages


def _digest(result) -> str:
    """sha256 of a traced run's events and per-kind/round/latency counts."""
    h = hashlib.sha256()
    for e in result.trace.events:
        key = (e.round, e.kind, e.src, e.dst, e.message_kind, e.round_received)
        h.update(repr(key).encode())
    metrics = result.metrics
    h.update(
        json.dumps(
            [
                sorted(metrics.per_kind_messages.items()),
                metrics.per_round_messages,
                sorted(metrics.delivery_latency.items()),
            ]
        ).encode()
    )
    return h.hexdigest()


def _flooding():
    return FAMILIES["flooding"].run(
        48, seed=7, adversary="random", inputs=make_inputs(48, "mixed", 7),
        faulty_count=10, collect_trace=True,
    )


RUNS = {
    "election-random": lambda: elect_leader(
        **ELECTION, adversary="random", collect_trace=True
    ),
    "election-staggered": lambda: elect_leader(
        **ELECTION, adversary="staggered", collect_trace=True
    ),
    "election-budget": lambda: elect_leader(
        **ELECTION, adversary="random", message_budget=BUDGET, collect_trace=True
    ),
    "agreement-delay2": lambda: agree(
        **ELECTION, adversary="random", delivery=UniformDelay(2),
        collect_trace=True,
    ),
    "flooding": _flooding,
}

PINS = {
    "election-random": (
        283130, "aef4317a2d14e56133e8a6ca67459ab4a6a89a69997dd5080adc62e5e77c477e"
    ),
    "election-staggered": (
        252104, "dd4ca469a073f9e8342804e0ee85a51ddd60cda31750adfe7519479ae5235123"
    ),
    "election-budget": (
        140064, "6cacfb5aac740707536cb543d97213fb6963e6a8bbed712d81b1b8e0814bf9d5"
    ),
    "agreement-delay2": (
        13854, "0b4e412920de648cd8cefd6e6ba1087433685d9063fe269591884dbff7e0a362"
    ),
    "flooding": (
        7060, "debccc1d5221e600fbce448f20fe7d19887efc61a391d2912a6c7637afd580a7"
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_digest(name):
    result = RUNS[name]()
    events, digest = PINS[name]
    assert (len(result.trace.events), _digest(result)) == (events, digest)


def test_budget_pin_is_the_budgeted_entry_point():
    # The traced budget run is the run ``run_budgeted_election`` makes.
    untraced = run_budgeted_election(**ELECTION, budget=BUDGET, adversary="random")
    assert untraced.messages == BUDGET


def test_delay_pin_reaches_delayed_arrivals_and_expiries():
    result = RUNS["agreement-delay2"]()
    latency = result.metrics.delivery_latency
    assert set(latency) == {1, 2, 3}
    assert result.metrics.messages_expired > 0
