"""Pinned outcomes of the five Table I baseline entry points.

Each pin is a sha256 over a run's ``summary()``, its decisions or
elected nodes, its faulty set, its crash rounds, its inputs and its
``per_kind_messages``.  The points cover no adversary, a crash adversary
spending ``n/2 - 1`` faults (random, eager and staggered crashes) and a
run with no adversary but ``faulty_count > 0`` (the rotating
coordinator still runs ``f + 1`` phases).  The quick rows of experiments
E9 (Table I) and E12 (fault-free parity) are pinned the same way, as a
sha256 of their JSON.
"""

import hashlib
import json

import pytest

from repro.baselines import (
    augustine_agree,
    committee_agreement,
    gossip_consensus,
    kutten_elect_leader,
    rotating_coordinator_consensus,
)
from repro.core.runner import make_inputs
from repro.experiments import get_experiment
from repro.faults.strategies import EagerCrash, RandomCrash, StaggeredCrash


def _digest(outcome) -> str:
    facts = (
        sorted(outcome.summary().items()),
        sorted(outcome.decisions.items()),
        sorted(outcome.elected),
        sorted(outcome.faulty),
        sorted(outcome.crashed.items()),
        outcome.inputs and list(outcome.inputs),
        sorted(outcome.metrics.per_kind_messages.items()),
    )
    return hashlib.sha256(repr(facts).encode()).hexdigest()[:16]


FAULT_FREE = {
    (kutten_elect_leader, 64, 0): "b5e769c0ff1cf5e4",
    (kutten_elect_leader, 300, 3): "d1d548ab0a9326d4",
    (augustine_agree, 64, 0): "433df39f051906c4",
    (augustine_agree, 300, 3): "864925a435742866",
}


@pytest.mark.parametrize(
    "entry, n, seed", FAULT_FREE, ids=lambda v: getattr(v, "__name__", str(v))
)
def test_fault_free_baseline_pins(entry, n, seed):
    if entry is kutten_elect_leader:
        outcome = entry(n, seed=seed)
    else:
        outcome = entry(n, make_inputs(n, "mixed", seed), seed=seed)
    assert _digest(outcome) == FAULT_FREE[entry, n, seed]


ADVERSARIES = {
    None: lambda: None,
    "random": lambda: RandomCrash(horizon=8),
    "eager": EagerCrash,
    "staggered": lambda: StaggeredCrash(period=2),
}

#: ``(n, seed, adversary, faulty_count)`` -> pin per crash baseline.
CRASH = {
    (64, 0, None, 0): {
        "gilbert_kowalski": "b09c2e21b21c81f8",
        "chlebus_kowalski": "bcf0c2de25068170",
        "rotating_coordinator": "f7f10fbbceced9a9",
    },
    (64, 2, None, 31): {
        "gilbert_kowalski": "04f795ccbabbd1c2",
        "chlebus_kowalski": "b758280154bd75a5",
        "rotating_coordinator": "922a6ec0dec2a377",
    },
    (128, 1, "random", 63): {
        "gilbert_kowalski": "f515837f11c85f34",
        "chlebus_kowalski": "1599c9f940896175",
        "rotating_coordinator": "fae1ec7ff57e1ec6",
    },
    (300, 2, "eager", 149): {
        "gilbert_kowalski": "b31edc048f613517",
        "chlebus_kowalski": "83fbef2a672ed9e0",
        "rotating_coordinator": "2ce436d8d998d4cf",
    },
    (128, 3, "staggered", 63): {
        "gilbert_kowalski": "190dc8b8a41c7995",
        "chlebus_kowalski": "bee4262779f23e7c",
        "rotating_coordinator": "867bcbeb096b417b",
    },
}

ENTRIES = {
    "gilbert_kowalski": committee_agreement,
    "chlebus_kowalski": gossip_consensus,
    "rotating_coordinator": rotating_coordinator_consensus,
}


@pytest.mark.parametrize("name", ENTRIES)
@pytest.mark.parametrize("point", CRASH, ids=str)
def test_crash_baseline_pins(point, name):
    n, seed, adversary, faulty = point
    outcome = ENTRIES[name](
        n, make_inputs(n, "mixed", seed), seed=seed,
        adversary=ADVERSARIES[adversary](), faulty_count=faulty,
    )
    assert _digest(outcome) == CRASH[point][name]


@pytest.mark.parametrize(
    "experiment, pin", [("E9", "3519c1fd2258ccac"), ("E12", "d6b21c26c930904c")]
)
def test_quick_experiment_rows(experiment, pin):
    rows = get_experiment(experiment).run(quick=True).rows
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16] == pin
