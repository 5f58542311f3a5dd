"""Pinned outcomes of every runner entry point at one seed.

The five protocol entry points share one run path, and
``flooding_consensus`` shares its backend dispatch.  These pins hold
each of them to the exact outcome of the code before that path was
shared: same messages, bits, rounds, crashes and verdicts at n=128,
seed 7, under the random crash adversary.  A one-node
:class:`~repro.faults.byzantine.ByzantinePlan` on ``backend="vec"`` is
pinned too: vec cannot mirror a plan, so it falls back to the reference
engine and must land on the same run.
"""

import pytest

from repro.baselines.flooding import flooding_consensus
from repro.core.runner import (
    agree,
    agree_explicit,
    agree_via_election,
    elect_leader,
    elect_leader_explicit,
    make_inputs,
)
from repro.faults.byzantine import ByzantinePlan
from repro.faults.strategies import named_adversary

RUN = dict(n=128, alpha=0.5, seed=7, adversary="random")

ELECTION = {
    "n": 128,
    "alpha": 0.5,
    "adversary": "random@593",
    "success": True,
    "strict_success": True,
    "leader_node": 117,
    "leader_is_faulty": False,
    "committee_size": 54,
    "messages": 141533,
    "bits": 5347470,
    "rounds": 587,
    "horizon": 593,
    "rounds_executed": 587,
    "crashes": 64,
}

AGREEMENT = {
    "n": 128,
    "alpha": 0.5,
    "adversary": "random@237",
    "success": True,
    "decision": 0,
    "committee_size": 54,
    "messages": 9443,
    "bits": 85058,
    "rounds": 237,
    "horizon": 237,
    "rounds_executed": 237,
    "crashes": 64,
}


@pytest.mark.parametrize("backend", ["ref", "vec"])
def test_elect_leader(backend):
    assert elect_leader(**RUN, backend=backend).summary() == ELECTION


@pytest.mark.parametrize("backend", ["ref", "vec"])
def test_agree(backend):
    assert agree(**RUN, backend=backend).summary() == AGREEMENT


def test_elect_leader_explicit():
    result = elect_leader_explicit(**RUN)
    assert result.summary() == {
        **ELECTION,
        "adversary": "random@596",
        "messages": 145089,
        "bits": 5461262,
        "rounds": 595,
        "horizon": 596,
        "rounds_executed": 595,
    }
    assert result.explicit_success
    assert len(result.explicit_ranks) == 64
    assert set(result.explicit_ranks.values()) == {6830580}


def test_agree_explicit():
    result = agree_explicit(**RUN)
    assert result.summary() == {
        **AGREEMENT,
        "adversary": "random@240",
        "messages": 12816,
        "bits": 118646,
        "rounds": 239,
        "horizon": 240,
        "rounds_executed": 239,
    }
    assert result.explicit_success
    assert len(result.explicit_bits) == 64
    assert set(result.explicit_bits.values()) == {0}


def test_agree_via_election():
    assert agree_via_election(**RUN).summary() == {
        **AGREEMENT,
        "adversary": "random@593",
        "messages": 141533,
        "bits": 5347470,
        "rounds": 587,
        "horizon": 593,
        "rounds_executed": 587,
    }


def test_election_plan_on_vec_falls_back_to_ref():
    plan = ByzantinePlan(modes={5: "rank_forger"})
    result = elect_leader(**RUN, byzantine=plan, backend="vec")
    assert result.summary() == {
        **ELECTION,
        "adversary": "byz[1]+random@593",
        "leader_node": 5,
        "leader_is_faulty": True,
        "committee_size": 55,
        "messages": 133403,
        "bits": 4548502,
        "crashes": 62,
    }
    assert elect_leader(**RUN, byzantine=plan).summary() == result.summary()


def test_agreement_plan_on_vec_falls_back_to_ref():
    plan = ByzantinePlan(modes={5: "zero_forger"})
    result = agree(**RUN, byzantine=plan, backend="vec")
    assert result.summary() == {
        **AGREEMENT,
        "adversary": "byz[1]+random@237",
        "bits": 84987,
        "crashes": 62,
    }
    assert agree(**RUN, byzantine=plan).summary() == result.summary()


@pytest.mark.parametrize("backend", ["ref", "vec"])
def test_flooding_consensus(backend):
    outcome = flooding_consensus(
        128,
        make_inputs(128, "mixed", 7),
        seed=7,
        adversary=named_adversary("random", 20),
        faulty_count=16,
        backend=backend,
    )
    assert outcome.success
    assert outcome.messages == 24003
    assert outcome.rounds == 19
    assert outcome.crashed == {
        29: 9, 30: 1, 31: 19, 47: 6, 57: 1, 61: 16, 82: 10, 83: 5,
        94: 10, 100: 6, 104: 17, 107: 11, 108: 17, 110: 2, 117: 2, 125: 11,
    }
    assert set(outcome.decisions.values()) == {0}
    assert len(outcome.decisions) == 128 - 16
