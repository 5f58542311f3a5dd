"""Pinned outcomes of every runner entry point at one seed.

The five protocol entry points share one run path, and
``flooding_consensus`` shares its backend dispatch.  These pins hold
each of them to the exact outcome of the code before that path was
shared: same messages, bits, rounds, crashes and verdicts at n=128,
seed 7, under the random crash adversary.  A one-node
:class:`~repro.faults.byzantine.ByzantinePlan` on ``backend="vec"`` is
pinned too: vec cannot mirror a plan, so it falls back to the reference
engine and must land on the same run.

The consumers that look protocol families up by name are pinned the
same way, to the code before they shared one family table: Ben-Or runs
(plain, with a forger, under delay), the sim and loopback-wire sides of
every wire family's parity run, and one fuzz verdict per fuzzed family.

The leader-election paths that the vec parity grid never reaches are
pinned node by node: bounded-delay delivery, each election attacker
(at a seed where it drew the candidate coin and one where it did not),
the explicit variant and the agreement-via-election reduction.  Each
pin is the run's ``summary()`` plus a sha256 of every node's
``(rank, is_candidate, state, leader_rank)``, so a change to any one
node's candidate or referee outcome shows.
"""

import hashlib

import pytest

from repro.baselines.ben_or import ben_or_consensus, ben_or_horizon
from repro.baselines.flooding import flooding_consensus
from repro.chaos import PROTOCOLS, FuzzedAdversary, fuzz_scenario, run_scenario
from repro.core.ranks import draw_rank
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
from repro.net import WIRE_PROTOCOLS, WireSpec, default_script, run_loopback_trial
from repro.net.spec import metrics_dict, sim_reference
from repro.params import Params
from repro.parallel.tasks import fuzz_trial
from repro.rng import RngFactory
from repro.sim.delivery import UniformDelay
from repro.sim.network import Network

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


@pytest.fixture
def runs(monkeypatch):
    """Every :class:`RunResult` the reference engine returns, in order."""
    captured = []
    run = Network.run

    def capture(self, *args, **kwargs):
        captured.append(run(self, *args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(Network, "run", capture)
    return captured


def _node_digest(run, *extra):
    """sha256 of every node's election outputs plus the ``extra`` ones."""
    rows = []
    for u in range(run.n):
        protocol = run.protocol(u)
        row = [protocol.rank, protocol.is_candidate, protocol.state.name,
               protocol.leader_rank]
        for name in extra:
            value = getattr(protocol, name)
            row.append(getattr(value, "name", value))
        rows.append(tuple(row))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _draws_candidacy(seed, node, draws_rank):
    """Whether ``node``'s candidate coin comes up at ``seed`` (n=128)."""
    params = Params(n=128, alpha=0.5)
    rng = RngFactory(seed).node_stream(node)
    if draws_rank:
        draw_rank(rng, params.n, params.rank_exponent)
    return rng.random() < params.candidate_probability


def test_elect_leader_under_delay(runs):
    result = elect_leader(**RUN, delivery=UniformDelay(2, salt=7))
    assert result.summary() == {**ELECTION, "messages": 166832, "bits": 6200328}
    assert _node_digest(runs[-1]) == (
        "c53f13af4e55dade964213474a566feed0e8bc57d1b5cf63fcaae9f9415dcb10"
    )


#: mode, seed, node 5 draws the candidate coin, summary changes, digest.
ATTACKER_PINS = [
    ("rank_forger", 7, True, {
        "leader_node": 5, "leader_is_faulty": True, "committee_size": 55,
        "messages": 133403, "bits": 4548502, "crashes": 62,
    }, "d30ce46263c147ea2528236602354b67273f03f7ddd5952ffb5cea5464496106"),
    ("rank_forger", 0, False, {
        "leader_node": 5, "leader_is_faulty": True, "committee_size": 66,
        "messages": 193251, "bits": 6654230, "rounds": 581,
        "rounds_executed": 581, "crashes": 63,
    }, "0b6b8eabb6796d24cd1492cb93c6e88fa94a1c331665adb2c011cc548ca8ef97"),
    ("equivocator", 5, True, {
        "success": False, "strict_success": False, "leader_node": None,
        "leader_is_faulty": None, "committee_size": 55, "messages": 148133,
        "bits": 5237575, "rounds": 593, "rounds_executed": 593, "crashes": 63,
    }, "32916d8c53115f886eedab25096df8975934fc3ec5ba419a5abd45a221a9e961"),
    ("equivocator", 7, False, {
        "success": False, "strict_success": False, "leader_node": None,
        "leader_is_faulty": None, "committee_size": 55, "messages": 142391,
        "bits": 5034561, "rounds": 593, "rounds_executed": 593, "crashes": 62,
    }, "ff31712e110f47f9b58d856dd11bd8d7c902b789dad3bd545f43f3ff730633c7"),
    ("omission", 5, True, {
        "strict_success": False, "leader_node": 109, "leader_is_faulty": True,
        "committee_size": 55, "messages": 144838, "bits": 5474781,
        "rounds": 588, "rounds_executed": 588, "crashes": 63,
    }, "d0eedca27618ebb74d448f0149fb98cc92ec92e910dc17600684112d4e2ab93d"),
]


@pytest.mark.parametrize(
    "mode, seed, drawn, changes, digest", ATTACKER_PINS,
    ids=[f"{mode}-seed{seed}" for mode, seed, *_ in ATTACKER_PINS],
)
def test_one_node_election_attacker(runs, mode, seed, drawn, changes, digest):
    # A rank forger claims rank 1 without drawing one.
    assert _draws_candidacy(seed, 5, draws_rank=mode != "rank_forger") is drawn
    result = elect_leader(**{**RUN, "seed": seed}, byzantine=ByzantinePlan(modes={5: mode}))
    assert result.summary() == {
        **ELECTION, "adversary": "byz[1]+random@593", **changes,
    }
    assert _node_digest(runs[-1]) == digest


def test_elect_leader_explicit_per_node(runs):
    elect_leader_explicit(**RUN)
    assert _node_digest(runs[-1], "explicit_leader_rank") == (
        "c574123b15d785e5dab9bbd123303ebdd68f0d7e289ea64d6ea3bebe422183c5"
    )


def test_agree_via_election_per_node(runs):
    agree_via_election(**RUN)
    assert _node_digest(runs[-1], "decision") == (
        "c8803f96185c51df43316bda80ec1c57f8a15f5a8501f093714bfacd124d7f5b"
    )


BEN_OR = {
    "protocol": "ben-or",
    "n": 64,
    "faulty": 31,
    "success": True,
    "messages": 19026,
    "rounds": 42,
    "crashes": 31,
}


def _ben_or(max_delay=0, **kwargs):
    return ben_or_consensus(
        64,
        make_inputs(64, "mixed", 7),
        seed=7,
        adversary=named_adversary("random", ben_or_horizon(max_delay)),
        **kwargs,
    )


def test_ben_or_consensus():
    outcome = _ben_or()
    assert outcome.summary() == BEN_OR
    assert (outcome.metrics.bits_sent, outcome.horizon) == (253638, 42)
    assert set(outcome.decisions.values()) == {1}
    assert len(outcome.decisions) == 33


def test_ben_or_consensus_with_a_forger():
    outcome = _ben_or(byzantine=ByzantinePlan(modes={5: "zero_forger"}))
    assert outcome.summary() == {**BEN_OR, "messages": 7875, "crashes": 30}
    assert outcome.metrics.bits_sent == 92673
    assert set(outcome.decisions.values()) == {0}
    assert len(outcome.decisions) == 34


def test_ben_or_consensus_under_delay():
    outcome = _ben_or(max_delay=2, delivery=UniformDelay(2, salt=7))
    assert outcome.summary() == {**BEN_OR, "messages": 11592, "rounds": 119}
    assert (outcome.metrics.bits_sent, outcome.horizon) == (149184, 124)
    assert outcome.max_delay == 2
    assert set(outcome.decisions.values()) == {1}


WIRE_PINS = {
    "election": (
        {"messages_sent": 665, "messages_delivered": 665, "messages_dropped": 0,
         "bits_sent": 14770, "rounds": 106, "horizon": 160, "crashes": 2},
        {"protocol": "election", "success": True, "strict_success": False,
         "leader_node": 2, "elected_alive": [], "elected_crashed": [2],
         "candidates_all": [0, 1, 2, 3, 4, 5, 6, 7],
         "candidates_alive": [0, 1, 4, 5, 6, 7],
         "beliefs": {0: 365, 1: 365, 4: 365, 5: 365, 6: 365, 7: 365},
         "ranks": {0: 3614, 1: 3503, 2: 365, 3: 3149, 4: 3369, 5: 3244,
                   6: 3158, 7: 1650},
         "crashed": {2: 53, 3: 106}, "faulty": [2, 3]},
    ),
    "agreement": (
        {"messages_sent": 147, "messages_delivered": 147, "messages_dropped": 0,
         "bits_sent": 1323, "rounds": 47, "horizon": 71, "crashes": 2},
        {"protocol": "agreement", "success": True, "decision": 0,
         "decisions": {u: "ZERO" for u in (0, 1, 4, 5, 6, 7)},
         "candidates_all": [0, 1, 2, 3, 4, 5, 6, 7],
         "candidates_alive": [0, 1, 4, 5, 6, 7],
         "crashed": {2: 23, 3: 47}, "faulty": [2, 3]},
    ),
    "flooding": (
        {"messages_sent": 84, "messages_delivered": 71, "messages_dropped": 2,
         "bits_sent": 875, "rounds": 4, "horizon": 5, "crashes": 2},
        {"protocol": "flooding", "success": True,
         "decisions": {u: 0 for u in (0, 1, 4, 5, 6, 7)},
         "crashed": {2: 1, 3: 3}, "faulty": [2, 3]},
    ),
}


@pytest.mark.parametrize("protocol", WIRE_PROTOCOLS)
def test_sim_reference_and_loopback_wire_outcome(protocol):
    spec = WireSpec(protocol=protocol, n=8, seed=0)
    spec = spec.with_(script=default_script(spec))
    assert spec.script.faulty == (2, 3)
    metrics, outcome = sim_reference(spec)
    pinned_metrics, pinned_outcome = WIRE_PINS[protocol]
    sim = metrics_dict(metrics)
    assert {key: sim[key] for key in pinned_metrics} == pinned_metrics
    assert outcome == pinned_outcome
    trial = run_loopback_trial(spec)
    assert trial.ok, trial.reason
    assert trial.outcome == pinned_outcome
    assert trial.metrics_dict() == sim


#: (horizon, messages, faulty, crashes, rounds) of the fuzzed run at seed 1.
FUZZ_PINS = {
    "election": (162, 10214, 15, 13, 155),
    "agreement": (59, 1184, 15, 12, 51),
    "ben_or": (42, 12096, 15, 12, 42),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fuzz_verdict(protocol):
    assert fuzz_trial(seed=1, protocol=protocol, n=64, alpha=0.6) == {
        "protocol": protocol, "n": 64, "alpha": 0.6, "seed": 1, "failed": False,
    }
    scenario = fuzz_scenario(protocol, n=64, alpha=0.6)
    adversary = FuzzedAdversary(horizon=scenario.horizon(), label="fuzz@1")
    violations, result = run_scenario(scenario, 1, adversary)
    assert violations == []
    assert (
        scenario.horizon(), result.messages, len(result.faulty),
        result.metrics.crashes, result.rounds,
    ) == FUZZ_PINS[protocol]
