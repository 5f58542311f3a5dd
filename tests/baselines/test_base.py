"""Unit tests for the baseline plumbing (repro.baselines.base)."""

import pytest

from repro.baselines.base import (
    BaselineOutcome,
    evaluate_explicit_agreement,
    evaluate_implicit_agreement,
)
from repro.baselines.ben_or import ben_or_consensus
from repro.baselines.flooding import flooding_consensus
from repro.sim.metrics import Metrics


def outcome(decisions, inputs=(0, 1, 1, 1)):
    return BaselineOutcome(
        protocol="test",
        n=4,
        faulty=set(),
        crashed={},
        metrics=Metrics(),
        decisions=dict(decisions),
        inputs=list(inputs),
    )


class TestExplicitEvaluator:
    def test_everyone_decided_same_valid_bit(self):
        o = outcome({0: 1, 1: 1, 2: 1, 3: 1})
        assert evaluate_explicit_agreement(o, alive=[0, 1, 2, 3])

    def test_missing_decision_fails(self):
        o = outcome({0: 1, 1: 1, 2: 1})
        assert not evaluate_explicit_agreement(o, alive=[0, 1, 2, 3])

    def test_crashed_nodes_excused(self):
        o = outcome({0: 1, 1: 1, 2: 1})
        assert evaluate_explicit_agreement(o, alive=[0, 1, 2])

    def test_split_fails(self):
        o = outcome({0: 0, 1: 1})
        assert not evaluate_explicit_agreement(o, alive=[0, 1])

    def test_invalid_value_fails(self):
        o = outcome({0: 0, 1: 0}, inputs=(1, 1, 1, 1))
        assert not evaluate_explicit_agreement(o, alive=[0, 1])


class TestImplicitEvaluator:
    def test_one_decider_suffices(self):
        o = outcome({0: 1})
        assert evaluate_implicit_agreement(o, alive=[0, 1, 2, 3])

    def test_nobody_decided_fails(self):
        o = outcome({})
        assert not evaluate_implicit_agreement(o, alive=[0, 1, 2, 3])

    def test_contradiction_fails(self):
        o = outcome({0: 0, 3: 1})
        assert not evaluate_implicit_agreement(o, alive=[0, 1, 2, 3])


class TestOutcome:
    def test_summary_keys(self):
        summary = outcome({}).summary()
        assert {"protocol", "n", "faulty", "success", "messages", "rounds", "crashes"} == set(summary)

    def test_message_and_round_proxies(self):
        o = outcome({})
        o.metrics.messages_sent = 12
        o.metrics.rounds = 7
        assert o.messages == 12
        assert o.rounds == 7


@pytest.mark.parametrize(
    "run",
    [
        lambda bits: flooding_consensus(8, bits),
        lambda bits: flooding_consensus(8, bits, backend="vec"),
        lambda bits: ben_or_consensus(8, bits),
    ],
    ids=["flooding-ref", "flooding-vec", "ben_or"],
)
class TestBaselineInputs:
    """The baselines reject bad input vectors with ``ValueError``."""

    def test_non_bit_input(self, run):
        with pytest.raises(ValueError, match="input bit must be 0 or 1, got 2"):
            run([0, 2] + [1] * 6)

    def test_wrong_length(self, run):
        with pytest.raises(ValueError, match="got 7 inputs for n=8"):
            run([0] * 7)
