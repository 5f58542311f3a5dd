"""Ben-Or baseline tests (repro.baselines.ben_or): correctness under
crashes and bounded delay, horizon arithmetic, early quiescence, and the
unauthenticated-certificate Byzantine weakness."""

import pytest

from repro.baselines.ben_or import (
    BOT,
    DEFAULT_MAX_PHASES,
    BenOrDecideForger,
    BenOrProtocol,
    ben_or_consensus,
    ben_or_horizon,
)
from repro.faults.byzantine import ByzantinePlan
from repro.faults.strategies import RandomCrash
from repro.sim.delivery import TargetedDelay, UniformDelay


def _inputs(n, pattern="mixed"):
    if pattern == "all1":
        return [1] * n
    if pattern == "all0":
        return [0] * n
    return [u % 2 for u in range(n)]


class TestHorizon:
    def test_synchronous_horizon(self):
        assert ben_or_horizon() == 2 * DEFAULT_MAX_PHASES + 2

    def test_delay_stretches_by_step(self):
        for delta in (1, 3):
            step = 1 + delta
            assert (
                ben_or_horizon(delta)
                == 2 * step * DEFAULT_MAX_PHASES + step + 1
            )

    def test_phase_cap_scales(self):
        assert ben_or_horizon(0, max_phases=5) == 12


class TestFaultFree:
    def test_unanimous_one_decides_one(self):
        outcome = ben_or_consensus(n=16, inputs=_inputs(16, "all1"), seed=1)
        assert outcome.success
        assert set(outcome.decisions.values()) == {1}
        assert len(outcome.decisions) == 16

    def test_unanimous_zero_decides_zero(self):
        outcome = ben_or_consensus(n=16, inputs=_inputs(16, "all0"), seed=1)
        assert outcome.success
        assert set(outcome.decisions.values()) == {0}

    def test_unanimous_decides_in_one_phase(self):
        # All reports agree, so phase 1 proposes and decides: two stages
        # of broadcast plus one certificate round.
        outcome = ben_or_consensus(n=16, inputs=_inputs(16, "all1"), seed=1)
        assert outcome.rounds <= 5
        assert outcome.rounds < outcome.horizon

    def test_mixed_inputs_decide_valid_bit(self):
        for seed in range(5):
            outcome = ben_or_consensus(n=16, inputs=_inputs(16), seed=seed)
            assert outcome.success
            assert set(outcome.decisions.values()) <= {0, 1}

    def test_deterministic_replay(self):
        a = ben_or_consensus(n=16, inputs=_inputs(16), seed=9)
        b = ben_or_consensus(n=16, inputs=_inputs(16), seed=9)
        assert a.decisions == b.decisions
        assert a.messages == b.messages
        assert a.rounds == b.rounds

    def test_input_validation(self):
        with pytest.raises(ValueError, match="inputs"):
            ben_or_consensus(n=8, inputs=[1, 0], seed=0)
        with pytest.raises(ValueError, match="input bit"):
            BenOrProtocol(0, 8, 2, 3)


class TestCrashTolerance:
    def test_decides_under_max_crashes(self):
        n = 32
        budget = (n - 1) // 2
        for seed in range(6):
            outcome = ben_or_consensus(
                n=n,
                inputs=_inputs(n),
                seed=seed,
                adversary=RandomCrash(horizon=ben_or_horizon()),
                faulty_count=budget,
            )
            assert outcome.success, (seed, outcome.summary())

    def test_crashed_nodes_excluded_from_decisions(self):
        outcome = ben_or_consensus(
            n=16,
            inputs=_inputs(16),
            seed=2,
            adversary=RandomCrash(horizon=4),
            faulty_count=7,
        )
        assert not set(outcome.decisions) & set(outcome.crashed)


class TestDelayTolerance:
    @pytest.mark.parametrize("delta", [1, 3])
    def test_decides_under_uniform_delay(self, delta):
        n = 16
        for seed in range(4):
            outcome = ben_or_consensus(
                n=n,
                inputs=_inputs(n),
                seed=seed,
                delivery=UniformDelay(delta, salt=seed),
            )
            assert outcome.success, (delta, seed, outcome.summary())
            assert outcome.max_delay == delta
            latencies = set(outcome.metrics.delivery_latency)
            assert latencies <= set(range(1, delta + 2))

    def test_decides_under_delay_and_crashes(self):
        n = 24
        budget = (n - 1) // 2
        delta = 2
        for seed in range(4):
            outcome = ben_or_consensus(
                n=n,
                inputs=_inputs(n),
                seed=seed,
                adversary=RandomCrash(horizon=ben_or_horizon(delta)),
                faulty_count=budget,
                delivery=UniformDelay(delta, salt=seed),
            )
            assert outcome.success, (seed, outcome.summary())

    def test_targeted_victim_still_decides(self):
        # Lagging one node's incoming links slows it, not the protocol.
        outcome = ben_or_consensus(
            n=16,
            inputs=_inputs(16, "all1"),
            seed=3,
            delivery=TargetedDelay({1: 2}),
        )
        assert outcome.success
        assert outcome.decisions[1] == 1

    def test_quiesces_well_before_stretched_horizon(self):
        # Decided nodes halt; the engine must fast-forward out instead of
        # burning the full Δ-stretched timetable (the halted-node and
        # duplicate-wake engine regressions both showed up here).
        delta = 3
        outcome = ben_or_consensus(
            n=16,
            inputs=_inputs(16),
            seed=4,
            delivery=UniformDelay(delta, salt=4),
        )
        assert outcome.success
        assert outcome.rounds < ben_or_horizon(delta) // 2


class TestByzantineWeakness:
    def test_forged_certificate_collapses_validity(self):
        # All honest inputs are 1; one forged decide-0 certificate makes
        # every honest node adopt 0 — agreement holds, validity dies.
        n = 16
        plan = ByzantinePlan(modes={5: "zero_forger"})
        outcome = ben_or_consensus(
            n=n, inputs=_inputs(n, "all1"), seed=1, byzantine=plan
        )
        honest = [u for u in range(n) if u != 5 and u not in outcome.crashed]
        assert all(outcome.decisions.get(u) == 0 for u in honest)
        assert not outcome.success

    def test_forger_counts_against_budget(self):
        plan = ByzantinePlan(modes={3: "zero_forger"})
        outcome = ben_or_consensus(
            n=16, inputs=_inputs(16, "all1"), seed=1, byzantine=plan
        )
        assert 3 in outcome.faulty
        assert 3 not in outcome.crashed

    def test_forger_protocol_shape(self):
        forger = BenOrDecideForger(4, 16)
        assert forger.decided == 0

    def test_omission_mode_wraps_ben_or(self):
        plan = ByzantinePlan(
            modes={2: "omission"}, omission_fraction=0.9, salt=5
        )
        outcome = ben_or_consensus(
            n=16, inputs=_inputs(16, "all1"), seed=6, byzantine=plan
        )
        # A mostly-mute node cannot stop the others (f < n/2 tolerance).
        honest = [u for u in range(16) if u != 2]
        assert all(outcome.decisions.get(u) == 1 for u in honest)


class TestProtocolInternals:
    def test_bot_is_not_a_bit(self):
        assert BOT not in (0, 1)

    def test_step_tracks_delay(self):
        assert BenOrProtocol(0, 8, 1, 3).step == 1
        assert BenOrProtocol(0, 8, 1, 3, max_delay=4).step == 5


class TestTrialTask:
    def test_crashes_are_sampled_against_the_trial_horizon(self):
        """A shorter ``max_phases`` run still lands its whole crash budget."""
        from repro.parallel.tasks import ben_or_trial

        summary = ben_or_trial(
            seed=3, n=64, alpha=0.5, adversary="random", max_phases=2
        )
        assert summary["faulty"] == 31
        assert summary["crashes"] == 31

    def test_forwards_only_ben_or_consensus_options(self):
        """Run knobs ``ben_or_consensus`` does not take stay rejected."""
        from repro.parallel.tasks import ben_or_trial

        with pytest.raises(TypeError, match="faulty_count"):
            ben_or_trial(seed=1, n=16, faulty_count=3)
        with pytest.raises(TypeError, match="backend"):
            ben_or_trial(seed=1, n=16, backend="vec")

    def test_echoes_its_point(self):
        from repro.parallel.tasks import ben_or_trial

        summary = ben_or_trial(seed=1, n=16, alpha=0.75, max_delay=1, profile=True)
        assert (summary["alpha"], summary["adversary"], summary["max_delay"]) == (
            0.75, "random", 1,
        )
        assert list(summary)[-1] == "phase_seconds"

