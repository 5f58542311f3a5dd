"""Tests for the fuzzing campaign layer (repro.chaos.fuzzer).

The headline property test — ``test_fifty_seeds_no_violations`` — is the
empirical analogue of the paper's "for every adversary" quantifier: 50
random schedules per protocol, every run checked against the model
validator and the safety oracles.
"""

import pytest

from repro.chaos import (
    CrashScript,
    DeliveryFilter,
    FuzzCase,
    classify,
    default_scenarios,
    fuzz,
    fuzz_one,
    fuzz_scenario,
    replay_case,
    run_scenario,
    shrink_case,
)
from repro.chaos import fuzzer as fuzzer_module
from repro.chaos.grammar import FuzzedAdversary
from repro.core.families import RunPoint
from repro.core.families import RunPoint
from repro.errors import ConfigurationError
from repro.exec import Journal
from repro.parallel.supervisor import PoolSupervisor


class TestFuzzScenario:
    def test_round_trip(self):
        scenario = fuzz_scenario(protocol="agreement", n=48, alpha=0.4, inputs=(0, 1))
        assert RunPoint.from_dict(scenario.to_dict()) == scenario

    def test_case_round_trips_at_the_current_version(self):
        script = CrashScript(faulty=(1,), crashes={1: (2, DeliveryFilter(kind="drop_all"))})
        case = FuzzCase(fuzz_scenario("election", n=32).with_(seed=5, adversary=script), ["x"])
        data = case.to_dict()
        assert (data["version"], data["point"]["seed"]) == (3, 5)
        assert data["point"]["inputs"] is None
        assert FuzzCase.from_dict(data) == case

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            fuzz_scenario(protocol="paxos")

    def test_horizon_positive(self):
        for scenario in default_scenarios(n=48):
            assert scenario.horizon() >= 1


class TestClassify:
    def test_prefixes(self):
        assert classify(["oracle: two leaders"]) == ("oracle",)
        assert classify(["engine: SimulationError: x"]) == ("engine",)
        assert classify(["model: round 3: phantom delivery"]) == ("model",)
        assert classify(
            ["oracle: a", "model: b", "engine: c"]
        ) == ("engine", "model", "oracle")
        assert classify([]) == ()


@pytest.mark.fuzz
class TestFuzzCampaign:
    def test_fifty_seeds_no_violations(self):
        """50 random schedules x {LE, agreement}: zero safety violations."""
        report = fuzz(default_scenarios(n=64), seeds=50, master_seed=0)
        assert report.attempted == 100
        details = [case.to_json() for case in report.failures]
        assert report.clean, f"fuzzer found violations: {details}"

    def test_budget_mode_runs_at_least_one_round(self):
        report = fuzz(default_scenarios(n=64), budget_seconds=0.0, master_seed=1)
        assert report.attempted == 2  # one trial per scenario minimum
        assert report.clean

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_budget_run_is_one_pool_over_a_serial_prefix(self, jobs, monkeypatch):
        """A budget campaign streams its seeds through one pool (none at
        jobs=1) and keeps whole seed indices of the serial order."""
        pools = []
        new_pool = PoolSupervisor._new_pool

        def counting(self):
            pools.append(self)
            return new_pool(self)

        monkeypatch.setattr(PoolSupervisor, "_new_pool", counting)
        scenarios = default_scenarios(n=64)
        report = fuzz(scenarios, budget_seconds=1.0, master_seed=3, jobs=jobs)
        assert len(pools) == (1 if jobs > 1 else 0)
        assert report.trials and len(report.trials) % len(scenarios) == 0
        serial = fuzz(
            scenarios, seeds=len(report.trials) // len(scenarios), master_seed=3
        )
        assert report.trials == serial.trials

    def test_trials_are_journalled_as_they_finish(self, tmp_path, monkeypatch):
        """Each trial is journalled before the next one starts, so a
        campaign killed part-way keeps every trial it finished."""
        path = tmp_path / "fuzz.jsonl"
        real_fuzz_one = fuzzer_module.fuzz_one
        journalled_before_each_trial = []

        def watching(scenario, seed, config=None):
            journalled_before_each_trial.append(len(Journal(str(path)).load()))
            return real_fuzz_one(scenario, seed, config=config)

        monkeypatch.setattr(fuzzer_module, "fuzz_one", watching)
        report = fuzz(default_scenarios(n=64), seeds=2, journal=str(path))
        assert report.clean
        assert journalled_before_each_trial == [0, 1, 2, 3]


class TestReplayDeterminism:
    def test_fuzzed_run_replays_identically_from_script(self):
        """The recorded CrashScript reproduces the fuzzed run bit-for-bit."""
        scenario = fuzz_scenario(protocol="election", n=64)
        for seed in (0, 1, 2):
            adversary = FuzzedAdversary(horizon=scenario.horizon())
            live_violations, live = run_scenario(scenario, seed, adversary)
            assert live_violations == []
            script = adversary.script
            replay_violations, replayed = run_scenario(scenario, seed, script)
            assert replay_violations == []
            assert replayed.elected_alive == live.elected_alive
            assert replayed.beliefs == live.beliefs
            assert replayed.crashed == live.crashed
            assert replayed.metrics.messages_sent == live.metrics.messages_sent
            assert replayed.metrics.messages_dropped == live.metrics.messages_dropped
            assert replayed.rounds == live.rounds


class TestBrokenAdversaryIsCaught:
    """An intentionally malformed schedule must be caught, shrunk, and replayable."""

    def _broken_case(self):
        # Crashes a node that was never selected as faulty: violates the
        # model's fault discipline, so the engine must refuse.
        script = CrashScript(
            faulty=(1, 2),
            crashes={
                1: (2, DeliveryFilter(kind="drop_all")),
                50: (4, DeliveryFilter(kind="drop_all")),
            },
            label="broken",
        )
        scenario = fuzz_scenario(protocol="election", n=64)
        case = FuzzCase(scenario.with_(adversary=script))
        case.violations = replay_case(case)
        return case

    def test_caught(self):
        case = self._broken_case()
        assert case.violations
        assert case.signature == ("engine",)
        assert any("non-faulty" in v for v in case.violations)

    def test_shrunk_to_minimal(self):
        shrunk = shrink_case(self._broken_case())
        # Only the illegal crash can be load-bearing.
        assert set(shrunk.script.crashes) == {50}
        assert shrunk.script.faulty == ()
        assert shrunk.signature == ("engine",)

    def test_replay_is_deterministic(self):
        shrunk = shrink_case(self._broken_case())
        first = replay_case(shrunk)
        second = replay_case(shrunk)
        assert first == second == shrunk.violations

    def test_round_trips_through_json(self):
        case = self._broken_case()
        restored = FuzzCase.from_json(case.to_json())
        assert restored.script == case.script
        assert restored.point == case.point
        assert replay_case(restored) == case.violations


class TestFuzzOne:
    def test_clean_seed_returns_none(self):
        scenario = fuzz_scenario(protocol="agreement", n=64)
        assert fuzz_one(scenario, seed=0) is None

    def test_requires_scenarios(self):
        with pytest.raises(ConfigurationError):
            fuzz([], seeds=1)

    @pytest.mark.parametrize(
        "kwargs, shown",
        [
            ({"seeds": 0}, "got 0"),
            ({"budget_seconds": float("nan")}, "got nan"),
            ({"budget_seconds": float("inf")}, "got inf"),
            ({"budget_seconds": -1.0}, "got -1.0"),
        ],
    )
    def test_vacuous_campaign_rejected(self, kwargs, shown):
        with pytest.raises(ConfigurationError, match=shown):
            fuzz(default_scenarios(n=64), **kwargs)
