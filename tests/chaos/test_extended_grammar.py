"""Extended-grammar tests (repro.chaos.grammar layers 4/5 and the fuzzer
plumbing around them): legacy stream compatibility, eager sampling,
fragile-oracle downgrades, findings routing, and shrinking a Byzantine
counterexample down to its essential liar."""

import json
import random

import pytest

from repro.chaos.fuzzer import (
    PROTOCOLS,
    FuzzCase,
    fuzz,
    fuzz_one,
    fuzz_scenario,
    replay_case,
)
from repro.chaos.grammar import FuzzedAdversary, GrammarConfig, sample_script
from repro.chaos.oracles import FRAGILE_PREFIXES, downgrade_fragile
from repro.chaos.script import CrashScript, DeliveryFilter
from repro.chaos.shrink import shrink_case
from repro.core.families import FAMILIES
from repro.errors import ConfigurationError
from repro.faults.byzantine import ByzantinePlan
from repro.sim.delivery import UniformDelay


class TestGrammarLayers:
    def test_default_config_is_crash_only(self):
        config = GrammarConfig()
        assert not config.extended
        script = sample_script(random.Random(5), n=32, max_faulty=12, horizon=20)
        assert not script.byzantine.modes
        assert script.delivery.is_synchronous

    def test_extended_flag(self):
        assert GrammarConfig(byzantine_modes=("omission",)).extended
        assert GrammarConfig(max_delay=2).extended
        assert not GrammarConfig(byzantine_probability=0.9).extended

    def test_legacy_stream_unchanged_by_extension(self):
        # Layers 4/5 draw *after* the crash layers, so the same RNG state
        # yields bit-identical crash schedules whether or not the
        # extension is enabled — legacy (seed, config) pairs regenerate
        # the schedules they always did.
        extended = GrammarConfig(
            byzantine_modes=("omission", "zero_forger"), max_delay=3
        )
        plain = sample_script(
            random.Random(42), n=32, max_faulty=12, horizon=20
        )
        widened = sample_script(
            random.Random(42), n=32, max_faulty=12, horizon=20, config=extended
        )
        assert widened.faulty == plain.faulty
        assert widened.crashes == plain.crashes

    def test_extended_draws_are_deterministic(self):
        config = GrammarConfig(
            byzantine_modes=("omission", "zero_forger"),
            byzantine_probability=1.0,
            max_delay=3,
            delay_probability=1.0,
        )
        a = sample_script(random.Random(7), n=32, max_faulty=12, horizon=20, config=config)
        b = sample_script(random.Random(7), n=32, max_faulty=12, horizon=20, config=config)
        assert a.to_dict() == b.to_dict()

    def test_byzantine_layer_respects_budget_and_caps(self):
        config = GrammarConfig(
            byzantine_modes=("omission", "zero_forger"),
            byzantine_probability=1.0,
            max_byzantine=2,
        )
        for seed in range(30):
            script = sample_script(
                random.Random(seed), n=24, max_faulty=8, horizon=15, config=config
            )
            byz = script.byzantine.nodes
            assert len(byz) <= 2
            assert len(script.faulty) + len(byz) <= 8
            assert not byz & set(script.faulty)
            assert set(script.byzantine.modes.values()) <= {
                "omission",
                "zero_forger",
            }

    def test_delay_layer_bounded(self):
        config = GrammarConfig(max_delay=4, delay_probability=1.0)
        delays = set()
        for seed in range(30):
            script = sample_script(
                random.Random(seed), n=16, max_faulty=4, horizon=10, config=config
            )
            delays.add(script.max_delay)
        assert delays <= {1, 2, 3, 4}
        assert len(delays) > 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GrammarConfig(byzantine_modes=("sleeper",))
        with pytest.raises(ConfigurationError):
            GrammarConfig(max_delay=-1)
        with pytest.raises(ConfigurationError):
            GrammarConfig(byzantine_probability=2.0)

    def test_fuzzed_adversary_rejects_extended_config(self):
        with pytest.raises(ConfigurationError, match="eagerly"):
            FuzzedAdversary(horizon=10, config=GrammarConfig(max_delay=2))


class TestFragileOracles:
    def test_downgrade_rewrites_oracle_prefix(self):
        violations = [
            "oracle: two leaders elected",
            "model: conservation broken",
        ]
        downgraded = downgrade_fragile(violations, prefix="byzantine")
        assert downgraded == [
            "byzantine: two leaders elected",
            "model: conservation broken",
        ]

    def test_async_prefix_supported(self):
        assert downgrade_fragile(["oracle: x"], prefix="async") == ["async: x"]

    def test_unknown_prefix_rejected(self):
        with pytest.raises(ValueError):
            downgrade_fragile(["oracle: x"], prefix="cosmic")

    def test_is_finding_requires_all_fragile(self):
        scenario = fuzz_scenario("agreement", n=16)
        script = CrashScript()
        fragile = FuzzCase(scenario.with_(seed=0, adversary=script), ["byzantine: validity broken"])
        assert fragile.is_finding
        mixed = FuzzCase(
            scenario.with_(seed=0, adversary=script),
            ["byzantine: validity broken", "model: conservation broken"],
        )
        assert not mixed.is_finding
        clean = FuzzCase(scenario.with_(seed=0, adversary=script), [])
        assert not clean.is_finding

    def test_scenario_mode_table_complete(self):
        assert all(FAMILIES[name].modes for name in PROTOCOLS)
        assert [name for name in PROTOCOLS if FAMILIES[name].delay_tolerant] == ["ben_or"]
        for prefix in FRAGILE_PREFIXES:
            assert prefix in ("byzantine", "async")


class TestFuzzOneExtended:
    def test_modes_filtered_per_family(self):
        # An agreement trial must never instantiate a rank forger: with
        # only election modes configured the effective pool is empty, so
        # the sampled script is crash-only.
        config = GrammarConfig(
            byzantine_modes=("rank_forger", "equivocator"),
            byzantine_probability=1.0,
        )
        scenario = fuzz_scenario("agreement", n=16, inputs="all1")
        for seed in (3, 11, 27):
            case = fuzz_one(scenario, seed, config=config)
            if case is not None:
                assert not case.script.byzantine.modes

    def test_forged_certificate_surfaces_as_finding(self):
        config = GrammarConfig(
            byzantine_modes=("zero_forger",),
            byzantine_probability=1.0,
            max_byzantine=1,
        )
        scenario = fuzz_scenario("ben_or", n=16, inputs="all1")
        findings = []
        for seed in range(8):
            case = fuzz_one(scenario, seed, config=config)
            if case is not None and case.is_finding:
                findings.append(case)
        assert findings, "no zero-forger trial produced a finding"
        case = findings[0]
        assert "zero_forger" in case.script.byzantine.modes.values()
        assert all(v.startswith("byzantine:") for v in case.violations)
        # The recorded case replays to the same violations.
        assert replay_case(case) == case.violations


class TestFindingsRouting:
    def _campaign(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        config = GrammarConfig(
            byzantine_modes=("zero_forger",),
            byzantine_probability=1.0,
            max_byzantine=1,
        )
        report = fuzz(
            [fuzz_scenario("ben_or", n=16, inputs="all1")],
            seeds=6,
            config=config,
            shrink_failures=False,
            journal=str(journal),
        )
        return report, journal

    def test_findings_do_not_fail_the_campaign(self, tmp_path):
        report, _ = self._campaign(tmp_path)
        assert report.clean
        assert not report.failures
        assert report.findings
        assert report.summary()["findings"] == len(report.findings)

    def test_journal_marks_findings(self, tmp_path):
        _, journal = self._campaign(tmp_path)
        records = [
            json.loads(line)
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        statuses = {r.get("status") for r in records if "status" in r}
        assert "finding" in statuses
        assert "violation" not in statuses
        finding = next(r for r in records if r.get("status") == "finding")
        # The journalled script is a complete v2 reproducer.
        script = CrashScript.from_dict(finding["script"])
        assert script.byzantine.modes


class TestByzantineShrink:
    def test_seeded_violation_shrinks_to_essential_liar(self):
        # A deliberately bloated schedule — crashes, extra faulty nodes,
        # a delay bound, and one forger — must shrink to (at most) two
        # faulty nodes while still breaking validity the same way.
        scenario = fuzz_scenario("ben_or", n=16, inputs="all1")
        script = CrashScript(
            faulty=(1, 2, 3),
            crashes={
                1: (3, DeliveryFilter(kind="drop_all")),
                2: (5, DeliveryFilter(kind="keep_fraction", fraction=0.4, salt=9)),
            },
            byzantine=ByzantinePlan(modes={7: "zero_forger"}, salt=3),
            delivery=UniformDelay(1, salt=8),
            label="seeded",
        )
        violations = replay_case(FuzzCase(scenario.with_(seed=0, adversary=script)))
        case = FuzzCase(scenario.with_(seed=0, adversary=script), violations)
        assert case.is_finding
        assert "byzantine" in case.signature

        shrunk = shrink_case(case)
        assert shrunk.signature == case.signature
        total_faulty = len(shrunk.script.faulty) + len(
            shrunk.script.byzantine.modes
        )
        assert total_faulty <= 2
        assert "zero_forger" in shrunk.script.byzantine.modes.values()
        assert shrunk.script.size() <= case.script.size()
        # The minimised schedule still reproduces.
        assert replay_case(shrunk) == shrunk.violations


class TestBenOrBudget:
    """Fuzzed Ben-Or runs stay within its ``f < n/2`` resilience bound."""

    SCENARIO = fuzz_scenario(protocol="ben_or", n=64, alpha=0.3)

    def test_crash_only_runs(self):
        from repro.chaos.fuzzer import run_scenario

        for seed in range(30):
            adversary = FuzzedAdversary(
                horizon=self.SCENARIO.horizon(), label=f"fuzz@{seed}"
            )
            _, result = run_scenario(self.SCENARIO, seed, adversary)
            assert len(result.faulty) <= 31, seed

    def test_extended_scripts(self, monkeypatch):
        import repro.chaos.fuzzer as fuzzer_module

        scripts = []

        def record(scenario, seed, adversary):
            scripts.append(adversary)
            return [], None

        monkeypatch.setattr(fuzzer_module, "run_scenario", record)
        config = GrammarConfig(max_delay=1, saturate_budget=True)
        for seed in range(5):
            fuzz_one(self.SCENARIO, seed, config=config)
        assert [len(script.faulty) for script in scripts] == [31] * 5
