"""Spec + loopback parity tests (the transport-free half of the oracle).

The loopback backend drives the same :class:`~repro.sim.adapter.NodeRuntime`
objects and the same :class:`~repro.net.rounds.RoundAccountant` as the real
wire, minus sockets and processes — so these tests pin the *accounting*
exactness at sim speed, leaving only transport concerns to test_wire.py.
"""

import json

import pytest

from repro.chaos.script import CrashScript, DeliveryFilter
from repro.errors import ConfigurationError
from repro.faults.byzantine import ByzantinePlan
from repro.sim.delivery import UniformDelay
from repro.net import (
    PARITY_MODES,
    WIRE_PROTOCOLS,
    WireSpec,
    default_script,
    parity_grid,
    run_loopback_trial,
    run_parity_trial,
)
from repro.net.spec import metrics_dict, sim_reference


class TestWireSpec:
    def test_round_trips_through_json_dict(self):
        spec = WireSpec(protocol="agreement", n=16, seed=3, inputs="ones")
        spec = spec.with_(script=default_script(spec))
        clone = WireSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_round_trips_every_field_through_json(self):
        spec = WireSpec(
            protocol="flooding", n=12, alpha=0.5, seed=7, inputs="all1",
            faulty_count=3, extra_rounds=2, host="localhost",
            heartbeat_interval=0.2, suspicion_threshold=5, round_timeout=9.0,
            setup_timeout=4.0, trial_timeout=60.0,
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert list(data)[:3] == ["protocol", "n", "alpha"]
        assert WireSpec.from_dict(data) == spec

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown wire protocol"):
            WireSpec(protocol="paxos", n=8)

    def test_rejects_byzantine_scripts(self):
        script = CrashScript(
            faulty=(1,),
            crashes={},
            byzantine=ByzantinePlan(modes={1: "equivocator"}),
        )
        spec = WireSpec(protocol="election", n=8, script=script)
        with pytest.raises(ConfigurationError, match="Byzantine"):
            spec.validate()

    def test_rejects_delayed_delivery_scripts(self):
        script = CrashScript(
            faulty=(1,),
            crashes={},
            delivery=UniformDelay(2, salt=0),
        )
        spec = WireSpec(protocol="election", n=8, script=script)
        with pytest.raises(ConfigurationError, match="round-synchronous"):
            spec.validate()

    def test_rejects_crashes_outside_the_faulty_set(self):
        script = CrashScript(
            faulty=(1,),
            crashes={2: (1, DeliveryFilter(kind="drop_all"))},
        )
        spec = WireSpec(protocol="election", n=8, script=script)
        with pytest.raises(ConfigurationError, match="outside its faulty set"):
            spec.validate()


class TestDefaultScript:
    @pytest.mark.parametrize("protocol", WIRE_PROTOCOLS)
    def test_is_deterministic_and_within_budget(self, protocol):
        spec = WireSpec(protocol=protocol, n=16, seed=7)
        script = default_script(spec)
        assert script == default_script(spec)  # same spec, same script
        spec.with_(script=script).validate()
        assert script.faulty == tuple(sorted(script.faulty))
        assert set(script.crashes) == set(script.faulty)
        for _, (round_, filter_) in script.crashes.items():
            assert round_ >= 1
            assert filter_.kind in ("keep_fraction", "drop_all")

    def test_different_seeds_pick_different_victims(self):
        base = WireSpec(protocol="election", n=32)
        scripts = {
            default_script(base.with_(seed=seed)).faulty for seed in range(6)
        }
        assert len(scripts) > 1


class TestLoopbackParity:
    @pytest.mark.parametrize("protocol", WIRE_PROTOCOLS)
    @pytest.mark.parametrize("mode", PARITY_MODES)
    def test_loopback_matches_sim_exactly(self, protocol, mode):
        reports = parity_grid(
            protocols=[protocol], sizes=[8], modes=[mode], backend="loopback"
        )
        assert len(reports) == 1
        report = reports[0]
        assert report.ok, "\n".join(report.diffs)
        assert report.wire_metrics == report.sim_metrics
        assert report.wire_outcome == report.sim_outcome

    @pytest.mark.parametrize("protocol", WIRE_PROTOCOLS)
    def test_loopback_matches_sim_with_extra_rounds(self, protocol):
        spec = WireSpec(protocol=protocol, n=8, extra_rounds=2)
        report = run_parity_trial(spec, backend="loopback")
        assert report.ok, "\n".join(report.diffs)
        assert report.sim_metrics["horizon"] == spec.point.horizon()
        vec_metrics, vec_outcome = sim_reference(spec, backend="vec")
        assert metrics_dict(vec_metrics) == report.sim_metrics
        assert vec_outcome == report.sim_outcome

    def test_parity_holds_at_n16_with_scripted_faults(self):
        spec = WireSpec(protocol="election", n=16, seed=1)
        spec = spec.with_(script=default_script(spec))
        report = run_parity_trial(spec, backend="loopback")
        assert report.ok, "\n".join(report.diffs)
        assert report.trial.crashed  # the script actually fired

    def test_conservation_identity_holds_on_the_wire_side(self):
        spec = WireSpec(protocol="agreement", n=8, seed=2)
        spec = spec.with_(script=default_script(spec))
        trial = run_loopback_trial(spec)
        assert trial.ok, trial.reason
        m = trial.metrics
        assert m.messages_sent == (
            m.messages_delivered + m.messages_dropped + m.messages_expired
        )

    def test_unknown_backend_is_rejected(self):
        spec = WireSpec(protocol="election", n=8)
        with pytest.raises(ValueError, match="unknown parity backend"):
            run_parity_trial(spec, backend="carrier-pigeon")
