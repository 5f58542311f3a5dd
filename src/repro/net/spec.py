"""Wire-trial specification and the sim/wire shared vocabulary.

A :class:`WireSpec` pins everything a real-network trial needs — protocol,
size, seed, input pattern, fault script, and the transport tunables — and
is the unit the parity oracle quantifies over: for one ``(spec, seed,
script)`` the simulator and the wire backend must produce identical
message accounting and identical outcomes.

To make "identical" checkable, this module also owns:

* protocol construction (:meth:`WireSpec.make_runtime`) — the *same*
  protocol classes, parameters, schedules, and per-node RNG streams the
  sim backends use, behind the :class:`~repro.sim.adapter.NodeRuntime`
  seam;
* the sim reference run (:func:`sim_reference`) — the discrete-round
  engine driven through the public runners;
* outcome canonicalisation (:func:`canonical_outcome`,
  :func:`wire_outcome`) — both sides reduce to one plain-dict shape, and
  the wire side reuses the *runner's own evaluators* over reconstructed
  protocol outputs, so the success predicate cannot drift between
  backends;
* :func:`metrics_dict` — the full accounting surface that parity
  compares (not just headline totals: per-round, per-kind, and per-node
  attribution too).

The spec (JSON-serialisable via :meth:`to_dict`/:meth:`from_dict`) is
handed verbatim to every node process, which rebuilds its runtime from
``(spec, node_id)`` alone — determinism across process boundaries comes
from :mod:`repro.rng`'s hash-derived streams.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..chaos.script import CrashScript
from ..core.families import FAMILIES, Family, Setup
from ..errors import ConfigurationError
from ..faults.strategies import named_adversary
from ..params import CongestBudget, Params
from ..rng import RngFactory
from ..sim.adapter import NodeRuntime
from ..sim.metrics import Metrics
from ..sim.network import RunResult
from ..sim.node import Protocol
from ..types import Knowledge

#: Protocols the wire backend can run (same logic objects as the sim):
#: the families with wire output fields.
WIRE_PROTOCOLS = tuple(name for name, family in FAMILIES.items() if family.outputs)


@dataclass(frozen=True)
class WireSpec:
    """Everything one wire trial needs, JSON-round-trippable."""

    protocol: str
    n: int
    alpha: float = 0.75
    seed: int = 0
    inputs: str = "mixed"
    faulty_count: Optional[int] = None
    extra_rounds: int = 0
    script: Optional[CrashScript] = None
    # -- transport tunables (no effect on accounting or outcomes) -------
    host: str = "127.0.0.1"
    heartbeat_interval: float = 0.1
    suspicion_threshold: int = 30
    round_timeout: float = 30.0
    setup_timeout: float = 20.0
    trial_timeout: float = 180.0

    def __post_init__(self) -> None:
        if self.protocol not in WIRE_PROTOCOLS:
            raise ConfigurationError(
                f"unknown wire protocol {self.protocol!r}; "
                f"choose from {WIRE_PROTOCOLS}"
            )
        if self.heartbeat_interval <= 0 or self.suspicion_threshold < 2:
            raise ConfigurationError(
                "heartbeat_interval must be positive and "
                "suspicion_threshold >= 2"
            )

    # ------------------------------------------------------------------
    # Derived model quantities (must match the sim runners exactly)
    # ------------------------------------------------------------------

    def _family(self) -> Family:
        return FAMILIES[self.protocol]

    def _setup(self) -> Setup:
        """The family's run pieces for this spec, as the sim runner fixes them."""
        return self._family().setup(
            self.n,
            self.alpha,
            inputs=self.inputs,
            seed=self.seed,
            faulty_count=self.faulty_count,
            extra_rounds=self.extra_rounds,
            scripted=self.faulty_set(),
        )

    def params(self) -> Params:
        """Paper parameters (election/agreement only)."""
        return Params(n=self.n, alpha=self.alpha)

    def resolved_faulty_count(self) -> int:
        """The fault budget the sim runner would use for this spec."""
        return self._setup().faulty_count

    def horizon(self) -> int:
        """The nominal round count the sim runner would request."""
        return self._setup().horizon

    def knowledge(self) -> Knowledge:
        """Knowledge model of the protocol (flooding assumes KT1)."""
        return self._family().knowledge

    def input_bits(self) -> Optional[List[int]]:
        """Agreement/flooding input vector (None for election)."""
        return self._setup().inputs

    def adversary(self) -> Any:
        """The adversary object the sim reference run uses."""
        if self.script is not None:
            return self.script
        return named_adversary("none", self.horizon())

    def faulty_set(self) -> Tuple[int, ...]:
        """Static faulty set (scripted runs only; empty otherwise)."""
        return self.script.faulty if self.script else ()

    def validate(self) -> None:
        """Reject specs the wire backend cannot replay round-faithfully."""
        # Params strictness (alpha floor, n >= 8) for the paper protocols.
        self._setup()
        script = self.script
        if script is None:
            return
        if script.byzantine.modes:
            raise ConfigurationError(
                "wire backend replays crash faults only; the script has a "
                "Byzantine plan"
            )
        if not script.delivery.is_synchronous:
            raise ConfigurationError(
                "wire backend is round-synchronous; the script has a "
                f"delay-{script.delivery.max_delay} delivery schedule"
            )
        faulty = set(script.faulty)
        for node, (round_, _) in script.crashes.items():
            if node not in faulty:
                raise ConfigurationError(
                    f"script crashes node {node} outside its faulty set"
                )
            if not 0 <= node < self.n:
                raise ConfigurationError(
                    f"script crashes node {node}, but n={self.n}"
                )
            if round_ < 1:
                raise ConfigurationError(
                    f"script crashes node {node} in round {round_} (< 1)"
                )
        if len(faulty) > self.resolved_faulty_count():
            raise ConfigurationError(
                f"script has {len(faulty)} faulty nodes; the budget is "
                f"{self.resolved_faulty_count()}"
            )

    # ------------------------------------------------------------------
    # Node-side construction
    # ------------------------------------------------------------------

    def make_protocol(self, node_id: int) -> Protocol:
        """Build node ``node_id``'s protocol exactly as the runner does."""
        return self._family().nodes(self._setup())(node_id)

    def make_runtime(self, node_id: int) -> NodeRuntime:
        """Build node ``node_id``'s engine-faithful runtime."""
        return NodeRuntime(
            node_id,
            self.n,
            self.make_protocol(node_id),
            RngFactory(self.seed).node_stream(node_id),
            knowledge=self.knowledge(),
            congest=CongestBudget(self.n),
        )

    # ------------------------------------------------------------------
    # JSON round-trip (spec travels to the node processes as argv)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "script"
        }
        if self.script is not None:
            data["script"] = self.script.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WireSpec":
        values = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        if values.get("script") is not None:
            values["script"] = CrashScript.from_dict(values["script"])
        return cls(**values)

    def with_(self, **changes: object) -> "WireSpec":
        """Copy with fields replaced (mirrors ``Params.with_``)."""
        return replace(self, **changes)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Protocol-output snapshots (what a node reports about itself)
# ----------------------------------------------------------------------


def snapshot_outputs(spec: WireSpec, protocol: Protocol) -> Dict[str, object]:
    """A node's protocol outputs as a JSON-safe dict.

    For crashed nodes this is taken in their crash round, *after* the
    step/transmit phases — the protocol object never runs again, so the
    snapshot equals its end-of-run state in the sim.
    """
    snapshot: Dict[str, object] = {}
    for name, _ in FAMILIES[spec.protocol].outputs:
        value = getattr(protocol, name)
        snapshot[name] = value.name if isinstance(value, Enum) else value
    return snapshot


def _fake_protocol(spec: WireSpec, outputs: Mapping[str, object]) -> object:
    """Rehydrate a snapshot into the attribute surface the evaluators read."""
    attributes: Dict[str, object] = {}
    for name, kind in FAMILIES[spec.protocol].outputs:
        value = outputs[name]
        if value is not None:
            value = kind[str(value)] if issubclass(kind, Enum) else kind(value)  # type: ignore[index]
        attributes[name] = value
    return SimpleNamespace(**attributes)


# ----------------------------------------------------------------------
# Canonical outcomes — one dict shape for both backends
# ----------------------------------------------------------------------


def canonical_outcome(spec: WireSpec, result: object) -> Dict[str, object]:
    """Reduce a runner result / baseline outcome to the parity dict."""
    outcome: Dict[str, object] = {"protocol": spec.protocol}
    for name in FAMILIES[spec.protocol].outcome:
        outcome[name] = _plain(getattr(result, name))
    return outcome


def _plain(value: object) -> object:
    """One outcome field as plain data: sets sorted, maps key-sorted,
    enum values by name."""
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return list(value)
    return value


def wire_outcome(
    spec: WireSpec,
    outputs: Mapping[int, Mapping[str, object]],
    crashed: Mapping[int, int],
    metrics: Metrics,
) -> Dict[str, object]:
    """Evaluate wire-gathered protocol outputs with the sim's evaluators.

    Builds a faithful :class:`RunResult` over rehydrated protocol
    snapshots and hands it to the *same* evaluation functions the sim
    runners use, so the success predicates are shared by construction.
    """
    missing = [u for u in range(spec.n) if u not in outputs]
    if missing:
        raise ConfigurationError(
            f"wire outcome needs outputs from every node; missing {missing}"
        )
    protocols = [_fake_protocol(spec, outputs[u]) for u in range(spec.n)]
    run = RunResult(
        n=spec.n,
        protocols=protocols,  # type: ignore[arg-type]
        metrics=metrics,
        trace=None,
        faulty=set(spec.faulty_set()),
        crashed=dict(crashed),
        rounds=metrics.rounds,
        horizon=metrics.horizon,
        max_delay=0,
    )
    result = spec._family().evaluate(run, spec._setup(), spec.adversary())
    return canonical_outcome(spec, result)


# ----------------------------------------------------------------------
# The sim reference run
# ----------------------------------------------------------------------


def sim_reference(
    spec: WireSpec, backend: str = "ref"
) -> Tuple[Metrics, Dict[str, object]]:
    """Run ``spec`` on the discrete-round simulator (the parity baseline)."""
    result = spec._family().run(
        spec.n,
        spec.alpha,
        spec.seed,
        spec.adversary(),
        inputs=spec.inputs,
        faulty_count=spec.resolved_faulty_count(),
        extra_rounds=spec.extra_rounds,
        backend=backend,
    )
    return result.metrics, canonical_outcome(spec, result)


def metrics_dict(metrics: Metrics) -> Dict[str, object]:
    """The full accounting surface the parity oracle compares."""
    return {
        "messages_sent": metrics.messages_sent,
        "messages_delivered": metrics.messages_delivered,
        "messages_dropped": metrics.messages_dropped,
        "messages_expired": metrics.messages_expired,
        "bits_sent": metrics.bits_sent,
        "rounds": metrics.rounds,
        "horizon": metrics.horizon,
        "rounds_executed": metrics.rounds_executed,
        "crashes": metrics.crashes,
        "per_round_messages": list(metrics.per_round_messages),
        "per_kind_messages": dict(sorted(metrics.per_kind_messages.items())),
        "per_node_sent": dict(sorted(metrics.per_node_sent.items())),
        "delivery_latency": dict(sorted(metrics.delivery_latency.items())),
    }
