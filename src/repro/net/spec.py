"""Wire-trial specification and the sim/wire shared vocabulary.

A :class:`WireSpec` pins everything a real-network trial needs — a
:class:`~repro.core.families.RunPoint` (protocol, size, seed, input
pattern, fault script) plus the transport tunables — and is the unit the
parity oracle quantifies over: for one spec the simulator and the wire
backend must produce identical message accounting and identical outcomes.

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

from dataclasses import dataclass, fields
from enum import Enum
from types import SimpleNamespace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..chaos.script import CrashScript
from ..core.families import FAMILIES, RunPoint
from ..errors import ConfigurationError
from ..faults.strategies import named_adversary
from ..params import CongestBudget
from ..rng import RngFactory
from ..sim.adapter import NodeRuntime
from ..sim.metrics import Metrics
from ..sim.network import RunResult
from ..sim.node import Protocol

#: Protocols the wire backend can run (same logic objects as the sim):
#: the families with wire output fields.
WIRE_PROTOCOLS = tuple(name for name, family in FAMILIES.items() if family.outputs)


@dataclass(frozen=True, init=False)
class WireSpec:
    """One wire trial: a run point plus the transport tunables.

    ``WireSpec(point, **transport)``, or ``WireSpec(**fields)`` with the
    point's fields among them (``script`` is the point's adversary; a
    wire point defaults to ``alpha=0.75`` and no faults).  JSON-round-
    trippable: :meth:`to_dict` is the point's dict plus the transport's.
    """

    point: RunPoint
    # -- transport tunables (no effect on accounting or outcomes) -------
    host: str = "127.0.0.1"
    heartbeat_interval: float = 0.1
    suspicion_threshold: int = 30
    round_timeout: float = 30.0
    setup_timeout: float = 20.0
    trial_timeout: float = 180.0

    def __init__(self, point: Optional[RunPoint] = None, **values: Any) -> None:
        transport = {
            f.name: values.pop(f.name, f.default) for f in fields(WireSpec)[1:]
        }
        protocol = values.get("protocol") if point is None else point.protocol
        if protocol not in WIRE_PROTOCOLS:
            raise ConfigurationError(
                f"unknown wire protocol {protocol!r}; choose from {WIRE_PROTOCOLS}"
            )
        if point is None:
            values.setdefault("alpha", 0.75)
            values["adversary"] = values.pop("script", None) or "none"
            point = RunPoint(**values)
        elif values:
            raise TypeError(f"WireSpec got a point and point fields {sorted(values)}")
        for name, value in {"point": point, **transport}.items():
            object.__setattr__(self, name, value)
        if self.heartbeat_interval <= 0 or self.suspicion_threshold < 2:
            raise ConfigurationError(
                "heartbeat_interval must be positive and "
                "suspicion_threshold >= 2"
            )

    @property
    def script(self) -> Optional[CrashScript]:
        """The point's crash script (``None`` for a fault-free trial)."""
        return self.point.script

    def validate(self) -> None:
        """Reject specs the wire backend cannot replay round-faithfully."""
        point = self.point
        script = point.script
        if script is None and point.adversary != "none":
            raise ConfigurationError(
                "wire backend replays crash scripts only; the point has "
                f"adversary {point.adversary!r}"
            )
        delay = script.delivery.max_delay if script else point.max_delay
        if delay:
            raise ConfigurationError(
                "wire backend is round-synchronous; the point has a "
                f"delay-{delay} delivery schedule"
            )
        if script is None:
            return
        if script.byzantine.modes:
            raise ConfigurationError(
                "wire backend replays crash faults only; the script has a "
                "Byzantine plan"
            )
        faulty = set(script.faulty)
        for node, (round_, _) in script.crashes.items():
            if node not in faulty:
                raise ConfigurationError(
                    f"script crashes node {node} outside its faulty set"
                )
            if not 0 <= node < point.n:
                raise ConfigurationError(
                    f"script crashes node {node}, but n={point.n}"
                )
            if round_ < 1:
                raise ConfigurationError(
                    f"script crashes node {node} in round {round_} (< 1)"
                )
        if len(faulty) > point.fault_budget:
            raise ConfigurationError(
                f"script has {len(faulty)} faulty nodes; the budget is "
                f"{point.fault_budget}"
            )

    # ------------------------------------------------------------------
    # Node-side construction
    # ------------------------------------------------------------------

    def make_runtime(self, node_id: int) -> NodeRuntime:
        """Build node ``node_id``'s engine-faithful runtime, with the
        protocol, parameters and RNG stream the sim runner gives it."""
        point = self.point
        return NodeRuntime(
            node_id,
            point.n,
            point.family.nodes(point)(node_id),
            RngFactory(point.seed).node_stream(node_id),
            knowledge=point.family.knowledge,
            congest=CongestBudget(point.n),
        )

    # ------------------------------------------------------------------
    # JSON round-trip (spec travels to the node processes as argv)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data = self.point.to_dict()
        data.update((f.name, getattr(self, f.name)) for f in fields(self)[1:])
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WireSpec":
        names = {f.name for f in fields(cls)[1:]}
        point = RunPoint.from_dict({k: v for k, v in data.items() if k not in names})
        return cls(point, **{k: v for k, v in data.items() if k in names})

    def with_(self, **changes: object) -> "WireSpec":
        """Copy with transport knobs or point fields (``script`` too) replaced."""
        transport = {f.name: getattr(self, f.name) for f in fields(self)[1:]}
        point_changes = {k: v for k, v in changes.items() if k not in transport}
        if "script" in point_changes:
            point_changes["adversary"] = point_changes.pop("script") or "none"
        transport.update((k, v) for k, v in changes.items() if k in transport)
        return WireSpec(self.point.with_(**point_changes), **transport)


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
    for name, _ in spec.point.family.outputs:
        value = getattr(protocol, name)
        snapshot[name] = value.name if isinstance(value, Enum) else value
    return snapshot


def _fake_protocol(spec: WireSpec, outputs: Mapping[str, object]) -> object:
    """Rehydrate a snapshot into the attribute surface the evaluators read."""
    attributes: Dict[str, object] = {}
    for name, kind in spec.point.family.outputs:
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
    outcome: Dict[str, object] = {"protocol": spec.point.protocol}
    for name in spec.point.family.outcome:
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
    point = spec.point
    missing = [u for u in range(point.n) if u not in outputs]
    if missing:
        raise ConfigurationError(
            f"wire outcome needs outputs from every node; missing {missing}"
        )
    protocols = [_fake_protocol(spec, outputs[u]) for u in range(point.n)]
    run = RunResult(
        n=point.n,
        protocols=protocols,  # type: ignore[arg-type]
        metrics=metrics,
        trace=None,
        faulty=set(point.script.faulty if point.script else ()),
        crashed=dict(crashed),
        rounds=metrics.rounds,
        horizon=metrics.horizon,
        max_delay=0,
    )
    result = point.family.evaluate(run, point, _adversary(point))
    return canonical_outcome(spec, result)


# ----------------------------------------------------------------------
# The sim reference run
# ----------------------------------------------------------------------


def sim_reference(
    spec: WireSpec, backend: str = "ref"
) -> Tuple[Metrics, Dict[str, object]]:
    """Run ``spec`` on the discrete-round simulator (the parity baseline)."""
    point = spec.point.with_(backend=backend)
    result = point.family.run(point)
    return result.metrics, canonical_outcome(spec, result)


def _adversary(point: RunPoint) -> Any:
    """The adversary object a sim run of ``point`` is charged to."""
    return point.script or named_adversary("none", point.horizon())


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
