"""Trace validator: model-level invariants checked on a finished run.

Every execution of the Section II machine must satisfy a handful of
protocol-independent laws.  ``validate_run`` replays a traced
:class:`~repro.sim.network.RunResult` and returns the list of violations
(empty = clean).  The test-suite runs it under randomized protocols and
adversaries; downstream users can run it on their own protocols as a
cheap model-conformance check.

Checked invariants:

* **conservation** — the exact identity ``sent == delivered + dropped +
  expired`` holds on the trace, the metrics agree with the trace on every
  one of the four counts, and ``sum(per_round_messages)`` equals
  ``messages_sent`` (no send escapes per-round attribution);
* **CONGEST rate** — at most one message per ordered edge per round;
* **crash finality** — no node sends after its crash round, dropped
  messages occur only in their sender's crash round, and expired messages
  only go to receivers already crashed by delivery time;
* **delivery latency** — every delivery/drop is resolved in the round of
  its matching send, and a delivery reaches its receiver within the run's
  delay bound: ``round_sent + 1 <= round_received <= round_sent + 1 + Δ``
  (``Δ = RunResult.max_delay``; the synchronous model is the Δ=0 case,
  where the bound collapses to ``round_received == round_sent + 1``);
* **no self-messages** and all endpoints in ``[0, n)``;
* **fault discipline** — only members of the (final) faulty set crash.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set

from ..types import NodeId, Round
from .network import RunResult
from .trace import TraceEvent


def validate_run(result: RunResult) -> List[str]:
    """Return the model-invariant violations of a traced run (empty = ok)."""
    if result.trace is None:
        raise ValueError("run was not traced; pass collect_trace=True")
    violations: List[str] = []
    n = result.n

    # One pass splits the events by kind; a node's crash round is its
    # last crash event's, in the order of its first one.
    sends: List[TraceEvent] = []
    deliveries: List[TraceEvent] = []
    drops: List[TraceEvent] = []
    expires: List[TraceEvent] = []
    crashes: Dict[NodeId, Round] = {}
    for event in result.trace.events:
        kind = event[1]
        if kind == "send":
            sends.append(event)
        elif kind == "deliver":
            deliveries.append(event)
        elif kind == "crash":
            crashes[event[2]] = event[0]
        elif kind == "drop":
            drops.append(event)
        elif kind == "expire":
            expires.append(event)

    # Conservation: the exact identity on the trace, and the metrics
    # agreeing with the trace on every count.
    metrics = result.metrics
    if len(sends) != metrics.messages_sent:
        violations.append(
            f"trace has {len(sends)} sends, metrics counted "
            f"{metrics.messages_sent}"
        )
    if len(deliveries) != metrics.messages_delivered:
        violations.append(
            f"trace has {len(deliveries)} deliveries, metrics counted "
            f"{metrics.messages_delivered}"
        )
    if len(drops) != metrics.messages_dropped:
        violations.append(
            f"trace has {len(drops)} drops, metrics counted "
            f"{metrics.messages_dropped}"
        )
    if len(expires) != metrics.messages_expired:
        violations.append(
            f"trace has {len(expires)} expiries, metrics counted "
            f"{metrics.messages_expired}"
        )
    if len(sends) != len(deliveries) + len(drops) + len(expires):
        violations.append(
            f"conservation broken: {len(sends)} sends != "
            f"{len(deliveries)} deliveries + {len(drops)} drops + "
            f"{len(expires)} expiries"
        )
    max_delay = result.max_delay
    if expires and not crashes and max_delay == 0:
        # Under Δ>0 a run can end with messages in flight, which expire
        # without any crash; synchronously an expiry implies a dead node.
        violations.append(
            f"{len(expires)} messages expired but nothing ever crashed"
        )
    per_round_total = sum(metrics.per_round_messages)
    if per_round_total != metrics.messages_sent:
        violations.append(
            f"per-round attribution broken: per_round_messages sums to "
            f"{per_round_total}, messages_sent is {metrics.messages_sent}"
        )

    # Per-event laws.  A wire message is keyed by one int,
    # ``(round * n + src) * n + dst``; a missing or out-of-range
    # endpoint, which could alias another message's key, keys by the
    # plain triple.
    seen_edges: Set[Any] = set()
    for r, _, src, dst, _, _ in sends:
        if src == dst:
            violations.append(f"round {r}: self-message at {src}")
        if dst is not None and 0 <= src < n and 0 <= dst < n:
            key: Any = (r * n + src) * n + dst
        else:
            violations.append(
                f"round {r}: endpoint out of range ({src} -> {dst})"
            )
            key = (r, src, dst)
        if key in seen_edges:
            violations.append(
                f"round {r}: two messages on edge {src} -> {dst} "
                f"(CONGEST violation)"
            )
        seen_edges.add(key)
        crash_round = crashes.get(src)
        if crash_round is not None and r > crash_round:
            violations.append(
                f"round {r}: dead node {src} "
                f"(crashed round {crash_round}) sent a message"
            )

    outcome_edges: Dict[Any, str] = {}
    for events in (deliveries, drops, expires):
        for r, kind, src, dst, _, _ in events:
            if dst is not None and 0 <= src < n and 0 <= dst < n:
                key = (r * n + src) * n + dst
            else:
                key = (r, src, dst)
            if key not in seen_edges:
                # The trace keys deliveries/drops by their send round, so an
                # unmatched key is also a latency violation: the outcome was
                # resolved in a round its message was not on the wire.
                violations.append(
                    f"round {r}: {kind} without a matching send on {src} -> {dst}"
                )
            previous = outcome_edges.get(key)
            if previous is not None:
                violations.append(
                    f"round {r}: message {src} -> {dst} both {previous} and {kind}"
                )
            outcome_edges[key] = kind

    # Delivery latency: the model delivers at the start of round r + 1;
    # a Δ-bounded schedule may stretch that to any round in
    # [r + 1, r + 1 + Δ], never earlier, never later.
    for r, _, src, dst, _, received in deliveries:
        if received is None:
            violations.append(
                f"round {r}: delivery {src} -> {dst} has no recorded arrival round"
            )
        elif not r + 1 <= received <= r + 1 + max_delay:
            violations.append(
                f"round {r}: delivery {src} -> {dst} arrived in round {received}, "
                f"expected a round in [{r + 1}, {r + 1 + max_delay}]"
            )

    for r, _, src, _, _, _ in drops:
        crash_round = crashes.get(src)
        if crash_round != r:
            violations.append(
                f"round {r}: drop from {src} outside its crash round ({crash_round})"
            )

    # An expiry is legal only when the receiver had crashed before the
    # message's arrival round, or (Δ>0 only) when the arrival round lies
    # past the last executed round — the run ended with the message still
    # in flight.  Synchronously the arrival is always ``round + 1``, so
    # this collapses to "the receiver crashed by the end of the send
    # round".  Delayed expiries record their arrival in ``round_received``.
    for r, _, src, dst, _, received in expires:
        arrival = received if received is not None else r + 1
        if not r + 1 <= arrival <= r + 1 + max_delay:
            violations.append(
                f"round {r}: expiry {src} -> {dst} resolved at round {arrival}, "
                f"outside [{r + 1}, {r + 1 + max_delay}]"
            )
            continue
        crash_round = crashes.get(dst)
        if crash_round is not None and crash_round < arrival:
            continue  # receiver was dead when the message arrived
        if arrival > result.rounds:
            continue  # run ended with the message still in flight
        violations.append(
            f"round {r}: message {src} -> {dst} "
            f"expired but the receiver crashed in round {crash_round}"
        )

    # Fault discipline.
    for node, round_ in crashes.items():
        if node not in result.faulty:
            violations.append(
                f"round {round_}: non-faulty node {node} crashed"
            )
    if dict(result.crashed) != crashes:
        violations.append("trace crashes disagree with RunResult.crashed")

    return violations
