"""The sim-vs-wire parity oracle.

The wire backend's correctness claim is *exactness*, not plausibility:
for one ``(spec, seed, CrashScript)`` the real-network run must produce

* the same full message accounting (:func:`~repro.net.spec.metrics_dict`
  — headline totals, per-round, per-kind, per-node, latency histogram),
* the same canonical outcome (leader identity, per-node beliefs and
  decisions, success flags),

as the discrete-round simulator.  This module runs both sides and diffs
them key by key.  The argument for why equality is *achievable* (round
barrier = engine round loop; deterministic RNG streams; pure delivery
filters replayed on both sides) lives in ``docs/NET.md`` — this file is
the measurement.

:func:`default_script` builds a deterministic scripted-fault scenario for
any spec (victims, rounds, and filters derived from the seed), so the
parity grid exercises partial final-round delivery and mid-run SIGKILLs,
not just the fault-free path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..chaos.script import CrashScript, DeliveryFilter
from ..rng import derive_seed
from .driver import WireTrialResult, run_loopback_trial, run_wire_trial
from .spec import WIRE_PROTOCOLS, WireSpec, metrics_dict, sim_reference

#: The two fault modes the parity grid sweeps.
PARITY_MODES = ("fault-free", "scripted")


@dataclass
class ParityReport:
    """One spec's sim-vs-wire comparison."""

    spec: WireSpec
    backend: str
    trial: WireTrialResult
    sim_metrics: Dict[str, object] = field(default_factory=dict)
    wire_metrics: Optional[Dict[str, object]] = None
    sim_outcome: Dict[str, object] = field(default_factory=dict)
    wire_outcome: Optional[Dict[str, object]] = None
    diffs: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.trial.ok and not self.diffs

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "backend": self.backend,
            "spec": self.spec.to_dict(),
            "trial_ok": self.trial.ok,
            "trial_reason": self.trial.reason,
            "diffs": list(self.diffs),
            "sim_metrics": self.sim_metrics,
            "wire_metrics": self.wire_metrics,
            "sim_outcome": self.sim_outcome,
            "wire_outcome": self.wire_outcome,
            "journal_dir": self.trial.journal_dir,
        }


def _diff_dicts(kind: str, sim: Dict[str, object], wire: Dict[str, object]) -> List[str]:
    diffs: List[str] = []
    for key in sorted(set(sim) | set(wire)):
        sim_value = sim.get(key)
        wire_value = wire.get(key)
        if sim_value != wire_value:
            diffs.append(
                f"{kind}.{key}: sim={sim_value!r} wire={wire_value!r}"
            )
    return diffs


def run_parity_trial(
    spec: WireSpec,
    *,
    backend: str = "wire",
    journal_dir: Optional[str] = None,
) -> ParityReport:
    """Run ``spec`` on the sim and on the wire (or loopback), diff both.

    ``backend="wire"`` spawns real node processes; ``"loopback"`` runs
    the transport-free twin (same accounting code, sim speed).
    """
    if backend == "wire":
        trial = run_wire_trial(spec, journal_dir=journal_dir)
    elif backend == "loopback":
        trial = run_loopback_trial(spec)
    else:
        raise ValueError(f"unknown parity backend {backend!r}")
    sim_metrics, sim_outcome = sim_reference(spec)
    report = ParityReport(
        spec=spec,
        backend=backend,
        trial=trial,
        sim_metrics=metrics_dict(sim_metrics),
        wire_metrics=trial.metrics_dict(),
        sim_outcome=sim_outcome,
        wire_outcome=trial.outcome,
    )
    if not trial.ok:
        report.diffs.append(f"trial failed: {trial.reason}")
        return report
    assert report.wire_metrics is not None and trial.outcome is not None
    report.diffs.extend(
        _diff_dicts("metrics", report.sim_metrics, report.wire_metrics)
    )
    report.diffs.extend(_diff_dicts("outcome", sim_outcome, trial.outcome))
    return report


def default_script(spec: WireSpec, victims: int = 2) -> CrashScript:
    """A deterministic scripted-fault scenario for ``spec``.

    Victims, crash rounds, and filters are all derived from the seed, so
    the same spec always yields the same script on every machine.  The
    script stays within the spec's fault budget and exercises both filter
    families: one victim loses *all* of its final-round messages, the
    other keeps a pseudo-random half (partial final-round delivery).
    """
    point = spec.point
    # The budget of a run scripted with ``victims`` faulty nodes.
    budget = point.family.budget(point.n, point.alpha, None, range(victims))
    count = max(1, min(victims, budget))
    chosen: List[int] = []
    probe = 0
    while len(chosen) < count:
        node = derive_seed(point.seed, "parity-victim", probe) % point.n
        probe += 1
        if node not in chosen:
            chosen.append(node)
    horizon = point.with_(faulty_count=count).horizon()
    crashes: Dict[int, Tuple[int, DeliveryFilter]] = {}
    for index, node in enumerate(chosen):
        round_ = max(1, ((index + 1) * horizon) // (count + 1))
        if index % 2 == 0:
            filter_ = DeliveryFilter(kind="keep_fraction", fraction=0.5, salt=point.seed)
        else:
            filter_ = DeliveryFilter(kind="drop_all")
        crashes[node] = (round_, filter_)
    return CrashScript(
        faulty=tuple(sorted(chosen)),
        crashes=crashes,
        label=f"parity/{point.protocol}/n{point.n}/seed{point.seed}",
    )


def parity_specs(
    protocols: Iterable[str] = WIRE_PROTOCOLS,
    sizes: Iterable[int] = (8, 16, 32),
    modes: Iterable[str] = PARITY_MODES,
    seed: int = 0,
    **overrides: object,
) -> List[WireSpec]:
    """The parity grid: protocols x sizes x fault modes."""
    specs: List[WireSpec] = []
    for protocol in protocols:
        for n in sizes:
            for mode in modes:
                if mode not in PARITY_MODES:
                    raise ValueError(
                        f"unknown parity mode {mode!r}; "
                        f"choose from {PARITY_MODES}"
                    )
                spec = WireSpec(protocol=protocol, n=n, seed=seed, **overrides)
                if mode == "scripted":
                    spec = spec.with_(script=default_script(spec))
                specs.append(spec)
    return specs


def parity_grid(
    protocols: Iterable[str] = WIRE_PROTOCOLS,
    sizes: Iterable[int] = (8, 16, 32),
    modes: Iterable[str] = PARITY_MODES,
    seed: int = 0,
    backend: str = "loopback",
    journal_dir: Optional[str] = None,
    **overrides: object,
) -> List[ParityReport]:
    """Run the full parity grid; one :class:`ParityReport` per cell."""
    reports: List[ParityReport] = []
    for index, spec in enumerate(
        parity_specs(protocols, sizes, modes, seed, **overrides)
    ):
        cell_dir = (
            f"{journal_dir}/cell-{index:02d}" if journal_dir is not None else None
        )
        reports.append(
            run_parity_trial(spec, backend=backend, journal_dir=cell_dir)
        )
    return reports
