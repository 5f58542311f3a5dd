"""Protocol families: one row per family that the tooling runs by name.

The paper's two protocols, implicit leader election (Sec. IV-A) and
implicit agreement (Sec. V-A), and every baseline each get one frozen
:class:`Family` row in :data:`FAMILIES`: flooding consensus, Ben-Or
(E14), the fault-free [21]/[23] protocols (Kutten et al.; Augustine et
al.) and the crash protocols of Table I (Gilbert–Kowalski,
Chlebus–Kowalski, the rotating coordinator).  A row says how its
family is built, run (:meth:`Family.run`, through the shared
:func:`repro.core.runner._run`) and judged.  One run of a family is a
:class:`RunPoint`, validated once against its row.  The wire spec, the
fuzzer, the trial tasks, the campaign service and the CLI describe their
runs as points and look rows up instead of branching on the family's
name; a row reaches one of them only through the field it reads.

Adding a family is one row plus its node class (see ``DESIGN.md``).
Rows import the baselines, the chaos layer and the vec engine lazily.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from types import ModuleType, SimpleNamespace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..faults.adversary import Adversary
from ..faults.byzantine import AGREEMENT_MODES, ELECTION_MODES, ProtocolFactory
from ..params import Params
from ..sim.delivery import DeliverySchedule, UniformDelay
from ..sim.network import RunResult
from ..types import Decision, Knowledge, NodeId, NodeState
from .agreement import AgreementProtocol
from .leader_election import LeaderElectionProtocol
from .runner import (
    BACKENDS,
    AdversarySpec,
    _evaluate_agreement,
    _evaluate_leader_election,
    _run,
    make_inputs,
)
from .schedule import AgreementSchedule, LeaderElectionSchedule


@dataclass(frozen=True)
class Family:
    """How one protocol family is built, run and judged.

    The callables that take a point read the resolved views of a
    :class:`RunPoint` (``params``, ``schedule``, ``fault_budget``,
    ``input_bits``, ``horizon()``).
    """

    name: str
    #: ``(n, alpha, params, scripted faulty set)`` -> default fault budget.
    budget: Callable[[int, Optional[float], Optional[Params], Sequence[NodeId]], int]
    #: ``(params, max_delay, **options)`` -> the point's ``schedule``.
    schedule: Callable[..., Any]
    #: Nominal horizon of a point (``extra_rounds`` come on top).
    horizon: Callable[["RunPoint"], int]
    nodes: Callable[["RunPoint"], ProtocolFactory]
    #: ``(run, point, adversary)`` -> the family's result object.
    evaluate: Callable[[RunResult, "RunPoint", Adversary], Any]
    #: Points get the paper's :class:`~repro.params.Params` when given none.
    uses_params: bool = True
    takes_inputs: bool = True
    knowledge: Knowledge = Knowledge.KT0
    #: ``(repro.sim.vec, point, adversary, faulty_count)`` -> vec run.
    vec: Optional[Callable[[ModuleType, "RunPoint", Adversary, int], RunResult]] = None
    #: ``(repro.faults.byzantine, point)`` -> attacker constructor by mode.
    attackers: Optional[Callable[[ModuleType, "RunPoint"], Mapping[str, ProtocolFactory]]] = None
    #: Byzantine modes a fuzzed plan may assign.
    modes: Tuple[str, ...] = ()
    #: Its oracles stay hard under bounded-delay delivery.
    delay_tolerant: bool = False
    #: Wire snapshot fields ``(attribute, type)``; enums travel by name.
    outputs: Tuple[Tuple[str, type], ...] = ()
    #: Result attributes the sim/wire parity oracle compares.
    outcome: Tuple[str, ...] = ()
    #: Result -> safety violations (``None``: not fuzzed).
    oracle: Optional[Callable[[Any], List[str]]] = None
    #: ``module:qualname`` of the campaign trial task.
    task: Optional[str] = None

    def run(
        self,
        point: Any,
        *fields: Any,
        byzantine: Any = None,
        delivery: Optional[DeliverySchedule] = None,
        collect_trace: bool = False,
        message_budget: Optional[int] = None,
        timers: Any = None,
        **named: Any,
    ) -> Any:
        """Run ``point`` once and evaluate it.

        ``point`` is a :class:`RunPoint` of this family, or the first of
        its fields after ``protocol`` (``n, alpha, seed, adversary``,
        then keywords).  The keywords here are engine options, not part
        of a point: a Byzantine plan, a delivery schedule (default: the
        point's ``max_delay`` as :class:`~repro.sim.delivery.UniformDelay`
        salted with its seed), a trace, a message cap and phase timers.
        """
        if not isinstance(point, RunPoint):
            named.setdefault("max_delay", 0 if delivery is None else delivery.max_delay)
            point = RunPoint(self.name, point, *fields, **named)
        elif fields or named:
            raise TypeError("a RunPoint takes no further point fields")
        if point.protocol != self.name:
            raise ConfigurationError(f"a {point.protocol} point run as {self.name}")
        if delivery is None and point.max_delay:
            delivery = UniformDelay(point.max_delay, salt=point.seed)
        if delivery is not None and delivery.max_delay != point.max_delay:
            raise ConfigurationError(
                f"a delay-{delivery.max_delay} schedule for a point with "
                f"max_delay={point.max_delay}"
            )
        vec, attackers = self.vec, self.attackers
        run, resolved = _run(
            point.n, point.params, point.seed, point.adversary, point.fault_budget,
            self.nodes(point), point.horizon(), point.input_bits,
            backend=point.backend,
            vec_run=None if vec is None else (
                lambda module, adv, f: vec(module, point, adv, f)
            ),
            byzantine=byzantine,
            attackers=None if attackers is None else (
                lambda byz: attackers(byz, point)
            ),
            knowledge=self.knowledge,
            collect_trace=collect_trace, message_budget=message_budget,
            timers=timers, delivery=delivery,
        )
        return self.evaluate(run, point, resolved)


@dataclass(frozen=True)
class RunPoint:
    """One run of a protocol family: everything that fixes its outcome.

    The point validates itself on construction and resolves its fault
    budget, schedule, horizon and input bits once, through its family's
    row.  :meth:`Family.run` executes it; engine options (trace, timers,
    message cap, Byzantine plan) are run keywords, not point fields.
    Only JSON-safe points (a named adversary or a crash script) have a
    :meth:`to_dict` form.
    """

    protocol: str
    n: int
    alpha: Optional[float] = None
    seed: int = 0
    #: A strategy name, an :class:`~repro.faults.Adversary`, or a
    #: :class:`~repro.chaos.CrashScript`.
    adversary: AdversarySpec = "none"
    #: Input bits or a named pattern; ``None`` is ``"mixed"`` for a family
    #: that takes inputs, and the only value for one that does not.
    inputs: Any = None
    #: Size of the static faulty set (``None``: the family's budget).
    faulty_count: Optional[int] = None
    extra_rounds: int = 0
    #: Sampling constants (``None``: the paper's, for families using them).
    params: Optional[Params] = None
    #: Delivery-delay bound; the run draws ``UniformDelay(max_delay, salt=seed)``.
    max_delay: int = 0
    backend: str = "ref"
    #: Family options for its schedule (Ben-Or's ``max_phases``).
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        family = FAMILIES.get(self.protocol)
        if family is None:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; choose from {tuple(FAMILIES)}"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        inputs = self.inputs
        if not family.takes_inputs:
            if inputs is not None:
                raise ConfigurationError(f"{self.protocol} takes no inputs")
        elif inputs is None:
            inputs = "mixed"
        elif not isinstance(inputs, str):
            inputs = tuple(int(bit) for bit in inputs)
        params = self.params
        if params is None and family.uses_params:
            params = Params(n=self.n, alpha=self.alpha)  # type: ignore[arg-type]
        if params is not None and params.n != self.n:
            raise ConfigurationError(
                f"params are for n={params.n}, but the run has n={self.n} nodes"
            )
        if params is not None and self.alpha is not None and params.alpha != self.alpha:
            raise ConfigurationError(
                f"params are for alpha={params.alpha}, but the run has "
                f"alpha={self.alpha}"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "options", tuple(sorted(dict(self.options).items())))

    @property
    def family(self) -> Family:
        return FAMILIES[self.protocol]

    @property
    def script(self) -> Any:
        """The adversary when it is a crash script, else ``None``."""
        # A script's module is loaded once a script exists: no import here.
        scripts = sys.modules.get(f"{__package__.rpartition('.')[0]}.chaos.script")
        kind = getattr(scripts, "CrashScript", ())
        return self.adversary if isinstance(self.adversary, kind) else None

    @cached_property
    def fault_budget(self) -> int:
        """The static faulty-set size the run uses."""
        if self.faulty_count is not None:
            return self.faulty_count
        scripted = self.script.faulty if self.script is not None else ()
        return self.family.budget(self.n, self.alpha, self.params, scripted)

    @cached_property
    def schedule(self) -> Any:
        """A paper schedule, Ben-Or's ``(max_delay, max_phases)``, or ``None``."""
        return self.family.schedule(self.params, self.max_delay, **dict(self.options))

    @cached_property
    def input_bits(self) -> Optional[List[int]]:
        """The input bits (``None`` for a family without inputs)."""
        if self.inputs is None:
            return None
        return make_inputs(self.n, self.inputs, self.seed)

    def horizon(self) -> int:
        """The rounds the run requests: the family's, plus ``extra_rounds``."""
        return self.family.horizon(self) + self.extra_rounds

    def with_(self, **changes: Any) -> "RunPoint":
        """Copy with fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON form: the fields through ``extra_rounds``, then the
        ``Params`` constants, the crash script and the other fields where
        they differ from the defaults."""
        data = {name: getattr(self, name) for name in _ALWAYS_WRITTEN}
        constants = {
            f.name: getattr(self.params, f.name)
            for f in fields(Params)[2:]
            if self.params is not None and getattr(self.params, f.name) != f.default
        }
        if constants:
            data["constants"] = constants
        if self.script is not None:
            data["script"] = self.script.to_dict()
        for name in ("adversary", "max_delay", "backend", "options"):
            value = getattr(self, name)
            if value != _DEFAULTS[name] and value is not self.script:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunPoint":
        """Inverse of :meth:`to_dict`."""
        values = dict(data)
        script = values.pop("script", None)
        if script is not None:
            from ..chaos.script import as_script

            values["adversary"] = as_script(script)
        constants = values.pop("constants", None)
        if constants:
            values["params"] = Params(n=values["n"], alpha=values["alpha"], **constants)
        return cls(**values)


_DEFAULTS = {f.name: f.default for f in fields(RunPoint)}
_ALWAYS_WRITTEN = ("protocol", "n", "alpha", "seed", "inputs", "faulty_count", "extra_rounds")


def _paper_budget(
    n: int, alpha: Optional[float], params: Optional[Params], scripted: Sequence[NodeId]
) -> int:
    return (params or Params(n=n, alpha=alpha)).max_faulty  # type: ignore[arg-type]


def _oracle(name: str) -> Callable[[Any], List[str]]:
    """The chaos layer's oracle ``name``, imported on first use."""

    def judge(result: Any) -> List[str]:
        from ..chaos import oracles

        return getattr(oracles, name)(result)

    return judge


def _baseline(module: str) -> ModuleType:
    """``repro.baselines.<module>``, imported on first use."""
    return importlib.import_module(f"repro.baselines.{module}")


def _ben_or_timetable(
    params: Optional[Params], max_delay: int, max_phases: Optional[int] = None
) -> Tuple[int, int]:
    if max_phases is None:
        max_phases = _baseline("ben_or").DEFAULT_MAX_PHASES
    return max_delay, max_phases


def _ben_or_oracle(outcome: Any) -> List[str]:
    """The agreement oracle over Ben-Or's decided bits."""
    decisions = {u: Decision.of(bit) for u, bit in outcome.decisions.items()}
    return _oracle("agreement_oracle")(
        SimpleNamespace(decisions=decisions, faulty=outcome.faulty, inputs=outcome.inputs)
    )


def _scripted_budget(
    n: int, alpha: Optional[float], params: Optional[Params], scripted: Sequence[NodeId]
) -> int:
    return len(scripted)


def _no_schedule(params: Optional[Params], max_delay: int) -> None:
    return None


def _fault_free_nodes(module: str, protocol: str) -> Callable[[RunPoint], ProtocolFactory]:
    """Nodes of a fault-free [21]/[23] baseline.  They sample with the
    paper's constants at ``alpha = 1``, where its protocols degenerate
    to these."""

    def nodes(s: RunPoint) -> ProtocolFactory:
        node = partial(getattr(_baseline(module), protocol), params=Params(n=s.n, alpha=1.0))
        bits = s.input_bits
        return node if bits is None else lambda u: node(u, input_bit=bits[u])

    return nodes


def _outcome(label: str, run: RunResult, s: RunPoint) -> Any:
    from ..baselines.base import BaselineOutcome

    return BaselineOutcome(
        protocol=label, n=run.n, faulty=run.faulty, crashed=run.crashed,
        metrics=run.metrics, inputs=s.input_bits, trace=run.trace,
        max_delay=run.max_delay,
    )


def _consensus(
    label: str, honest_only: bool = False, implicit: bool = False
) -> Callable[[RunResult, RunPoint, Adversary], Any]:
    """A baseline's evaluator: explicit (or implicit) agreement over the
    alive nodes (the alive honest ones, when faulty nodes may lie)."""

    def evaluate(run: RunResult, s: RunPoint, adversary: Adversary) -> Any:
        from ..baselines import base

        outcome = _outcome(label, run, s)
        for u in run.alive:
            decided = getattr(run.protocol(u), "decided", None)
            if decided is not None:
                outcome.decisions[u] = decided
        judged = [u for u in run.alive if not (honest_only and u in run.faulty)]
        judge = base.evaluate_implicit_agreement if implicit else base.evaluate_explicit_agreement
        outcome.success = judge(outcome, judged)
        return outcome

    return evaluate


def _unique_leader(run: RunResult, s: RunPoint, adversary: Adversary) -> Any:
    """Kutten et al.'s evaluator: exactly one node output ELECTED."""
    outcome = _outcome("kutten-le", run, s)
    outcome.elected = [
        u for u in range(run.n) if run.protocol(u).state is NodeState.ELECTED
    ]
    outcome.success = len(outcome.elected) == 1
    return outcome


#: Every protocol family a consumer looks up by name, in display order.
FAMILIES: Dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            name="election",
            budget=_paper_budget,
            schedule=lambda params, max_delay: LeaderElectionSchedule.from_params(params),
            horizon=lambda s: s.schedule.last_round,
            nodes=lambda s: lambda u: LeaderElectionProtocol(u, s.params, s.schedule),
            evaluate=lambda run, s, adversary: _evaluate_leader_election(
                run, s.params, s.seed, adversary
            ),
            takes_inputs=False,
            vec=lambda vec, s, adversary, f: vec.run_election_vec(
                s.params, s.schedule, s.seed, adversary, f, s.horizon()
            ),
            attackers=lambda byz, s: byz.election_attackers(s.params, s.schedule),
            modes=ELECTION_MODES,
            outputs=(
                ("rank", int), ("is_candidate", bool), ("state", NodeState),
                ("leader_rank", int),
            ),
            outcome=(
                "success", "strict_success", "leader_node", "elected_alive",
                "elected_crashed", "candidates_all", "candidates_alive",
                "beliefs", "ranks", "crashed", "faulty",
            ),
            oracle=_oracle("leader_election_oracle"),
            task="repro.parallel.tasks:election_trial",
        ),
        Family(
            name="agreement",
            budget=_paper_budget,
            schedule=lambda params, max_delay: AgreementSchedule.from_params(params),
            horizon=lambda s: s.schedule.last_round,
            nodes=lambda s: lambda u: AgreementProtocol(
                u, s.params, s.schedule, s.input_bits[u]
            ),
            evaluate=lambda run, s, adversary: _evaluate_agreement(
                run, s.params, s.seed, adversary, s.input_bits
            ),
            vec=lambda vec, s, adversary, f: vec.run_agreement_vec(
                s.params, s.schedule, s.seed, adversary, f, s.input_bits, s.horizon()
            ),
            attackers=lambda byz, s: byz.agreement_attackers(
                s.params, s.schedule, s.input_bits
            ),
            modes=AGREEMENT_MODES,
            outputs=(("is_candidate", bool), ("decision", Decision)),
            outcome=(
                "success", "decision", "decisions", "candidates_all",
                "candidates_alive", "crashed", "faulty",
            ),
            oracle=_oracle("agreement_oracle"),
            task="repro.parallel.tasks:agreement_trial",
        ),
        Family(
            name="flooding",
            # f + 1 rounds tolerate any f < n: the budget is the script's.
            budget=_scripted_budget,
            schedule=_no_schedule,
            # f + 1 protocol rounds, run for two extra delivery rounds.
            horizon=lambda s: s.fault_budget + 3,
            nodes=lambda s: lambda u: _baseline("flooding").FloodingConsensusProtocol(
                u, s.n, s.input_bits[u], s.fault_budget + 1
            ),
            evaluate=_consensus("flooding"),
            uses_params=False,
            knowledge=Knowledge.KT1,
            vec=lambda vec, s, adversary, f: vec.run_flooding_vec(
                s.n, s.input_bits, s.seed, adversary, f, s.fault_budget + 1, s.horizon()
            ),
            outputs=(("decided", int), ("estimate", int)),
            outcome=("success", "decisions", "crashed", "faulty"),
        ),
        Family(
            name="ben_or",
            # The paper budget, capped at Ben-Or's f < n/2 resilience.
            budget=lambda n, alpha, params, scripted: min(
                _paper_budget(n, alpha, params, scripted), (n - 1) // 2
            ),
            schedule=_ben_or_timetable,
            horizon=lambda s: _baseline("ben_or").ben_or_horizon(*s.schedule),
            nodes=lambda s: lambda u: _baseline("ben_or").BenOrProtocol(
                u, s.n, s.input_bits[u], s.fault_budget, *s.schedule
            ),
            evaluate=_consensus("ben-or", honest_only=True),
            uses_params=False,
            attackers=lambda byz, s: _baseline("ben_or").ben_or_attackers(s.n),
            # Ben-Or's zero_forger forges decide certificates, not inputs.
            modes=AGREEMENT_MODES,
            delay_tolerant=True,
            oracle=_ben_or_oracle,
            task="repro.parallel.tasks:ben_or_trial",
        ),
        # The five other baselines of Table I and Corollaries 1/3.  Their
        # runs take the scripted budget, as flooding's do.
        Family(
            name="kutten_le",
            budget=_scripted_budget,
            schedule=_no_schedule,
            horizon=lambda s: 4,
            nodes=_fault_free_nodes("kutten_le", "KuttenLeaderElectionProtocol"),
            evaluate=_unique_leader,
            uses_params=False,
            takes_inputs=False,
        ),
        Family(
            name="augustine_agreement",
            budget=_scripted_budget,
            schedule=_no_schedule,
            horizon=lambda s: 4,
            nodes=_fault_free_nodes("augustine_agreement", "AugustineAgreementProtocol"),
            evaluate=_consensus("augustine-agreement", implicit=True),
            uses_params=False,
        ),
        Family(
            name="gilbert_kowalski",
            budget=_scripted_budget,
            schedule=_no_schedule,
            # Inputs, ceil(log2 k) + 1 committee flood rounds, the decide
            # broadcast, then three delivery rounds.
            horizon=lambda s: 2 + math.ceil(
                math.log2(max(2, _baseline("gilbert_kowalski").committee_size(s.n)))
            ) + 1 + 3,
            nodes=lambda s: lambda u: _baseline("gilbert_kowalski").CommitteeAgreementProtocol(
                u, s.n, s.input_bits[u], _baseline("gilbert_kowalski").committee_size(s.n)
            ),
            evaluate=_consensus("gilbert-kowalski"),
            uses_params=False,
            knowledge=Knowledge.KT1,
        ),
        Family(
            name="chlebus_kowalski",
            budget=_scripted_budget,
            schedule=_no_schedule,
            horizon=lambda s: _baseline("chlebus_kowalski").gossip_rounds(s.n) + 2,
            nodes=lambda s: lambda u: _baseline("chlebus_kowalski").GossipConsensusProtocol(
                u, s.n, s.input_bits[u], _baseline("chlebus_kowalski").gossip_rounds(s.n)
            ),
            evaluate=_consensus("chlebus-kowalski"),
            uses_params=False,
        ),
        Family(
            name="rotating_coordinator",
            budget=_scripted_budget,
            schedule=_no_schedule,
            # f + 1 phases, one per round, then two delivery rounds.
            horizon=lambda s: min(s.fault_budget + 1, s.n) + 2,
            nodes=lambda s: lambda u: _baseline("rotating_coordinator").RotatingCoordinatorProtocol(
                u, s.n, s.input_bits[u], min(s.fault_budget + 1, s.n)
            ),
            evaluate=_consensus("rotating-coordinator"),
            uses_params=False,
            knowledge=Knowledge.KT1,
        ),
    )
}
