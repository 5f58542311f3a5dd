"""Protocol families: one row per family that the tooling runs by name.

The paper's two protocols, implicit leader election (Sec. IV-A) and
implicit agreement (Sec. V-A), and the two baselines that campaigns run
by name, flooding consensus (Table I) and Ben-Or (E14), each get one
frozen :class:`Family` row in :data:`FAMILIES`.  A row says how its
family is built, run (:meth:`Family.run`, through the shared
:func:`repro.core.runner._run`) and judged.  The wire spec, the fuzzer,
the trial tasks, the campaign service and the CLI look rows up instead
of branching on the family's name.

Adding a family is one row plus its node class (see ``DESIGN.md``).
Rows import the baselines, the chaos layer and the vec engine lazily.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from functools import cached_property
from types import ModuleType, SimpleNamespace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..faults.adversary import Adversary
from ..faults.byzantine import AGREEMENT_MODES, ELECTION_MODES, ProtocolFactory
from ..params import Params
from ..sim.delivery import DeliverySchedule
from ..sim.network import RunResult
from ..types import Decision, Knowledge, NodeId, NodeState
from .agreement import AgreementProtocol
from .leader_election import LeaderElectionProtocol
from .runner import (
    AdversarySpec,
    _evaluate_agreement,
    _evaluate_leader_election,
    _run,
    make_inputs,
)
from .schedule import AgreementSchedule, LeaderElectionSchedule


@dataclass(frozen=True)
class Setup:
    """One run's family pieces, fixed before its network exists."""

    n: int
    seed: int
    params: Optional[Params]
    #: Input bits or a named pattern (``None`` for election).
    pattern: Any
    faulty_count: int
    #: A paper schedule, Ben-Or's ``(max_delay, max_phases)``, or ``None``.
    schedule: Any
    horizon: int

    @cached_property
    def inputs(self) -> Optional[List[int]]:
        """The input bits, drawn on first use."""
        if self.pattern is None:
            return None
        return make_inputs(self.n, self.pattern, self.seed)


@dataclass(frozen=True)
class Family:
    """How one protocol family is built, run and judged."""

    name: str
    #: ``(n, alpha, params, scripted faulty set)`` -> default fault budget.
    budget: Callable[[int, Optional[float], Optional[Params], Sequence[NodeId]], int]
    #: ``(params, max_delay, **options)`` -> the setup's ``schedule``.
    schedule: Callable[..., Any]
    #: Nominal horizon of a setup (``extra_rounds`` come on top).
    horizon: Callable[[Setup], int]
    nodes: Callable[[Setup], ProtocolFactory]
    #: ``(run, setup, adversary)`` -> the family's result object.
    evaluate: Callable[[RunResult, Setup, Adversary], Any]
    #: Runs build the paper's :class:`~repro.params.Params` when given none.
    uses_params: bool = True
    takes_inputs: bool = True
    knowledge: Knowledge = Knowledge.KT0
    #: ``(repro.sim.vec, setup, adversary, faulty_count)`` -> vec run.
    vec: Optional[Callable[[ModuleType, Setup, Adversary, int], RunResult]] = None
    #: ``(repro.faults.byzantine, setup)`` -> attacker constructor by mode.
    attackers: Optional[Callable[[ModuleType, Setup], Mapping[str, ProtocolFactory]]] = None
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

    def setup(
        self,
        n: int,
        alpha: Optional[float] = None,
        *,
        params: Optional[Params] = None,
        inputs: Any = "mixed",
        seed: int = 0,
        faulty_count: Optional[int] = None,
        extra_rounds: int = 0,
        max_delay: int = 0,
        scripted: Sequence[NodeId] = (),
        **options: Any,
    ) -> Setup:
        """Fix one run's pieces; ``options`` go to the family's ``schedule``."""
        if params is None and self.uses_params:
            params = Params(n=n, alpha=alpha)  # type: ignore[arg-type]
        if faulty_count is None:
            faulty_count = self.budget(n, alpha, params, scripted)
        setup = Setup(
            n=n, seed=seed, params=params,
            pattern=inputs if self.takes_inputs else None,
            faulty_count=faulty_count,
            schedule=self.schedule(params, max_delay, **options), horizon=0,
        )
        return replace(setup, horizon=self.horizon(setup) + extra_rounds)

    def run(
        self,
        n: int,
        alpha: Optional[float] = None,
        seed: int = 0,
        adversary: AdversarySpec = "random",
        *,
        backend: str = "ref",
        byzantine: Any = None,
        delivery: Optional[DeliverySchedule] = None,
        collect_trace: bool = False,
        message_budget: Optional[int] = None,
        timers: Any = None,
        **settings: Any,
    ) -> Any:
        """Run the family once and evaluate it.

        Parameters are :func:`~repro.core.runner.elect_leader`'s; the
        rest (``params``, ``inputs``, ``faulty_count``, ``extra_rounds``,
        family options) go to :meth:`setup`.
        """
        setup = self.setup(
            n, alpha, seed=seed,
            max_delay=delivery.max_delay if delivery is not None else 0,
            **settings,
        )
        vec, attackers = self.vec, self.attackers
        run, resolved = _run(
            n, setup.params, seed, adversary, setup.faulty_count,
            self.nodes(setup), setup.horizon, setup.inputs,
            backend=backend,
            vec_run=None if vec is None else (
                lambda module, adv, f: vec(module, setup, adv, f)
            ),
            byzantine=byzantine,
            attackers=None if attackers is None else (
                lambda byz: attackers(byz, setup)
            ),
            knowledge=self.knowledge,
            collect_trace=collect_trace, message_budget=message_budget,
            timers=timers, delivery=delivery,
        )
        return self.evaluate(run, setup, resolved)


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


def _consensus(label: str, honest_only: bool) -> Callable[[RunResult, Setup, Adversary], Any]:
    """A baseline's evaluator: explicit agreement over the alive nodes
    (the alive honest ones, when faulty nodes may lie)."""

    def evaluate(run: RunResult, s: Setup, adversary: Adversary) -> Any:
        from ..baselines.base import BaselineOutcome, evaluate_explicit_agreement

        outcome = BaselineOutcome(
            protocol=label, n=run.n, faulty=run.faulty, crashed=run.crashed,
            metrics=run.metrics, inputs=s.inputs, trace=run.trace,
            max_delay=run.max_delay,
        )
        for u in run.alive:
            decided = getattr(run.protocol(u), "decided", None)
            if decided is not None:
                outcome.decisions[u] = decided
        judged = [u for u in run.alive if not (honest_only and u in run.faulty)]
        outcome.success = evaluate_explicit_agreement(outcome, judged)
        return outcome

    return evaluate


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
                s.params, s.schedule, s.seed, adversary, f, s.horizon
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
                u, s.params, s.schedule, s.inputs[u]
            ),
            evaluate=lambda run, s, adversary: _evaluate_agreement(
                run, s.params, s.seed, adversary, s.inputs
            ),
            vec=lambda vec, s, adversary, f: vec.run_agreement_vec(
                s.params, s.schedule, s.seed, adversary, f, s.inputs, s.horizon
            ),
            attackers=lambda byz, s: byz.agreement_attackers(
                s.params, s.schedule, s.inputs
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
            budget=lambda n, alpha, params, scripted: len(scripted),
            schedule=lambda params, max_delay: None,
            # f + 1 protocol rounds, run for two extra delivery rounds.
            horizon=lambda s: s.faulty_count + 3,
            nodes=lambda s: lambda u: _baseline("flooding").FloodingConsensusProtocol(
                u, s.n, s.inputs[u], s.faulty_count + 1
            ),
            evaluate=_consensus("flooding", honest_only=False),
            uses_params=False,
            knowledge=Knowledge.KT1,
            vec=lambda vec, s, adversary, f: vec.run_flooding_vec(
                s.n, s.inputs, s.seed, adversary, f, s.faulty_count + 1, s.horizon
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
                u, s.n, s.inputs[u], s.faulty_count, *s.schedule
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
    )
}
