"""High-level entry points: build a network, run a protocol, evaluate.

These are the functions most users call:

>>> from repro.core import elect_leader, agree
>>> elect_leader(n=512, alpha=0.5, seed=1, adversary="staggered").success
True
>>> agree(n=512, alpha=0.5, inputs="single0", seed=1).decision
0
"""

from __future__ import annotations

import random
from types import ModuleType
from typing import (
    TYPE_CHECKING, Any, Callable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..errors import ConfigurationError, VecUnsupported
from ..faults.adversary import Adversary
from ..faults.strategies import named_adversary
from ..obs.timing import PhaseTimers
from ..params import CongestBudget, Params
from ..rng import derive_seed
from ..sim.delivery import DeliverySchedule
from ..sim.network import Network, RunResult

if TYPE_CHECKING:  # pragma: no cover - lazy import (faults.byzantine
    # depends on this package; see repro.faults.__init__)
    from ..faults.byzantine import ByzantinePlan, ProtocolFactory
from ..types import Knowledge, NodeState
from .agreement import AgreementProtocol
from .explicit import ExplicitAgreementProtocol, ExplicitLeaderElectionProtocol
from .leader_based_agreement import LeaderBasedAgreementProtocol
from .leader_election import LeaderElectionProtocol
from .results import (
    AgreementResult,
    ExplicitAgreementResult,
    ExplicitLeaderElectionResult,
    LeaderElectionResult,
)
from .schedule import AgreementSchedule, LeaderElectionSchedule

#: Rounds appended after the nominal schedule to fit the explicit
#: broadcast wave (broadcast + delivery).
EXPLICIT_TAIL_ROUNDS = 3

AdversarySpec = Union[str, Adversary]

#: Named input patterns for the agreement problem.
INPUT_PATTERNS = ("all0", "all1", "mixed", "single0", "single1")

#: Engine backends: the reference per-node engine, and the numpy
#: struct-of-arrays engine (exact same results, see ``docs/VEC.md``).
BACKENDS = ("ref", "vec")


def _resolve_adversary(spec: AdversarySpec, horizon: int) -> Adversary:
    if isinstance(spec, Adversary):
        return spec
    return named_adversary(spec, horizon)


def make_inputs(
    n: int, pattern: Union[str, Sequence[int]], seed: int = 0
) -> List[int]:
    """Materialise an input-bit vector for the agreement problem.

    ``pattern`` is either an explicit bit sequence or one of
    :data:`INPUT_PATTERNS`:

    * ``all0`` / ``all1`` — unanimous inputs;
    * ``mixed`` — independent fair coin per node;
    * ``single0`` / ``single1`` — one random node holds the minority bit
      (the hardest validity cases: the lone value must either spread or
      die with its holder).
    """
    if not isinstance(pattern, str):
        inputs = [int(b) for b in pattern]
        if len(inputs) != n:
            raise ConfigurationError(
                f"got {len(inputs)} input bits for n={n} nodes"
            )
        if any(b not in (0, 1) for b in inputs):
            raise ConfigurationError("inputs must be bits")
        return inputs
    rng = random.Random(derive_seed(seed, "inputs", pattern))
    if pattern == "all0":
        return [0] * n
    if pattern == "all1":
        return [1] * n
    if pattern == "mixed":
        return [rng.randint(0, 1) for _ in range(n)]
    if pattern == "single0":
        inputs = [1] * n
        inputs[rng.randrange(n)] = 0
        return inputs
    if pattern == "single1":
        inputs = [0] * n
        inputs[rng.randrange(n)] = 1
        return inputs
    raise ConfigurationError(
        f"unknown input pattern {pattern!r}; choose from {INPUT_PATTERNS}"
    )


# ----------------------------------------------------------------------
# The one run path
# ----------------------------------------------------------------------

#: A protocol's vec-engine run: ``(repro.sim.vec, adversary, faulty_count)``.
_VecRunner = Callable[[ModuleType, Adversary, int], RunResult]


def _run(
    n: int,
    params: Optional[Params],
    seed: int,
    adversary: AdversarySpec,
    faulty_count: Optional[int],
    factory: "ProtocolFactory",
    horizon: int,
    inputs: Optional[Sequence[int]] = None,
    *,
    backend: str = "ref",
    vec_run: Optional[_VecRunner] = None,
    byzantine: Optional["ByzantinePlan"] = None,
    attackers: Optional[Callable[[ModuleType], Mapping[str, "ProtocolFactory"]]] = None,
    knowledge: Knowledge = Knowledge.KT0,
    **engine: Any,
) -> Tuple[RunResult, Adversary]:
    """Run one protocol to ``horizon``; return the run and its adversary.

    ``vec_run(repro.sim.vec, adversary, faulty_count)`` is the protocol's
    vec-engine twin, run on ``backend="vec"`` unless the adversary or
    ``engine`` (the reference engine's options: trace, message budget,
    timers, delivery schedule) is one vec cannot mirror exactly; then
    the reference engine runs, byte-identical to a ref-only run because
    the adversary's selection state is rebuilt from the same seed.
    ``attackers(repro.faults.byzantine)`` is the family's Byzantine
    attacker table, built only when a plan runs.  The returned adversary
    is the one the run was charged to, wrapped when a Byzantine plan ran.
    ``params`` may be ``None`` only when ``faulty_count`` is given.
    """
    if params is not None and params.n != n:
        raise ConfigurationError(
            f"params are for n={params.n}, but the run has n={n} nodes"
        )
    adversary = _resolve_adversary(adversary, horizon)
    if faulty_count is None:
        assert params is not None
        faulty_count = params.max_faulty
    if backend == "vec" and vec_run is not None:
        from ..sim import vec

        try:
            vec.ensure_vec_supported(adversary, byzantine=byzantine, **engine)
            return vec_run(vec, adversary, faulty_count), adversary
        except VecUnsupported:
            pass
    if byzantine is not None and byzantine.modes:
        from ..faults import byzantine as byz

        adversary = byz.ByzantineAdversary(byzantine, adversary)
        factory = byz.plan_factory(
            byzantine, factory, attackers(byz) if attackers else None
        )
    network = Network(
        n,
        factory,
        seed=seed,
        adversary=adversary,
        max_faulty=faulty_count,
        inputs=inputs,
        knowledge=knowledge,
        congest=CongestBudget(n),
        **engine,
    )
    return network.run(horizon), adversary


# ----------------------------------------------------------------------
# Leader election
# ----------------------------------------------------------------------


def elect_leader(
    n: int,
    alpha: float,
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
    collect_trace: bool = False,
    message_budget: Optional[int] = None,
    extra_rounds: int = 0,
    timers: Optional[PhaseTimers] = None,
    delivery: Optional[DeliverySchedule] = None,
    byzantine: Optional["ByzantinePlan"] = None,
    backend: str = "ref",
) -> LeaderElectionResult:
    """Run the Section IV-A fault-tolerant implicit leader election.

    Parameters
    ----------
    n, alpha:
        Network size and non-faulty fraction (``alpha in [log^2 n/n, 1]``).
    seed:
        Master seed; runs are exactly reproducible from ``(args, seed)``.
    adversary:
        An :class:`~repro.faults.Adversary` or a short name
        (``none/eager/lazy/random/staggered/split/adaptive``).
    faulty_count:
        Size of the static faulty set; defaults to the maximum the
        parameters tolerate.
    message_budget:
        Optional global cap on sent messages (lower-bound experiments).
    extra_rounds:
        Extra rounds appended after the nominal schedule (robustness
        experiments).
    timers:
        Optional :class:`~repro.obs.PhaseTimers` profiling the engine's
        round phases; totals surface as ``result.metrics.phase_seconds``.
    delivery:
        Optional :class:`~repro.sim.DeliverySchedule` (bounded-delay
        partial synchrony); default is the synchronous model.
    byzantine:
        Optional :class:`~repro.faults.byzantine.ByzantinePlan` turning
        designated nodes into attackers/omitters; the plan's nodes join
        the faulty set and charge ``faulty_count``.
    backend:
        ``"ref"`` (default) runs the per-node reference engine; ``"vec"``
        runs the numpy struct-of-arrays engine, which produces identical
        results and falls back to ``"ref"`` for configurations it cannot
        mirror exactly (see ``docs/VEC.md``).
    """
    from .families import FAMILIES

    return FAMILIES["election"].run(
        n, alpha, seed, adversary, faulty_count=faulty_count, params=params,
        collect_trace=collect_trace, message_budget=message_budget,
        extra_rounds=extra_rounds, timers=timers, delivery=delivery,
        byzantine=byzantine, backend=backend,
    )


def _evaluate_leader_election(
    run: RunResult, params: Params, seed: int, adversary: Adversary
) -> LeaderElectionResult:
    result = LeaderElectionResult(
        n=run.n,
        alpha=params.alpha,
        seed=seed,
        adversary=adversary.name(),
        faulty=run.faulty,
        crashed=run.crashed,
        metrics=run.metrics,
        trace=run.trace,
        max_delay=run.max_delay,
    )
    for u in range(run.n):
        protocol: LeaderElectionProtocol = run.protocol(u)  # type: ignore[assignment]
        if protocol.rank is not None:
            result.ranks[u] = protocol.rank
        if not protocol.is_candidate:
            continue
        result.candidates_all.append(u)
        if u in run.crashed:
            if protocol.state is NodeState.ELECTED:
                result.elected_crashed.append(u)
            continue
        result.candidates_alive.append(u)
        result.beliefs[u] = protocol.leader_rank
        if protocol.state is NodeState.ELECTED:
            result.elected_alive.append(u)
    return result


def elect_leader_explicit(
    n: int,
    alpha: float,
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
) -> ExplicitLeaderElectionResult:
    """Run explicit leader election (implicit + one broadcast round).

    On top of the implicit outcome, the result records which nodes learnt
    the winner's rank (``explicit_ranks`` / ``explicit_success``).
    """
    params = params or Params(n=n, alpha=alpha)
    schedule = LeaderElectionSchedule.from_params(params)
    run, adversary = _run(
        n, params, seed, adversary, faulty_count,
        lambda u: ExplicitLeaderElectionProtocol(u, params, schedule),
        schedule.last_round + EXPLICIT_TAIL_ROUNDS,
    )
    base = _evaluate_leader_election(run, params, seed, adversary)
    result = ExplicitLeaderElectionResult(**vars(base))
    for u in range(run.n):
        if u in run.crashed:
            continue
        protocol: ExplicitLeaderElectionProtocol = run.protocol(u)  # type: ignore[assignment]
        result.explicit_ranks[u] = protocol.explicit_leader_rank
    return result


# ----------------------------------------------------------------------
# Agreement
# ----------------------------------------------------------------------


def agree(
    n: int,
    alpha: float,
    inputs: Union[str, Sequence[int]] = "mixed",
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
    collect_trace: bool = False,
    message_budget: Optional[int] = None,
    extra_rounds: int = 0,
    timers: Optional[PhaseTimers] = None,
    delivery: Optional[DeliverySchedule] = None,
    byzantine: Optional["ByzantinePlan"] = None,
    backend: str = "ref",
) -> AgreementResult:
    """Run the Section V-A fault-tolerant implicit agreement.

    ``inputs`` is an explicit bit vector or a named pattern
    (see :func:`make_inputs`).  Other parameters as in
    :func:`elect_leader`.
    """
    from .families import FAMILIES

    return FAMILIES["agreement"].run(
        n, alpha, seed, adversary, inputs=inputs, faulty_count=faulty_count,
        params=params, collect_trace=collect_trace,
        message_budget=message_budget, extra_rounds=extra_rounds,
        timers=timers, delivery=delivery, byzantine=byzantine,
        backend=backend,
    )


def agree_explicit(
    n: int,
    alpha: float,
    inputs: Union[str, Sequence[int]] = "mixed",
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
) -> ExplicitAgreementResult:
    """Run explicit agreement (implicit + one broadcast round).

    On top of the implicit outcome, the result records which nodes learnt
    the agreed bit (``explicit_bits`` / ``explicit_success``).
    """
    params = params or Params(n=n, alpha=alpha)
    schedule = AgreementSchedule.from_params(params)
    input_bits = make_inputs(n, inputs, seed)
    run, adversary = _run(
        n, params, seed, adversary, faulty_count,
        lambda u: ExplicitAgreementProtocol(u, params, schedule, input_bits[u]),
        schedule.last_round + EXPLICIT_TAIL_ROUNDS,
        input_bits,
    )
    base = _evaluate_agreement(run, params, seed, adversary, input_bits)
    result = ExplicitAgreementResult(**vars(base))
    for u in range(run.n):
        if u in run.crashed:
            continue
        protocol: ExplicitAgreementProtocol = run.protocol(u)  # type: ignore[assignment]
        result.explicit_bits[u] = protocol.explicit_decision
    return result


def agree_via_election(
    n: int,
    alpha: float,
    inputs: Union[str, Sequence[int]] = "mixed",
    seed: int = 0,
    adversary: AdversarySpec = "random",
    faulty_count: Optional[int] = None,
    params: Optional[Params] = None,
) -> AgreementResult:
    """Solve implicit agreement by the Section V reduction through leader
    election (agree on the elected leader's input bit).

    Costs the election's ``O(n^1/2 log^{5/2} n/alpha^{5/2})`` messages —
    a ``log n/alpha`` factor more than :func:`agree`; exists to measure
    that remark (experiment E13's table).
    """
    params = params or Params(n=n, alpha=alpha)
    schedule = LeaderElectionSchedule.from_params(params)
    input_bits = make_inputs(n, inputs, seed)
    run, adversary = _run(
        n, params, seed, adversary, faulty_count,
        lambda u: LeaderBasedAgreementProtocol(u, params, schedule, input_bits[u]),
        schedule.last_round,
        input_bits,
    )
    return _evaluate_agreement(run, params, seed, adversary, input_bits)


def _evaluate_agreement(
    run: RunResult,
    params: Params,
    seed: int,
    adversary: Adversary,
    inputs: Sequence[int],
) -> AgreementResult:
    result = AgreementResult(
        n=run.n,
        alpha=params.alpha,
        seed=seed,
        adversary=adversary.name(),
        inputs=list(inputs),
        faulty=run.faulty,
        crashed=run.crashed,
        metrics=run.metrics,
        trace=run.trace,
        max_delay=run.max_delay,
    )
    for u in range(run.n):
        protocol: AgreementProtocol = run.protocol(u)  # type: ignore[assignment]
        if protocol.is_candidate:
            result.candidates_all.append(u)
        if u in run.crashed:
            continue
        if protocol.is_candidate:
            result.candidates_alive.append(u)
        result.decisions[u] = protocol.decision
    return result
