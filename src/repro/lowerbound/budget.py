"""Budget-capped protocol runs (the falsifiable side of Theorems 4.2/5.2).

``run_budgeted_election`` / ``run_budgeted_agreement`` execute the
Section IV/V protocols under a hard global cap on sent messages: once the
cap is spent, no further message leaves any node (the engine suppresses
them).  This models *an algorithm that sends at most B messages* — and the
lower bound predicts that for ``B`` well below ``n^1/2/alpha^{3/2}`` no
such algorithm can succeed with probability better than a constant.

``budget_curve`` sweeps the cap over multiples of the bound and returns
the measured success rate at each point; experiment E10 checks the
collapse.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..analysis.stats import BernoulliSummary, summarize_trials
from ..core.families import FAMILIES, RunPoint
from ..core.results import AgreementResult, LeaderElectionResult
from ..core.runner import AdversarySpec, agree, elect_leader
from ..rng import seed_sequence
from .bounds import lower_bound_messages


def run_budgeted_election(
    n: int,
    alpha: float,
    budget: int,
    seed: int = 0,
    adversary: AdversarySpec = "random",
) -> LeaderElectionResult:
    """One leader-election run under a hard global message cap."""
    return elect_leader(
        n=n, alpha=alpha, seed=seed, adversary=adversary, message_budget=budget
    )


def run_budgeted_agreement(
    n: int,
    alpha: float,
    budget: int,
    seed: int = 0,
    adversary: AdversarySpec = "random",
    inputs: Union[str, Sequence[int]] = "mixed",
) -> AgreementResult:
    """One agreement run under a hard global message cap."""
    return agree(
        n=n,
        alpha=alpha,
        inputs=inputs,
        seed=seed,
        adversary=adversary,
        message_budget=budget,
    )


def budget_curve(
    problem: str,
    n: int,
    alpha: float,
    multipliers: Sequence[float],
    trials: int = 20,
    master_seed: int = 0,
    adversary: AdversarySpec = "random",
    inputs: Union[str, Sequence[int]] = "mixed",
    unit: Optional[float] = None,
) -> Dict[float, BernoulliSummary]:
    """Success rate vs message budget, budgets = multiplier * ``unit``.

    ``unit`` defaults to the theoretical lower bound
    ``n^1/2/alpha^{3/2}``; pass the measured uncapped cost instead to
    sweep around the protocol's actual spend (its constants exceed the
    bound's hidden constant by a large factor).

    ``problem`` is a family that uses the paper's parameters
    (``"election"`` or ``"agreement"``).  For a family with inputs
    (agreement) the success notion counted here is the *informed* one:
    the run must reach implicit agreement **and** the decision must be
    the value the uncapped protocol converges to (the zero-biased minimum
    over candidate inputs); otherwise budget-zero runs would trivially
    "succeed" by every candidate deciding its own input when all inputs
    agree by luck.
    """
    family = FAMILIES.get(problem)
    if family is None or not family.uses_params:
        paper = tuple(name for name, row in FAMILIES.items() if row.uses_params)
        raise ValueError(f"problem must be one of {paper}, got {problem!r}")
    succeeded = _informed_agreement_success if family.takes_inputs else _success
    scale = unit if unit is not None else lower_bound_messages(n, alpha)
    curve: Dict[float, BernoulliSummary] = {}
    for multiplier in multipliers:
        budget = max(0, int(multiplier * scale))
        outcomes: List[bool] = []
        for trial_seed in seed_sequence(master_seed, trials):
            point = RunPoint(
                problem, n, alpha, trial_seed, adversary,
                inputs=inputs if family.takes_inputs else None,
            )
            outcomes.append(succeeded(family.run(point, message_budget=budget)))
        curve[multiplier] = summarize_trials(outcomes)
    return curve


def _success(result: LeaderElectionResult) -> bool:
    return result.success


def _informed_agreement_success(result: AgreementResult) -> bool:
    """Implicit agreement + the decision matches the committee's true
    zero-biased target (0 iff any candidate held a 0)."""
    if not result.success:
        return False
    candidate_inputs = {result.inputs[u] for u in result.candidates_all}
    target = 0 if 0 in candidate_inputs else 1
    return result.decision == target
