"""repro — fault-tolerant leader election and agreement with sublinear
message complexity.

A from-scratch reproduction of:

    Manish Kumar and Anisur Rahaman Molla,
    "On the Message Complexity of Fault-Tolerant Computation:
    Leader Election and Agreement",
    PODC 2021 (brief announcement); IEEE TPDS 34(4), 2023.

The package contains the paper's randomized protocols (:mod:`repro.core`),
the synchronous crash-fault network model they run on (:mod:`repro.sim`,
:mod:`repro.faults`), the comparison baselines of the paper's Table I
(:mod:`repro.baselines`), empirical machinery for the message-complexity
lower bounds (:mod:`repro.lowerbound`), and the measurement/experiment
harness (:mod:`repro.analysis`, :mod:`repro.experiments`).

Quickstart
----------

>>> from repro import elect_leader, agree
>>> result = elect_leader(n=256, alpha=0.5, seed=7, adversary="random")
>>> result.success
True
>>> result = agree(n=256, alpha=0.5, inputs="mixed", seed=7)
>>> result.decision in (0, 1)
True
"""

from .params import CongestBudget, Params, alpha_floor, default_params, max_faulty
from .types import Decision, Knowledge, NodeState

__version__ = "1.23.0"

__all__ = [
    "CongestBudget",
    "Decision",
    "Knowledge",
    "NodeState",
    "Params",
    "agree",
    "alpha_floor",
    "default_params",
    "elect_leader",
    "max_faulty",
    "__version__",
]


def __getattr__(name):
    # Lazy re-exports: the high-level entry points live in repro.core,
    # which pulls in the whole simulator; `import repro` alone stays light.
    if name in ("elect_leader", "agree"):
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
