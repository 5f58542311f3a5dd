"""Comparison protocols.

Table I of the paper compares its agreement algorithm against the known
crash-fault consensus protocols; Section III additionally cites the
fault-free sublinear protocols that this paper generalises.  This package
re-implements each comparator on the same simulator so experiments E9
and E12 can measure them side by side.  Each module holds a node class
and an entry point that checks its inputs and runs the baseline's row of
:data:`repro.core.families.FAMILIES`, through the same run path as the
paper's protocols:

* :mod:`~repro.baselines.kutten_le` — fault-free sublinear implicit leader
  election (Kutten, Pandurangan, Peleg, Robinson, Trehan — [21]).
* :mod:`~repro.baselines.augustine_agreement` — fault-free sublinear
  implicit agreement (Augustine, Molla, Pandurangan — [23]).
* :mod:`~repro.baselines.gilbert_kowalski` — committee-based explicit
  crash agreement in the style of Gilbert–Kowalski [24] (O(n log n)
  messages in KT0, tolerates < n/2 crashes).
* :mod:`~repro.baselines.chlebus_kowalski` — randomized gossip consensus
  in the style of Chlebus–Kowalski [36] (O(n log n) expected messages).
* :mod:`~repro.baselines.flooding` — deterministic flooding consensus
  (O(n^2) messages, f+1 rounds, tolerates any f < n).
* :mod:`~repro.baselines.rotating_coordinator` — deterministic rotating-
  coordinator consensus ([35]/[37]-style: O(f) rounds, O(n f) messages).
* :mod:`~repro.baselines.ben_or` — Ben-Or randomized binary consensus,
  the repo's first protocol designed for the bounded-delay delivery model
  (its timetable stretches by ``1 + Δ``; safety never depends on Δ).

The crash-fault baselines are re-implementations *in spirit*: they keep
each cited protocol's message-flow skeleton and asymptotic columns
(messages / rounds / resilience / knowledge model), which is what the
Table I comparison measures; the full original constructions span papers
of their own.  Each module documents its simplifications.
"""

from .augustine_agreement import AugustineAgreementProtocol, augustine_agree
from .base import BaselineOutcome
from .ben_or import (
    BenOrDecideForger,
    BenOrProtocol,
    ben_or_consensus,
    ben_or_horizon,
)
from .chlebus_kowalski import GossipConsensusProtocol, gossip_consensus
from .flooding import FloodingConsensusProtocol, flooding_consensus
from .gilbert_kowalski import CommitteeAgreementProtocol, committee_agreement
from .kutten_le import KuttenLeaderElectionProtocol, kutten_elect_leader
from .rotating_coordinator import (
    RotatingCoordinatorProtocol,
    rotating_coordinator_consensus,
)

__all__ = [
    "AugustineAgreementProtocol",
    "BaselineOutcome",
    "BenOrDecideForger",
    "BenOrProtocol",
    "CommitteeAgreementProtocol",
    "FloodingConsensusProtocol",
    "GossipConsensusProtocol",
    "KuttenLeaderElectionProtocol",
    "RotatingCoordinatorProtocol",
    "augustine_agree",
    "ben_or_consensus",
    "ben_or_horizon",
    "committee_agreement",
    "flooding_consensus",
    "gossip_consensus",
    "kutten_elect_leader",
    "rotating_coordinator_consensus",
]
