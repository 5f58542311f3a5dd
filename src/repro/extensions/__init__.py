"""Beyond the paper: explorations of its stated open problems.

Section VI lists open questions; two of them are explorable on this
code base:

* open problem (3), "whether a sub-linear message bound agreement
  protocol is possible in the presence of Byzantine node failure", is
  measured by the runners of :mod:`repro.faults.byzantine`, next to the
  attacker protocols they swap in.  (Spoiler: a single forger suffices —
  which is why the question is open.)
* :mod:`~repro.extensions.general_graphs` — open problem (2), "extend the
  study of the message complexity of the problem in general graphs": a
  random-walk-based implicit leader election in the style of
  Gilbert-Robinson-Sourav [43] on non-complete topologies, measured
  against the complete-graph protocol.
"""

from .general_graphs import (
    WalkLeaderElectionOutcome,
    walk_based_leader_election,
)

__all__ = [
    "WalkLeaderElectionOutcome",
    "walk_based_leader_election",
]
