"""The experiment suite (DESIGN.md section 4).

The paper is a theory paper: its "evaluation" is a set of theorems plus a
comparison table (Table I).  Each experiment here measures one of those
artifacts on the simulator and checks the predicted *shape*:

====  ==========================================================
E1    LE messages vs n                 (Theorem 4.1)
E2    LE messages vs alpha             (Theorem 4.1)
E3    LE rounds                        (Theorem 4.1)
E4    leader non-faulty w.p. >= alpha  (Theorem 4.1)
E5    sampling lemmas 1-3
E6    agreement messages vs n          (Theorem 5.1)
E7    agreement messages vs alpha      (Theorem 5.1)
E8    explicit extensions              (Sections IV-A / V-A)
E9    Table I comparison
E10   lower bounds                     (Theorems 4.2 / 5.2)
E11   sublinearity thresholds          (Section I-A)
E12   fault-free parity                (Corollaries 1 and 3)
E13   constant ablations               (design choices)
E14   model boundaries: adaptive selection & LE reduction
E15   Byzantine stress                 (open problem 3)
E16   general graphs                   (open problem 2)
====  ==========================================================

Run them via ``python -m repro run E1 [--quick]``, which prints the
measured table and exits non-zero when a shape check fails.
"""

from .harness import Check, Experiment, ExperimentReport, run_experiments_resilient
from .registry import all_experiments, get_experiment

__all__ = [
    "Check",
    "Experiment",
    "ExperimentReport",
    "all_experiments",
    "get_experiment",
    "run_experiments_resilient",
]
