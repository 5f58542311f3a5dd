"""Adversary fuzzing: random fault schedules, safety oracles, shrinking.

The paper's theorems hold *for every* adaptive crash schedule; this
subpackage searches that space empirically.  A :class:`FuzzedAdversary`
samples schedules from a generation grammar, every run is checked against
the model validator plus protocol safety oracles, and failing schedules
are recorded as deterministic, replayable :class:`CrashScript` objects
and shrunk to minimal reproducers.

An *extended* :class:`GrammarConfig` fuzzes beyond the paper's model:
per-node Byzantine misbehaviour plans and bounded-delay delivery
schedules ride on the same scripts (wire-format version 2).  Oracle
violations that the sampled faults excuse are journalled *findings*
rather than campaign failures — the crash-safe properties (model
validator, engine contracts, crash-only oracles) must always hold.

See ``docs/CHAOS.md`` for the grammar, the oracle list, and the replay
workflow (``repro fuzz`` / ``repro replay``); ``docs/FAULTS.md`` for the
fault hierarchy.
"""

from .fuzzer import (
    FAST_CONSTANTS,
    PROTOCOLS,
    FuzzCase,
    FuzzReport,
    classify,
    default_scenarios,
    fuzz,
    fuzz_one,
    fuzz_scenario,
    replay_case,
    run_scenario,
)
from .grammar import FuzzedAdversary, GrammarConfig, sample_filter, sample_script
from .oracles import (
    FRAGILE_PREFIXES,
    agreement_oracle,
    downgrade_fragile,
    leader_election_oracle,
)
from .script import (
    SCRIPT_VERSION,
    SUPPORTED_SCRIPT_VERSIONS,
    CrashScript,
    DeliveryFilter,
    as_script,
)
from .shrink import ShrinkResult, shrink_case, shrink_script

__all__ = [
    "FAST_CONSTANTS",
    "FRAGILE_PREFIXES",
    "PROTOCOLS",
    "SCRIPT_VERSION",
    "SUPPORTED_SCRIPT_VERSIONS",
    "CrashScript",
    "DeliveryFilter",
    "FuzzCase",
    "FuzzReport",
    "FuzzedAdversary",
    "GrammarConfig",
    "ShrinkResult",
    "agreement_oracle",
    "as_script",
    "classify",
    "default_scenarios",
    "downgrade_fragile",
    "fuzz",
    "fuzz_one",
    "fuzz_scenario",
    "leader_election_oracle",
    "replay_case",
    "run_scenario",
    "sample_filter",
    "sample_script",
    "shrink_case",
    "shrink_script",
]
