"""The family table and its run point (``repro.core.families``)."""

import ast
import re
from pathlib import Path

import pytest

from repro.chaos.script import CrashScript
from repro.core import agree, elect_leader
from repro.core.families import FAMILIES, RunPoint
from repro.errors import ConfigurationError
from repro.params import Params

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Comparisons that pick a family by name instead of reading its row.
NAME_BRANCH = re.compile(
    r"""==\s*["'](?:%s)["']|\bproblem\s*==|in\s*\(\s*["']election["'],\s*["']agreement["']\s*\)"""
    % "|".join(FAMILIES)
)


def name_branches(root):
    """``(path, line number, line)`` of every family-name comparison."""
    return [
        (path.relative_to(root).as_posix(), number, line.strip())
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if NAME_BRANCH.search(line)
    ]


def test_only_the_family_table_branches_on_family_names():
    assert [hit for hit in name_branches(SRC) if hit[0] != "core/families.py"] == []


def test_the_scan_sees_a_name_branch(tmp_path):
    (tmp_path / "budget.py").write_text(
        'if problem not in ("election", "agreement"):\n    pass\n'
        'if problem == "election":\n    pass\n'
        'if protocol == "ben_or":\n    pass\n'
    )
    assert [number for _, number, _ in name_branches(tmp_path)] == [1, 3, 5]


def network_calls(root):
    """``(path, line number)`` of every call that builds a ``Network``."""
    return sorted(
        (path.relative_to(root).as_posix(), node.lineno)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Network"
    )


def test_only_the_runner_builds_a_network():
    assert {path for path, _ in network_calls(SRC)} == {"core/runner.py"}


def test_the_scan_sees_a_network_call(tmp_path):
    (tmp_path / "baseline.py").write_text(
        '"""Mirrors ``Network(...).run()``."""\n'
        "run = Network(8, factory).run(4)\n"
        "other = network.Network(8, factory)\n"
    )
    assert network_calls(tmp_path) == [("baseline.py", 2), ("baseline.py", 3)]


class TestRunPointValidation:
    def test_election_rejects_inputs(self):
        with pytest.raises(ConfigurationError, match="takes no inputs"):
            RunPoint("election", 64, 0.5, inputs="all1")

    def test_inputs_default_to_mixed_where_taken(self):
        assert RunPoint("agreement", 64, 0.5).inputs == "mixed"
        assert RunPoint("election", 64, 0.5).inputs is None

    def test_unknown_protocol_and_backend(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            RunPoint("paxos", 64, 0.5)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            RunPoint("election", 64, 0.5, backend="gpu")

    def test_params_for_another_n(self):
        with pytest.raises(ConfigurationError, match="params are for n=64"):
            RunPoint("election", 128, 0.5, params=Params(n=64, alpha=0.5))

    @pytest.mark.parametrize("backend", ["ref", "vec"])
    def test_params_for_another_alpha(self, backend):
        with pytest.raises(ConfigurationError, match="params are for alpha=0.9"):
            RunPoint("election", 64, 0.5, params=Params(n=64, alpha=0.9), backend=backend)
        with pytest.raises(ConfigurationError, match="params are for alpha=0.9"):
            elect_leader(n=64, alpha=0.5, seed=1, params=Params(n=64, alpha=0.9), backend=backend)
        with pytest.raises(ConfigurationError, match="params are for alpha=0.9"):
            agree(n=64, alpha=0.5, seed=1, params=Params(n=64, alpha=0.9), backend=backend)

    def test_resolves_through_the_row(self):
        point = RunPoint("agreement", 64, 0.5, seed=3, inputs="single1", extra_rounds=2)
        assert point.fault_budget == Params(n=64, alpha=0.5).max_faulty
        assert point.horizon() == point.schedule.last_round + 2
        assert sum(point.input_bits) == 1
        flood = RunPoint("flooding", 16, adversary=CrashScript(faulty=(1, 2), crashes={}))
        assert (flood.fault_budget, flood.horizon()) == (2, 5)

    def test_json_round_trip(self):
        point = RunPoint(
            "ben_or", 16, 0.5, 4, "staggered", inputs=(0, 1) * 8, max_delay=2,
            options={"max_phases": 3},
        )
        assert RunPoint.from_dict(point.to_dict()) == point
        fast = RunPoint("election", 64, 0.5, params=Params(n=64, alpha=0.5, referee_factor=1.0))
        assert fast.to_dict()["constants"] == {"referee_factor": 1.0}
        assert RunPoint.from_dict(fast.to_dict()) == fast


def test_family_run_takes_a_point_or_its_fields():
    point = RunPoint("election", 64, 0.5, 3, "random")
    assert FAMILIES["election"].run(point).summary() == elect_leader(
        n=64, alpha=0.5, seed=3
    ).summary()
    assert FAMILIES["agreement"].run(64, 0.5, 3, "random").summary() == agree(
        n=64, alpha=0.5, seed=3
    ).summary()


def test_the_cli_point_flags_are_point_fields():
    from dataclasses import fields

    from repro.cli import _POINT_FLAGS

    assert set(_POINT_FLAGS) <= {f.name for f in fields(RunPoint)}


BASELINE_ROWS = (
    "kutten_le", "augustine_agreement", "gilbert_kowalski", "chlebus_kowalski",
    "rotating_coordinator",
)


def test_the_baseline_rows_reach_no_consumer():
    from repro import serve
    from repro.chaos.fuzzer import PROTOCOLS
    from repro.cli import _families
    from repro.lowerbound.budget import budget_curve
    from repro.net.spec import WIRE_PROTOCOLS

    assert tuple(FAMILIES)[-len(BASELINE_ROWS):] == BASELINE_ROWS
    assert WIRE_PROTOCOLS == ("election", "agreement", "flooding")
    assert PROTOCOLS == ("election", "agreement", "ben_or")
    assert sorted(serve.TASKS) == ["agreement", "ben_or", "election", "fuzz"]
    assert _families("task") == ("election", "agreement", "ben_or")
    for name in BASELINE_ROWS:
        with pytest.raises(
            ValueError, match=r"problem must be one of \('election', 'agreement'\)"
        ):
            budget_curve(name, 64, 0.5, [1.0])
