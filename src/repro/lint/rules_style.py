"""Hot-path and IO discipline rules: PERF001 and IO001.

PERF001 guards the engine's per-message allocation path: classes in the
configured hot modules (``sim/message.py``, ``sim/trace.py``) are
``__slots__`` classes or ``NamedTuple``s (``TraceEvent``), neither of
which has a per-instance ``__dict__`` (docs/PERF.md); a new class added
there without slots quietly reintroduces one on a path exercised
millions of times per campaign.

IO001 keeps stdout clean: CLI table/report output is the *product* of a
run (and is diffed byte-for-byte in parity tests), so engine and worker
code must never ``print()`` to stdout — diagnostics go through
:mod:`repro.obs.progress` or an explicit ``file=sys.stderr``.
"""

from __future__ import annotations

import ast
from typing import List

from .config import LintConfig
from .engine import FileRule, Finding, ParsedFile

#: Base-class names that exempt a class from PERF001: exception types
#: (raised, not allocated per message) and helper metaclasses.
_SLOTS_EXEMPT_BASES = ("Enum", "IntEnum", "Flag", "NamedTuple", "TypedDict", "Protocol")


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return _base_name(node) == "dataclass"


class SlotsRule(FileRule):
    """PERF001: hot-path classes must declare ``__slots__``.

    Applies to the modules configured as ``hot_modules``.  Dataclasses
    are exempt (one that matters can take ``slots=True``, and the ones
    kept in hot modules are deliberate, e.g. the per-run ``Trace``
    container), as are ``NamedTuple``s (``TraceEvent``: a tuple has no
    instance ``__dict__``) and exception and enum types.
    """

    rule_id = "PERF001"
    default_scope = "hot_modules"

    def check(self, file: ParsedFile, config: LintConfig) -> List[Finding]:
        assert file.tree is not None
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(_is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            if any(
                _base_name(base).endswith(("Error", "Exception"))
                or _base_name(base) in _SLOTS_EXEMPT_BASES
                for base in node.bases
            ):
                continue
            has_slots = any(
                (
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets
                    )
                )
                or (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                )
                for stmt in node.body
            )
            if not has_slots:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=file.relpath,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        message=(
                            f"class {node.name} lives in an engine hot-path "
                            "module but declares no __slots__; per-instance "
                            "__dict__ allocation here costs every single "
                            "message (see docs/PERF.md)"
                        ),
                    )
                )
        return findings


class BarePrintRule(FileRule):
    """IO001: no bare ``print()`` outside the CLI.

    A ``print`` without ``file=`` (or with ``file=sys.stdout``) writes
    to stdout, which is reserved for CLI product output; library,
    engine, and worker code must route diagnostics through
    ``repro.obs.progress`` or ``file=sys.stderr``.
    """

    rule_id = "IO001"
    default_scope = None  # everything linted, minus configured excludes

    def check(self, file: ParsedFile, config: LintConfig) -> List[Finding]:
        assert file.tree is not None
        findings: List[Finding] = []
        for node in ast.walk(file.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                continue
            file_kw = next(
                (kw for kw in node.keywords if kw.arg == "file"), None
            )
            if file_kw is not None:
                value = file_kw.value
                to_stdout = (
                    isinstance(value, ast.Attribute)
                    and value.attr == "stdout"
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "sys"
                )
                if not to_stdout:
                    continue  # explicit non-stdout destination is fine
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=file.relpath,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        "bare print() writes to stdout, which is reserved "
                        "for CLI output; use repro.obs.progress or "
                        "print(..., file=sys.stderr) for diagnostics"
                    ),
                )
            )
        return findings
