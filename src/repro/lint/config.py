"""Lint configuration: ``.reprolint.toml`` loading and scoping.

The linter is configured by one repo-root ``.reprolint.toml``.  The
``[lint]`` table names the project layout (source roots, files never
linted, and the *deterministic packages* — the scope of the DET rules);
``[lint.rules.<ID>]`` tables scope or disable individual rules and carry
rule-specific options (hot modules for PERF001, the metrics/validate
files for ACC001, ...); ``[lint.baseline]`` grandfathers known findings
by ``"RULE:path-prefix"`` entries so a rule can be introduced without a
flag-day fix of every legacy hit.

The file is parsed with the standard library's :mod:`tomllib`.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError

#: Conventional config file name, looked up from the lint root upwards.
CONFIG_FILENAME = ".reprolint.toml"


class LintConfigError(ConfigurationError):
    """Raised for unreadable or malformed lint configuration."""


# ----------------------------------------------------------------------
# TOML loading
# ----------------------------------------------------------------------


def _load_toml(path: Path) -> Dict[str, Any]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise LintConfigError(f"{path}: {exc}") from exc


# ----------------------------------------------------------------------
# The configuration model
# ----------------------------------------------------------------------


@dataclass
class RuleConfig:
    """Per-rule scoping and free-form options."""

    enabled: bool = True
    include: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    options: Dict[str, Any] = field(default_factory=dict)


@dataclass
class LintConfig:
    """Everything the engine needs to know about the project."""

    #: Directory all configured paths are relative to.
    root: Path = field(default_factory=Path.cwd)
    #: Where importable code lives (resolving ``"module:qualname"`` refs).
    source_roots: List[str] = field(default_factory=lambda: ["src"])
    #: Path prefixes never linted.
    exclude: List[str] = field(default_factory=list)
    #: The deterministic packages — default scope of the DET rules.
    deterministic: List[str] = field(default_factory=list)
    #: Grandfathered findings, as ``"RULE:path-prefix"`` entries.
    baseline: List[str] = field(default_factory=list)
    rules: Dict[str, RuleConfig] = field(default_factory=dict)

    # -- scoping helpers ------------------------------------------------

    def rule(self, rule_id: str) -> RuleConfig:
        """The rule's configuration (a default one when not configured)."""
        return self.rules.get(rule_id) or RuleConfig()

    def rule_scope(
        self, rule_id: str, relpath: str, default_include: Optional[List[str]]
    ) -> bool:
        """Is ``relpath`` in scope for ``rule_id``?

        ``default_include`` is the rule's own default scope (``None`` =
        everything linted); an explicit ``include`` in the config
        replaces it, ``exclude`` always wins.
        """
        rule = self.rule(rule_id)
        if not rule.enabled:
            return False
        if any(path_matches(relpath, prefix) for prefix in rule.exclude):
            return False
        include = rule.include or default_include
        if include is None:
            return True
        return any(path_matches(relpath, prefix) for prefix in include)

    def baselined(self, rule_id: str, relpath: str) -> bool:
        """Is this finding grandfathered by a baseline entry?"""
        for entry in self.baseline:
            entry_rule, _, prefix = entry.partition(":")
            if entry_rule == rule_id and path_matches(relpath, prefix):
                return True
        return False


def path_matches(relpath: str, prefix: str) -> bool:
    """Segment-wise prefix match on posix-style relative paths."""
    relpath = relpath.replace("\\", "/").strip("/")
    prefix = prefix.replace("\\", "/").strip("/")
    if not prefix or prefix == ".":
        return True
    return relpath == prefix or relpath.startswith(prefix + "/")


def _string_list(value: Any, where: str) -> List[str]:
    if value is None:
        return []
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise LintConfigError(f"{where}: expected a list of strings, got {value!r}")
    return list(value)


def config_from_dict(data: Dict[str, Any], root: Path) -> LintConfig:
    """Build a :class:`LintConfig` from parsed TOML data."""
    lint = data.get("lint", {})
    if not isinstance(lint, dict):
        raise LintConfigError("[lint] must be a table")
    config = LintConfig(
        root=root,
        source_roots=_string_list(lint.get("source_roots"), "lint.source_roots")
        or ["src"],
        exclude=_string_list(lint.get("exclude"), "lint.exclude"),
        deterministic=_string_list(lint.get("deterministic"), "lint.deterministic"),
    )
    baseline = lint.get("baseline", {})
    if baseline:
        if not isinstance(baseline, dict):
            raise LintConfigError("[lint.baseline] must be a table")
        config.baseline = _string_list(
            baseline.get("entries"), "lint.baseline.entries"
        )
    rules = lint.get("rules", {})
    if rules and not isinstance(rules, dict):
        raise LintConfigError("[lint.rules] must be a table")
    for rule_id, table in rules.items():
        if not isinstance(table, dict):
            raise LintConfigError(f"[lint.rules.{rule_id}] must be a table")
        options = {
            key: value
            for key, value in table.items()
            if key not in ("enabled", "include", "exclude")
        }
        config.rules[rule_id] = RuleConfig(
            enabled=bool(table.get("enabled", True)),
            include=_string_list(table.get("include"), f"{rule_id}.include"),
            exclude=_string_list(table.get("exclude"), f"{rule_id}.exclude"),
            options=options,
        )
    return config


def load_config(path: Path) -> LintConfig:
    """Load a ``.reprolint.toml``; paths are relative to its directory."""
    return config_from_dict(_load_toml(path), root=path.parent.resolve())


def find_config(start: Path) -> Optional[Path]:
    """Find the nearest ``.reprolint.toml`` at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in [current, *current.parents]:
        candidate = directory / CONFIG_FILENAME
        if candidate.is_file():
            return candidate
    return None
