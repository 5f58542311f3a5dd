"""``.reprolint.toml`` loading, scoping, and baselines."""

import pytest

from repro.lint import (
    LintConfigError,
    config_from_dict,
    find_config,
    lint_paths,
    load_config,
    path_matches,
)

from .conftest import FIXTURES


def _det_config(**rule_table):
    return config_from_dict(
        {
            "lint": {
                "source_roots": ["."],
                "deterministic": ["detpkg"],
                **({"rules": {"DET001": rule_table}} if rule_table else {}),
            }
        },
        root=FIXTURES,
    )


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


def test_garbage_config_raises(tmp_path):
    path = tmp_path / ".reprolint.toml"
    path.write_text("[lint]\nthis is not toml\n", encoding="utf-8")
    with pytest.raises(LintConfigError):
        load_config(path)


def test_malformed_config_raises(tmp_path):
    path = tmp_path / ".reprolint.toml"
    path.write_text("[lint]\ndeterministic = 7\n", encoding="utf-8")
    with pytest.raises(LintConfigError):
        load_config(path)


def test_missing_config_file_raises(tmp_path):
    with pytest.raises(LintConfigError):
        load_config(tmp_path / ".reprolint.toml")


def test_find_config_walks_up(tmp_path):
    config = tmp_path / ".reprolint.toml"
    config.write_text("[lint]\n", encoding="utf-8")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert find_config(nested) == config
    leaf = nested / "mod.py"
    leaf.write_text("x = 1\n", encoding="utf-8")
    assert find_config(leaf) == config


def test_path_matches_is_segment_wise():
    assert path_matches("src/repro/sim/node.py", "src/repro/sim")
    assert path_matches("src/repro/sim", "src/repro/sim")
    assert not path_matches("src/repro/simulator/x.py", "src/repro/sim")
    assert path_matches("anything/at/all.py", ".")


# ----------------------------------------------------------------------
# Scoping knobs
# ----------------------------------------------------------------------


def test_lint_exclude_skips_files(fixture_config):
    report = lint_paths([FIXTURES / "excluded"], fixture_config)
    assert report.files == []
    assert report.clean


def test_rule_disabled():
    config = _det_config(enabled=False)
    report = lint_paths([FIXTURES / "detpkg" / "det001_bad.py"], config)
    assert "DET001" not in {f.rule for f in report.findings}


def test_rule_include_overrides_default_scope():
    config = _det_config(include=["otherpkg"])
    # The explicit include replaces the deterministic default scope:
    # otherpkg is now flagged, detpkg no longer is.
    flagged = lint_paths([FIXTURES / "otherpkg"], config)
    assert any(f.rule == "DET001" for f in flagged.findings)
    skipped = lint_paths([FIXTURES / "detpkg" / "det001_bad.py"], config)
    assert not any(f.rule == "DET001" for f in skipped.findings)


def test_rule_exclude_wins_over_scope():
    config = _det_config(exclude=["detpkg/det001_bad.py"])
    report = lint_paths([FIXTURES / "detpkg" / "det001_bad.py"], config)
    assert not any(f.rule == "DET001" for f in report.findings)


def test_baseline_grandfathers_findings():
    config = _det_config()
    config.baseline = ["DET001:detpkg/det001_bad.py"]
    report = lint_paths([FIXTURES / "detpkg" / "det001_bad.py"], config)
    assert not any(f.rule == "DET001" for f in report.findings)
    # The baseline names one rule only; other rules still fire there.
    config.baseline = ["DET002:detpkg/det001_bad.py"]
    report = lint_paths([FIXTURES / "detpkg" / "det001_bad.py"], config)
    assert any(f.rule == "DET001" for f in report.findings)


def test_robustness_modules_in_det_scope():
    """The delivery/Byzantine modules sit inside the DET rules' scope.

    The deterministic scope is directory-based, so new files under
    ``sim/`` and ``faults/`` are covered automatically — this pins that
    down for the modules whose determinism the replay layer relies on.
    """
    from .conftest import REPO_ROOT

    config = load_config(REPO_ROOT / ".reprolint.toml")
    for relpath in (
        "src/repro/sim/delivery.py",
        "src/repro/faults/byzantine.py",
        "src/repro/baselines/ben_or.py",
        "src/repro/chaos/grammar.py",
    ):
        assert (REPO_ROOT / relpath).is_file(), relpath
        for rule in ("DET001", "DET002"):
            assert config.rule_scope(
                rule, relpath, config.deterministic
            ), f"{rule} must cover {relpath}"
