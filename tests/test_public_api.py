"""Public-API surface tests: __all__ must resolve, lazy exports must work."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.experiments",
    "repro.extensions",
    "repro.faults",
    "repro.lowerbound",
    "repro.sim",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{package}.{name}"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_lazy_top_level_exports():
    import repro

    assert callable(repro.elect_leader)
    assert callable(repro.agree)
    with pytest.raises(AttributeError):
        repro.nonexistent_thing


def test_top_level_docstring_names_the_paper():
    import repro

    assert "Kumar" in repro.__doc__ and "Molla" in repro.__doc__


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_item_has_a_docstring(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        item = getattr(module, name)
        if callable(item) or isinstance(item, type):
            assert item.__doc__, f"{package}.{name} lacks a docstring"


def test_import_repro_core_stays_light():
    """``import repro.core`` loads no baselines, chaos, net or numpy."""
    probe = (
        "import sys, repro.core; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or "
        "m.split('.')[:2] in (['repro', 'baselines'], ['repro', 'chaos'], "
        "['repro', 'net'])))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
