"""The package metadata in pyproject.toml matches the code it installs."""

import importlib
import pkgutil
import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"


def test_console_script_and_version_match_the_package():
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "repro-qoe"
    assert project["version"] == repro.__version__
    module_name, _, attribute = project["scripts"]["repro-qoe"].partition(":")
    assert callable(getattr(importlib.import_module(module_name), attribute))


def test_every_exported_name_resolves():
    """Each name in each ``repro`` module's ``__all__`` is an attribute of
    that module, so a deleted function leaves no stale re-export."""
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    stale = [
        f"{name}.{export}"
        for name in names
        for export in getattr(importlib.import_module(name), "__all__", ())
        if not hasattr(importlib.import_module(name), export)
    ]
    assert stale == []
