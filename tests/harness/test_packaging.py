"""The package metadata in pyproject.toml matches the code it installs."""

import importlib
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
