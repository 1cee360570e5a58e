"""Tests for the userspace governor (``fixed:<khz>``) + registry."""

import pytest

from repro.core.errors import GovernorError
from repro.governors.base import create_governor, registered_governors
from repro.governors.userspace import UserspaceGovernor


def test_userspace_holds_fixed_frequency(rig):
    governor = UserspaceGovernor(rig.context(), fixed_khz=960_000)
    governor.start()
    rig.submit_work(5e9)
    rig.run(3_000_000)
    assert rig.policy.current_khz == 960_000
    assert len(rig.policy.transition_points()) == 2  # initial + pin


def test_userspace_rejects_non_opp(rig):
    with pytest.raises(GovernorError):
        UserspaceGovernor(rig.context(), fixed_khz=123)


def test_registry_contains_all_governors():
    names = registered_governors()
    for expected in (
        "ondemand",
        "conservative",
        "interactive",
        "fixed",
        "qoe_aware",
    ):
        assert expected in names


def test_create_by_name(rig):
    governor = create_governor("ondemand", rig.context())
    assert governor.name == "ondemand"


def test_create_fixed_shorthand(rig):
    governor = create_governor("fixed:960000", rig.context())
    governor.start()
    assert rig.policy.current_khz == 960_000


def test_create_unknown_rejected(rig):
    with pytest.raises(GovernorError):
        create_governor("turbo", rig.context())


def test_double_start_rejected(rig):
    governor = create_governor("fixed:960000", rig.context())
    governor.start()
    with pytest.raises(GovernorError):
        governor.start()


def test_fixed_is_the_only_pinned_spelling(rig):
    governor = create_governor("fixed:2150400", rig.context())
    assert isinstance(governor, UserspaceGovernor)
    assert governor.name == "userspace"
    for alias in ("performance", "powersave", "userspace"):
        with pytest.raises(GovernorError, match="fixed:<khz>"):
            create_governor(alias, rig.context())
