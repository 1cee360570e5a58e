"""Config-string parsing and the from_params construction hook."""

import pytest

import repro.governors  # noqa: F401  — populate the registry
from repro.core.errors import GovernorError
from repro.governors import base as governor_base
from repro.governors.base import Governor, create_governor
from repro.governors.config import (
    canonical_config,
    format_config,
    parse_config,
)
from repro.governors.interactive import InteractiveGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.qoe_aware import QoeAwareGovernor


class TestParseConfig:
    def test_bare_name(self):
        assert parse_config("ondemand") == ("ondemand", {})

    def test_fixed(self):
        assert parse_config("fixed:960000") == ("fixed", {"khz": 960000})

    def test_parameterized_with_digit_separators(self):
        base, params = parse_config("qoe_aware:boost=1_036_800,settle=40000")
        assert base == "qoe_aware"
        assert params == {"boost": 1_036_800, "settle": 40_000}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            ":x=1",
            "fixed",
            "fixed:",
            "fixed:abc",
            "qoe_aware:",
            "qoe_aware:boost",
            "qoe_aware:=5",
            "qoe_aware:boost=",
            "qoe_aware:boost=fast",
            "qoe_aware:boost=1,boost=2",
        ],
    )
    def test_malformed_strings_raise_one_line_errors(self, bad):
        with pytest.raises(GovernorError) as excinfo:
            parse_config(bad)
        assert "\n" not in str(excinfo.value)

    def test_canonical_sorts_params_and_strips_separators(self):
        assert (
            canonical_config("qoe_aware:settle=40_000,boost=1_036_800")
            == "qoe_aware:boost=1036800,settle=40000"
        )
        assert canonical_config("ondemand") == "ondemand"
        assert canonical_config("fixed:960_000") == "fixed:960000"

    def test_format_round_trips_parse(self):
        for config in (
            "ondemand",
            "fixed:960000",
            "qoe_aware:boost=1036800,settle=40000",
        ):
            assert format_config(*parse_config(config)) == config

    def test_config_base(self):
        assert parse_config("fixed:960000")[0] == "fixed"
        assert parse_config("qoe_aware:boost=960000")[0] == "qoe_aware"


class TestFromParams:
    def test_aliases_map_to_constructor_kwargs(self, rig):
        governor = QoeAwareGovernor.from_params(
            rig.context(), {"boost": 1_190_400, "settle": 40_000, "timer": 10_000}
        )
        assert governor.boost_freq_khz == 1_190_400
        assert governor.settle_time_us == 40_000

    def test_unknown_key_lists_known_tunables(self, rig):
        with pytest.raises(GovernorError, match="boost, settle, timer"):
            QoeAwareGovernor.from_params(rig.context(), {"bogus": 1})

    def test_constructor_validation_becomes_governor_error(self, rig):
        with pytest.raises(GovernorError, match="up_threshold"):
            OndemandGovernor.from_params(rig.context(), {"up_threshold": 0})

    def test_param_and_kwarg_conflict_rejected(self, rig):
        # The config string is the only spelling: a keyword beside it is
        # not a second way in.
        with pytest.raises(TypeError):
            QoeAwareGovernor.from_params(
                rig.context(), {"boost": 960_000}, boost_freq_khz=1_190_400
            )

    def test_explicit_kwargs_still_pass_through(self, rig):
        # Constructors keep their keyword arguments for direct builds.
        governor = QoeAwareGovernor(
            rig.context(), boost_freq_khz=960_000, settle_time_us=20_000
        )
        assert governor.boost_freq_khz == 960_000
        assert governor.settle_time_us == 20_000


class TestCreateGovernor:
    def test_parameterized_config_string(self, rig):
        governor = create_governor(
            "interactive:hispeed=1_267_200,go_hispeed=85", rig.context()
        )
        assert isinstance(governor, InteractiveGovernor)
        assert governor.hispeed_freq_khz == 1_267_200
        assert governor.go_hispeed_load == 85

    def test_unknown_governor_mentions_base_name(self, rig):
        with pytest.raises(GovernorError, match="'warp'"):
            create_governor("warp:speed=9", rig.context())

    def test_params_on_parameterless_governor_rejected(self, rig, monkeypatch):
        class StillGovernor(Governor):
            name = "still"

            def _on_start(self) -> None:
                pass

        monkeypatch.setitem(governor_base._REGISTRY, "still", StillGovernor)
        with pytest.raises(GovernorError, match="'still' has no tunable 'x'"):
            create_governor("still:x=1", rig.context())

    def test_fixed_still_pins_userspace(self, rig):
        governor = create_governor("fixed:960000", rig.context())
        governor.start()
        assert rig.policy.current_khz == 960_000
