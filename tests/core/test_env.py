"""Unit tests for the centralised REPRO_* kill-switch parsing."""

import re
from pathlib import Path

import pytest

from repro.core.env import KNOWN_FLAGS, env_flag, reset_env_flag_cache


@pytest.fixture(autouse=True)
def _clean_cache():
    reset_env_flag_cache()
    yield
    reset_env_flag_cache()


class TestEnvFlag:
    def test_unset_takes_default_true(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG", default=True) is True

    def test_unset_takes_default_false(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG", default=False) is False

    def test_zero_means_off_regardless_of_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "0")
        assert env_flag("REPRO_TEST_FLAG", default=True) is False
        reset_env_flag_cache()
        assert env_flag("REPRO_TEST_FLAG", default=False) is False

    def test_one_means_on_regardless_of_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "1")
        assert env_flag("REPRO_TEST_FLAG", default=True) is True
        reset_env_flag_cache()
        assert env_flag("REPRO_TEST_FLAG", default=False) is True

    @pytest.mark.parametrize("garbage", ["", "no", "false", "off", "00", " 0"])
    def test_garbage_values_mean_on(self, monkeypatch, garbage):
        """A kill switch only disarms on the documented spelling '0'."""
        monkeypatch.setenv("REPRO_TEST_FLAG", garbage)
        assert env_flag("REPRO_TEST_FLAG", default=True) is True
        reset_env_flag_cache()
        assert env_flag("REPRO_TEST_FLAG", default=False) is True

    def test_cache_invalidates_when_environ_changes(self, monkeypatch):
        """monkeypatch.setenv mid-process must be seen (tests rely on it)."""
        monkeypatch.setenv("REPRO_TEST_FLAG", "1")
        assert env_flag("REPRO_TEST_FLAG") is True
        monkeypatch.setenv("REPRO_TEST_FLAG", "0")
        assert env_flag("REPRO_TEST_FLAG") is False
        monkeypatch.delenv("REPRO_TEST_FLAG")
        assert env_flag("REPRO_TEST_FLAG", default=True) is True

    def test_repeated_reads_served_from_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "1")
        assert env_flag("REPRO_TEST_FLAG") is True
        # Same raw value: the cached parse is reused (same result).
        for _ in range(3):
            assert env_flag("REPRO_TEST_FLAG") is True


class TestKnownFlags:
    def test_documented_defaults(self):
        assert KNOWN_FLAGS["REPRO_FASTPATH"][0] is True
        assert KNOWN_FLAGS["REPRO_TRACE"][0] is False
        assert KNOWN_FLAGS["REPRO_DEMAND"][0] is True

    def test_module_call_sites_agree_with_documented_defaults(self, monkeypatch):
        """The one call site per flag uses the KNOWN_FLAGS default."""
        from repro.demand import demand_enabled
        from repro.governors.base import idle_fastpath_enabled
        from repro.obs.session import trace_enabled

        for name in KNOWN_FLAGS:
            monkeypatch.delenv(name, raising=False)
        reset_env_flag_cache()
        assert idle_fastpath_enabled() is KNOWN_FLAGS["REPRO_FASTPATH"][0]
        assert trace_enabled() is KNOWN_FLAGS["REPRO_TRACE"][0]
        assert demand_enabled() is KNOWN_FLAGS["REPRO_DEMAND"][0]

    def test_kill_switches_disarm_their_modules(self, monkeypatch):
        from repro.demand import demand_enabled
        from repro.governors.base import idle_fastpath_enabled
        from repro.obs.session import trace_enabled

        monkeypatch.setenv("REPRO_FASTPATH", "0")
        monkeypatch.setenv("REPRO_DEMAND", "0")
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert idle_fastpath_enabled() is False
        assert demand_enabled() is False
        assert trace_enabled() is True

    def test_readme_table_lists_exactly_the_known_flags(self):
        """README's environment-variable table documents every flag in
        KNOWN_FLAGS, no other, with the same defaults."""
        readme = Path(__file__).resolve().parents[2] / "README.md"
        rows = re.findall(
            r"^\| `(REPRO_\w+)` \| (on|off) \|",
            readme.read_text(encoding="utf-8"),
            flags=re.MULTILINE,
        )
        documented = {name: default == "on" for name, default in rows}
        assert len(rows) == len(documented), rows
        assert documented == {
            name: default for name, (default, _meaning) in KNOWN_FLAGS.items()
        }
