"""The userspace governor: a fixed, externally chosen frequency.

The paper replays every workload at each of the 14 operating points with
the frequency "fixed for the whole runtime"; this governor is how those
fixed-frequency configurations are realised.  It is registered as
``fixed``, and ``fixed:<khz>`` is the only config string that pins a
frequency.
"""

from __future__ import annotations

from repro.core.errors import GovernorError
from repro.device.cpufreq import RELATION_HIGH
from repro.governors.base import Governor, GovernorContext, register_governor


class UserspaceGovernor(Governor):
    """Hold one fixed frequency for the whole run."""

    name = "userspace"

    config_params = {"khz": "fixed_khz"}
    freq_params = ("khz",)

    def __init__(self, context: GovernorContext, fixed_khz: int) -> None:
        super().__init__(context)
        if not context.policy.core.table.contains(fixed_khz):
            raise GovernorError(f"{fixed_khz} kHz is not an operating point")
        self.fixed_khz = fixed_khz

    def _on_start(self) -> None:
        self.policy.set_target(self.fixed_khz, RELATION_HIGH)


register_governor("fixed", UserspaceGovernor)
