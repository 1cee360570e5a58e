"""The userspace governor: a fixed, externally chosen frequency.

The paper replays every workload at each of the 14 operating points with
the frequency "fixed for the whole runtime"; this governor is how those
fixed-frequency configurations are realised.
"""

from __future__ import annotations

from repro.core.errors import GovernorError
from repro.device.cpufreq import RELATION_HIGH
from repro.governors.base import Governor, GovernorContext, register_governor


class UserspaceGovernor(Governor):
    """Hold one fixed frequency until told otherwise."""

    name = "userspace"

    def __init__(self, context: GovernorContext, fixed_khz: int | None = None) -> None:
        super().__init__(context)
        self._fixed_khz = fixed_khz if fixed_khz is not None else context.policy.min_khz
        if not context.policy.core.table.contains(self._fixed_khz):
            raise GovernorError(f"{self._fixed_khz} kHz is not an operating point")

    @property
    def fixed_khz(self) -> int:
        return self._fixed_khz

    def _on_start(self) -> None:
        self.policy.set_target(self._fixed_khz, RELATION_HIGH)

    def _on_stop(self) -> None:
        pass


register_governor("userspace", UserspaceGovernor)
