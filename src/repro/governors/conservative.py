"""The conservative governor.

``cpufreq_conservative.c`` semantics: instead of jumping to the maximum,
step the frequency up by ``freq_step`` percent of the policy maximum when
the load exceeds ``up_threshold``, and step down when it falls below
``down_threshold``.  The gradual ramp is what makes it "change the load
more smoothly … and stay longer in intermediate steps" (paper §III-B) —
and also what makes it by far the most irritating governor in the study.
"""

from __future__ import annotations

from repro.device.cpufreq import RELATION_HIGH, RELATION_LOW
from repro.governors.base import (
    Governor,
    GovernorContext,
    TickElisionMixin,
    idle_fastpath_enabled,
    register_governor,
)
from repro.kernel.timers import PeriodicTimer

# Conservative samples at twice ondemand's period on the study's kernel
# and steps 5% of fmax per sample — the source of its slow ramp.
DEFAULT_SAMPLING_RATE_US = 200_000
DEFAULT_UP_THRESHOLD = 80
DEFAULT_DOWN_THRESHOLD = 20
DEFAULT_FREQ_STEP_PERCENT = 5


class ConservativeGovernor(TickElisionMixin, Governor):
    """Gradual stepping load-threshold governor."""

    name = "conservative"

    config_params = {
        "up_threshold": "up_threshold",
        "down_threshold": "down_threshold",
        "step": "freq_step_percent",
        "sampling": "sampling_rate_us",
    }

    def __init__(
        self,
        context: GovernorContext,
        sampling_rate_us: int = DEFAULT_SAMPLING_RATE_US,
        up_threshold: int = DEFAULT_UP_THRESHOLD,
        down_threshold: int = DEFAULT_DOWN_THRESHOLD,
        freq_step_percent: int = DEFAULT_FREQ_STEP_PERCENT,
    ) -> None:
        super().__init__(context)
        if not 0 < down_threshold < up_threshold <= 100:
            raise ValueError("need 0 < down_threshold < up_threshold <= 100")
        if not 1 <= freq_step_percent <= 100:
            raise ValueError("freq_step_percent must be in 1..100")
        self.sampling_rate_us = sampling_rate_us
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.freq_step_percent = freq_step_percent
        self._timer = PeriodicTimer(context.engine, sampling_rate_us, self._sample)
        self.samples_taken = 0
        self._policy = context.policy
        self._load_tracker = context.load_tracker
        self._core = context.policy.core
        self._fastpath = idle_fastpath_enabled()
        self._elision_init()

    @property
    def freq_step_khz(self) -> int:
        step = self.policy.max_khz * self.freq_step_percent // 100
        return max(step, 1)

    def _on_start(self) -> None:
        self.context.load_tracker.sample()
        self._timer.start()
        self._elision_attach()

    def _sample(self) -> None:
        load = self._load_tracker.sample()
        self.samples_taken += 1
        policy = self._policy
        current = policy.current_khz
        obs = self._obs
        if obs is not None:
            obs.governor_load(self.context.engine.clock._now, load)
        if load > self.up_threshold:
            if current < policy.max_khz:
                policy.set_target(current + self.freq_step_khz, RELATION_HIGH)
                if obs is not None and policy.current_khz != current:
                    obs.governor_decision(
                        self.context.engine.clock._now, self.name, "step_up",
                        policy.current_khz,
                    )
        elif load < self.down_threshold:
            if current > policy.min_khz:
                policy.set_target(
                    max(current - self.freq_step_khz, policy.min_khz),
                    RELATION_LOW,
                )
                if obs is not None and policy.current_khz != current:
                    obs.governor_decision(
                        self.context.engine.clock._now, self.name, "step_down",
                        policy.current_khz,
                    )
        # Tick-elision fast path: settled at the minimum with an idle core
        # (load 0, no step down possible), every further sample is a
        # no-op until the core turns busy.
        if (
            self._fastpath
            and policy.current_khz == policy.min_khz
            and not self._core.busy
        ):
            self._park("idle")


register_governor("conservative", ConservativeGovernor)
