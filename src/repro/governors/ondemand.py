"""The ondemand governor.

State machine of ``drivers/cpufreq/cpufreq_ondemand.c`` (kernel 3.4, the
paper's kernel): sample the load every ``sampling_rate``; if it exceeds
``up_threshold`` jump straight to the policy maximum; otherwise pick the
lowest frequency that would keep the load just under the threshold
(``load * cur / up_threshold``).  ``sampling_down_factor`` stretches the
sampling period while pinned at max.  This produces the max/min
"alternating" behaviour the paper's Fig. 3 shows.
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

# Kernel 3.4 ondemand with high-resolution timers: micro sampling and the
# micro up_threshold (cpufreq_ondemand.c MICRO_FREQUENCY_* defaults).
DEFAULT_SAMPLING_RATE_US = 20_000
DEFAULT_UP_THRESHOLD = 95
DEFAULT_SAMPLING_DOWN_FACTOR = 2


class OndemandGovernor(TickElisionMixin, Governor):
    """Linux's default load-threshold governor."""

    name = "ondemand"

    config_params = {
        "up_threshold": "up_threshold",
        "sampling": "sampling_rate_us",
        "down_factor": "sampling_down_factor",
    }

    def __init__(
        self,
        context: GovernorContext,
        sampling_rate_us: int = DEFAULT_SAMPLING_RATE_US,
        up_threshold: int = DEFAULT_UP_THRESHOLD,
        sampling_down_factor: int = DEFAULT_SAMPLING_DOWN_FACTOR,
    ) -> None:
        super().__init__(context)
        if not 1 <= up_threshold <= 100:
            raise ValueError("up_threshold must be in 1..100")
        if sampling_down_factor < 1:
            raise ValueError("sampling_down_factor must be >= 1")
        self.sampling_rate_us = sampling_rate_us
        self.up_threshold = up_threshold
        self.sampling_down_factor = sampling_down_factor
        self._timer = PeriodicTimer(context.engine, sampling_rate_us, self._sample)
        self._down_skip = 0
        self.samples_taken = 0
        self._policy = context.policy
        self._load_tracker = context.load_tracker
        self._core = context.policy.core
        self._fastpath = idle_fastpath_enabled()
        self._elision_init()

    def _on_start(self) -> None:
        # ondemand begins from wherever the previous policy left the core.
        self.context.load_tracker.sample()  # reset the window
        self._down_skip = 0
        self._timer.start()
        self._elision_attach()

    def _sample(self) -> None:
        load = self._load_tracker.sample()
        self.samples_taken += 1
        policy = self._policy
        obs = self._obs
        if obs is not None:
            obs.governor_load(self.context.engine.clock._now, load)
        if load > self.up_threshold:
            previous = policy.current_khz
            policy.set_target(policy.max_khz, RELATION_HIGH)
            if obs is not None and policy.current_khz != previous:
                obs.governor_decision(
                    self.context.engine.clock._now, self.name, "jump_max",
                    policy.current_khz,
                )
            # While pinned at max, re-evaluate down-scaling less often.
            self._down_skip = self.sampling_down_factor - 1
            return
        if self._down_skip > 0:
            self._down_skip -= 1
            return
        # Below the threshold: the lowest frequency that would have kept
        # this load under up_threshold, relative to the *current* speed.
        previous = policy.current_khz
        target = load * previous // self.up_threshold
        policy.set_target(max(target, policy.min_khz), RELATION_LOW)
        if obs is not None and policy.current_khz != previous:
            obs.governor_decision(
                self.context.engine.clock._now, self.name, "ramp_down",
                policy.current_khz,
            )
        # Idle fast path: idle at the minimum, every further sample is a
        # no-op (load 0, target min, nothing to decrement) until the core
        # turns busy again.
        if (
            self._fastpath
            and policy.current_khz == policy.min_khz
            and not self._core.busy
        ):
            self._park("idle")


register_governor("ondemand", OndemandGovernor)
