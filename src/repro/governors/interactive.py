"""The interactive governor (Android's default at the time of the paper).

Semantics of ``cpufreq_interactive.c``: a fast 20 ms sampling timer; when
the load exceeds ``go_hispeed_load`` the frequency jumps to
``hispeed_freq``; going *above* hispeed requires the load to persist for
``above_hispeed_delay``; once raised, the speed is held for at least
``min_sample_time`` before it may fall.  The distinguishing feature the
paper calls out — "reacts directly to incoming user input events and
immediately ramps up the frequency while ignoring the load" — is the input
notifier: any touch event boosts the core to hispeed immediately.
"""

from __future__ import annotations

from repro.core.events import InputEvent
from repro.device.cpufreq import RELATION_HIGH, RELATION_LOW
from repro.governors.base import (
    Governor,
    GovernorContext,
    TickElisionMixin,
    idle_fastpath_enabled,
    register_governor,
)
from repro.kernel.timers import PeriodicTimer

DEFAULT_TIMER_RATE_US = 20_000
DEFAULT_GO_HISPEED_LOAD = 99
DEFAULT_TARGET_LOAD = 85
DEFAULT_ABOVE_HISPEED_DELAY_US = 20_000
DEFAULT_MIN_SAMPLE_TIME_US = 80_000


class InteractiveGovernor(TickElisionMixin, Governor):
    """Android's input-boosting governor."""

    name = "interactive"

    config_params = {
        "hispeed": "hispeed_freq_khz",
        "timer": "timer_rate_us",
        "go_hispeed": "go_hispeed_load",
        "target": "target_load",
        "above_delay": "above_hispeed_delay_us",
        "min_sample": "min_sample_time_us",
    }
    freq_params = ("hispeed",)

    def __init__(
        self,
        context: GovernorContext,
        timer_rate_us: int = DEFAULT_TIMER_RATE_US,
        go_hispeed_load: int = DEFAULT_GO_HISPEED_LOAD,
        target_load: int = DEFAULT_TARGET_LOAD,
        above_hispeed_delay_us: int = DEFAULT_ABOVE_HISPEED_DELAY_US,
        min_sample_time_us: int = DEFAULT_MIN_SAMPLE_TIME_US,
        hispeed_freq_khz: int | None = None,
        input_boost: bool = True,
    ) -> None:
        super().__init__(context)
        if not 1 <= go_hispeed_load <= 100:
            raise ValueError("go_hispeed_load must be in 1..100")
        if not 1 <= target_load <= 100:
            raise ValueError("target_load must be in 1..100")
        self.timer_rate_us = timer_rate_us
        self.go_hispeed_load = go_hispeed_load
        self.target_load = target_load
        self.above_hispeed_delay_us = above_hispeed_delay_us
        self.min_sample_time_us = min_sample_time_us
        if hispeed_freq_khz is None:
            # cpufreq_interactive's stock default: hispeed is the policy
            # maximum (vendors often retune it to a mid OPP).
            hispeed_freq_khz = context.policy.max_khz
        self.hispeed_freq_khz = hispeed_freq_khz
        self.input_boost = input_boost
        self._timer = PeriodicTimer(context.engine, timer_rate_us, self._sample)
        self._hispeed_validate_since: int | None = None
        self._floor_freq = context.policy.min_khz
        self._floor_set_at = 0
        self.samples_taken = 0
        self.input_boosts = 0
        # Hot-path bindings and the idle fast path (tick elision while the
        # core sits idle at the policy minimum; see Governor base docs).
        self._policy = context.policy
        self._load_tracker = context.load_tracker
        self._core = context.policy.core
        self._fastpath = idle_fastpath_enabled()
        self._elision_init()

    def _on_start(self) -> None:
        self.context.load_tracker.sample()
        self._floor_freq = self.policy.current_khz
        self._floor_set_at = self.context.engine.now
        self._timer.start()
        self._elision_attach()
        if self.input_boost and self.context.input_subsystem is not None:
            for node in self.context.input_subsystem.nodes():
                node.add_observer(self._on_input_event)

    # --- input notifier ---------------------------------------------------------

    def _on_input_event(self, event: InputEvent) -> None:
        """Boost to hispeed on any user input, ignoring the load."""
        if self._park_mode is not None:
            self._wake()
        policy = self._policy
        if policy.current_khz < self.hispeed_freq_khz:
            self.input_boosts += 1
            obs = self._obs
            if obs is not None:
                obs.input_boost(
                    self.context.engine.clock._now,
                    self.name,
                    self.hispeed_freq_khz,
                )
            policy.set_target(self.hispeed_freq_khz, RELATION_HIGH)
            self._raise_floor(self.hispeed_freq_khz)

    # --- sampling loop -----------------------------------------------------------

    def _sample(self) -> None:
        load = self._load_tracker.sample()
        self.samples_taken += 1
        policy = self._policy
        now = self.context.engine.clock._now
        current = policy.current_khz
        obs = self._obs
        if obs is not None:
            obs.governor_load(now, load)

        if load >= self.go_hispeed_load:
            if current < self.hispeed_freq_khz:
                new_freq = self.hispeed_freq_khz
            else:
                new_freq = self._choose_freq(load, current)
        else:
            new_freq = self._choose_freq(load, current)

        # Going above hispeed requires sustained high load.
        if (
            new_freq > self.hispeed_freq_khz
            and current <= self.hispeed_freq_khz
        ):
            if self._hispeed_validate_since is None:
                self._hispeed_validate_since = now
            if now - self._hispeed_validate_since < self.above_hispeed_delay_us:
                new_freq = self.hispeed_freq_khz
            else:
                self._hispeed_validate_since = None
        else:
            self._hispeed_validate_since = None

        if new_freq > current:
            policy.set_target(new_freq, RELATION_HIGH)
            self._raise_floor(policy.current_khz)
            if obs is not None and policy.current_khz != current:
                obs.governor_decision(
                    now, self.name, "ramp_up", policy.current_khz
                )
        elif new_freq < current:
            # Hold the floor for min_sample_time before ramping down.
            held = now - self._floor_set_at
            if held >= self.min_sample_time_us:
                policy.set_target(new_freq, RELATION_LOW)
                self._raise_floor(policy.current_khz)
                if obs is not None and policy.current_khz != current:
                    obs.governor_decision(
                        now, self.name, "ramp_down", policy.current_khz,
                        waited_us=held,
                    )

        # Tick-elision fast path, only while the core idles (every elided
        # window then reads load 0; a busy edge or an input un-parks):
        #  * idle at the policy minimum: every sample chooses the minimum
        #    and changes nothing;
        #  * idle above the minimum: ramp-down is blocked by the floor
        #    hold, so every tick strictly inside the hold window does
        #    nothing.  Park through the hold with a scheduled wake at the
        #    first tick that may ramp down.
        if (
            self._fastpath
            and self._hispeed_validate_since is None
            and not self._core.busy
        ):
            if policy.current_khz == policy.min_khz:
                self._park("idle")
            else:
                period = self._timer.period_us
                wait = self._floor_set_at + self.min_sample_time_us - now
                if wait > 0:
                    steps = -(-wait // period)
                    if steps >= 3:  # machinery pays for >= 2 elisions
                        self._park("hold", now + steps * period)

    def _choose_freq(self, load: int, current_khz: int) -> int:
        """Lowest frequency keeping the load at or under ``target_load``."""
        policy = self._policy
        if load <= 0:
            return policy.min_khz
        target = load * current_khz // self.target_load
        return policy.clamp(policy.core.table.ceil(target))

    def _raise_floor(self, freq_khz: int) -> None:
        self._floor_freq = freq_khz
        self._floor_set_at = self.context.engine.now


register_governor("interactive", InteractiveGovernor)
