"""QoE-aware governor — the paper's future-work direction, implemented.

The paper's §VI proposes integrating the user-irritation metric into the
display stack "in order to make energy efficient frequency governor
decisions at runtime".  The oracle (Fig. 3, bold line) raises the frequency
immediately after an input and holds it just long enough for the
interaction to complete, then returns to the most energy-efficient
frequency.

This governor approximates that behaviour online, without the oracle's
post-hoc knowledge: on any input event it boosts to a configurable service
frequency; it holds that frequency while the run queue has work (the
interaction is still being serviced); once the system has been idle for a
settle period it drops to the most energy-efficient operating point rather
than to the minimum — exploiting race-to-idle exactly as the oracle does
for non-lag intervals.
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
DEFAULT_SETTLE_TIME_US = 60_000


class QoeAwareGovernor(TickElisionMixin, Governor):
    """Boost on input, hold while servicing, settle at the efficient OPP."""

    name = "qoe_aware"

    config_params = {
        "boost": "boost_freq_khz",
        "timer": "timer_rate_us",
        "settle": "settle_time_us",
    }
    freq_params = ("boost",)

    def __init__(
        self,
        context: GovernorContext,
        boost_freq_khz: int | None = None,
        timer_rate_us: int = DEFAULT_TIMER_RATE_US,
        settle_time_us: int = DEFAULT_SETTLE_TIME_US,
    ) -> None:
        super().__init__(context)
        table = context.policy.core.table
        model = context.policy.core.power_model
        self.efficient_khz = model.most_efficient_frequency(table)
        if boost_freq_khz is None:
            # Default boost: two OPPs above the efficient point — enough to
            # service common interactions within their HCI deadline without
            # paying the full high-voltage premium.
            boost_freq_khz = table.step_up(self.efficient_khz, 2)
        self.boost_freq_khz = boost_freq_khz
        self.settle_time_us = settle_time_us
        self._timer = PeriodicTimer(context.engine, timer_rate_us, self._sample)
        self._idle_since: int | None = None
        self.input_boosts = 0
        self._policy = context.policy
        self._core = context.policy.core
        self._fastpath = idle_fastpath_enabled()
        self._elision_init()

    def _on_start(self) -> None:
        self.policy.set_target(self.efficient_khz, RELATION_HIGH)
        self._idle_since = self.context.engine.now
        self._timer.start()
        self._elision_attach()
        if self.context.input_subsystem is not None:
            for node in self.context.input_subsystem.nodes():
                node.add_observer(self._on_input_event)

    def _account_elided(self, elided: int, last_tick: int) -> None:
        """No per-tick counters or load tracker: waking is just re-arming."""

    def _on_input_event(self, event: InputEvent) -> None:
        if self._park_mode is not None:
            self._wake()
        self.input_boosts += 1
        self._idle_since = None
        if self.policy.current_khz < self.boost_freq_khz:
            obs = self._obs
            if obs is not None:
                obs.input_boost(
                    self.context.engine.clock._now,
                    self.name,
                    self.boost_freq_khz,
                )
            self.policy.set_target(self.boost_freq_khz, RELATION_HIGH)

    def _sample(self) -> None:
        scheduler = self.context.scheduler
        now = self.context.engine.clock._now
        busy = bool(getattr(scheduler, "queued_tasks", 0)) or (
            getattr(scheduler, "current_task", None) is not None
        )
        if busy:
            self._idle_since = None
            return
        if self._idle_since is None:
            self._idle_since = now
            self._park_through_settle(now)
            return
        if now - self._idle_since >= self.settle_time_us:
            policy = self._policy
            if policy.current_khz != self.efficient_khz:
                idle_us = now - self._idle_since
                policy.set_target(self.efficient_khz, RELATION_LOW)
                obs = self._obs
                if obs is not None:
                    obs.governor_decision(
                        now, self.name, "settle_drop", policy.current_khz,
                        waited_us=idle_us,
                    )
            # Idle fast path: settled at the efficient OPP with nothing
            # queued — every further sample is a no-op until new work is
            # dispatched or an input boost arrives; both un-park.
            if self._fastpath and policy.current_khz == self.efficient_khz:
                self._park("idle")
        else:
            self._park_through_settle(now)

    def _park_through_settle(self, now: int) -> None:
        """Elide the wait-for-settle ticks (idle, settle not yet reached)."""
        if not self._fastpath:
            return
        period = self._timer.period_us
        wait = self._idle_since + self.settle_time_us - now
        if wait > 0:
            steps = -(-wait // period)
            if steps >= 3:  # machinery pays for >= 2 elisions
                self._park("hold", now + steps * period)


register_governor("qoe_aware", QoeAwareGovernor)
