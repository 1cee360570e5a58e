"""Governor framework.

A governor receives a :class:`GovernorContext` — the engine (for sampling
timers), the cpufreq policy it drives, a load tracker over the core, and
the input subsystem (the interactive governor registers an input notifier
there, as its Linux counterpart does via ``input_handler``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

from repro.core.engine import Engine
from repro.core.env import env_flag
from repro.core.errors import GovernorError
from repro.device.cpufreq import CpuFreqPolicy
from repro.device.input_device import InputSubsystem
from repro.device.loadtracker import LoadTracker
from repro.governors.config import parse_config
from repro.obs.session import active as _obs_active


@dataclass(slots=True)
class GovernorContext:
    """Everything a governor may touch.

    ``scheduler`` is optional and only used by the experimental QoE-aware
    governor, which consults run-queue idleness the way the paper's
    proposed in-display-stack governor would consult interaction state.
    """

    engine: Engine
    policy: CpuFreqPolicy
    load_tracker: LoadTracker
    input_subsystem: InputSubsystem | None = None
    scheduler: object | None = None


def idle_fastpath_enabled() -> bool:
    """Whether the simulator's fast paths are active (``REPRO_FASTPATH``).

    Two consumers read it.  The governors' tick elision parks a sampling
    timer while every sample is provably a no-op (core idle at the
    governor's resting frequency) and reconciles counters on wake-up,
    eliding the per-tick work entirely.  The scheduler's chain run-ahead
    (:meth:`~repro.kernel.scheduler.Scheduler.run_chunks_inline`) plays
    background chunks in place at a pinned frequency.  Both are
    semantics-preserving — study output (energy, irritation, frame
    digests) is bit-identical either way; ``REPRO_FASTPATH=0`` disables
    both for A/B verification and benchmarking.
    """
    return env_flag("REPRO_FASTPATH", default=True)


class TickElisionMixin:
    """Shared parking machinery for sampling governors.

    A governor that keeps a :class:`~repro.kernel.timers.PeriodicTimer`
    in ``self._timer``, its core in ``self._core``, the fast-path flag in
    ``self._fastpath`` and (optionally) a load tracker in
    ``self._load_tracker`` gets the full tick-elision lifecycle from this
    mixin: park bookkeeping (``self._park_mode``), the core-busy wake
    listener, and exact reconciliation of ``samples_taken`` and the
    load-tracking window for the elided ticks.

    A timer parks only while the core idles, so every elided window
    reads load 0.  Park modes: ``"idle"`` (idle at the resting
    frequency) and ``"hold"`` (a bounded no-op wait with a
    :meth:`PeriodicTimer.park_until` deadline).  Both wake when the core
    turns busy; input notifiers additionally call :meth:`_wake` directly.
    """

    _park_mode: str | None

    def _elision_init(self) -> None:
        """Call at construction, after ``self._timer`` exists."""
        self._park_mode = None
        self._park_started_at = 0
        self._timer.on_elided = self._credit_elided

    def _elision_attach(self) -> None:
        """Call from ``_on_start``: register the wake listener."""
        if self._fastpath:
            self._core.add_busy_listener(self._on_core_busy)

    def _park(self, mode: str, wake_time: int | None = None) -> None:
        self._park_mode = mode
        if wake_time is None:
            self._timer.park()
        else:
            self._timer.park_until(wake_time)
        obs = self._obs
        if obs is not None:
            self._park_started_at = self.context.engine.clock._now
            obs.timer_parked(self._park_started_at, self.name, mode)

    def _on_core_busy(self) -> None:
        if self._park_mode is not None:
            self._wake()

    def _credit_elided(self, elided: int, last_tick: int) -> None:
        """A park_until deadline fired: account the elided idle ticks."""
        mode = self._park_mode
        self._park_mode = None
        obs = self._obs
        if obs is not None:
            obs.timer_unparked(
                self.context.engine.clock._now,
                self.name,
                mode,
                self._park_started_at,
                elided,
            )
        self._account_elided(elided, last_tick)

    def _wake(self) -> None:
        """Resume sampling after tick elision, reconciling the counters."""
        mode = self._park_mode
        self._park_mode = None
        elided, last_tick = self._timer.unpark()
        obs = self._obs
        if obs is not None:
            obs.timer_unparked(
                self.context.engine.clock._now,
                self.name,
                mode,
                self._park_started_at,
                elided,
            )
        if elided:
            self._account_elided(elided, last_tick)

    def _account_elided(self, elided: int, last_tick: int) -> None:
        """Default reconciliation: sample counter + load window.

        Governors without per-tick counters (qoe_aware) override this
        with a no-op.
        """
        self.samples_taken += elided
        self._load_tracker.fast_forward(last_tick)


class Governor(ABC):
    """Base class for all DVFS governors."""

    #: sysfs-style governor name, set by subclasses.
    name: str = "abstract"

    #: Config-string parameter aliases: short key -> constructor kwarg.
    #: Subclasses with tunables override this; it is what makes a governor
    #: addressable as ``name:key=value,...`` and enumerable by the
    #: design-space explorer (:mod:`repro.explore.space`).
    config_params: dict[str, str] = {}

    #: The subset of :attr:`config_params` keys whose values are OPP
    #: frequencies in kHz.  Off-table values would silently clamp at
    #: runtime, so pre-flight validation checks these against the table.
    freq_params: tuple[str, ...] = ()

    def __init__(self, context: GovernorContext) -> None:
        self.context = context
        self._active = False
        # One attribute load + None test per instrumentation site: the
        # whole observability cost when no session is installed.
        self._obs = _obs_active()

    @classmethod
    def from_params(
        cls, context: GovernorContext, params: dict[str, int]
    ) -> "Governor":
        """Construct from parsed config-string parameters.

        ``params`` uses the short keys of :attr:`config_params`; the
        config string is the only way a configuration names its
        parameters, so one spelling means one replay.  Constructor
        validation failures surface as one-line
        :class:`GovernorError`\\ s so a bad ``--config`` dies cleanly.
        """
        check_config_params(cls.name, cls, params)
        kwargs: dict[str, object] = {
            cls.config_params[key]: value for key, value in params.items()
        }
        try:
            return cls(context, **kwargs)
        except (TypeError, ValueError) as exc:
            raise GovernorError(f"governor {cls.name!r}: {exc}") from exc

    @property
    def policy(self) -> CpuFreqPolicy:
        return self.context.policy

    def start(self) -> None:
        """Activate the governor (cpufreq ``GOV_START``).

        A governor runs from here until its device's simulation ends:
        there is no ``GOV_STOP``, since a device takes one governor for
        its lifetime.
        """
        if self._active:
            raise GovernorError(f"governor {self.name} already started")
        self._active = True
        obs = self._obs
        if obs is not None:
            obs.governor_started(self.context.engine.clock._now, self.name)
        self._on_start()

    @abstractmethod
    def _on_start(self) -> None:
        """Subclass hook: arm timers, set the initial frequency."""


def check_config_params(
    name: str, factory: type[Governor], params: Iterable[str]
) -> None:
    """Reject parameter keys a governor does not declare in config_params.

    ``params`` is any iterable of short keys (a parsed parameter dict
    works).  The single validator behind ``from_params``,
    ``parse_sweep_configs`` and ``GovernorSpace`` — one place to keep the
    error message and the alias contract consistent.
    """
    declared = factory.config_params
    for key in params:
        if key not in declared:
            known = ", ".join(sorted(declared)) or "none"
            raise GovernorError(
                f"governor {name!r} has no tunable {key!r} (known: {known})"
            )


_REGISTRY: dict[str, type[Governor]] = {}


def register_governor(name: str, factory: type[Governor]) -> None:
    """Register a governor class under its sysfs-style name."""
    if name in _REGISTRY:
        raise GovernorError(f"governor {name!r} already registered")
    _REGISTRY[name] = factory


def registered_governors() -> list[str]:
    return sorted(_REGISTRY)


def governor_factory(name: str) -> type[Governor]:
    """The registered class for ``name``, or a one-line GovernorError."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(
            "fixed:<khz>" if other == "fixed" else other
            for other in registered_governors()
        )
        raise GovernorError(
            f"unknown governor {name!r} (known: {known})"
        ) from None


def create_governor(name: str, context: GovernorContext) -> Governor:
    """Instantiate a governor from its config string.

    ``name`` is any config string :func:`repro.governors.config.parse_config`
    accepts: a bare governor name, ``fixed:<khz>`` (the userspace governor
    pinned at a frequency, and the only spelling of a pinned frequency),
    or a parameterized form such as
    ``qoe_aware:boost=1_036_800,settle=40000``.  Parameters are routed
    through the governor's :meth:`Governor.from_params` hook.  The
    governor is not started: a device installs and starts one governor
    for its lifetime.  Code that needs other constructor arguments builds
    the governor class directly.
    """
    base, params = parse_config(name)
    return governor_factory(base).from_params(context, params)
