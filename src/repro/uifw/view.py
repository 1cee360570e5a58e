"""Views and the window manager.

The window manager is the glue between the device and the apps: it decodes
input events into gestures, dispatches them to the foreground app (or the
navigation bar), composes the foreground view plus status bar into the
framebuffer on vsync, and keeps the ground-truth journal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.engine import Engine
from repro.core.errors import SimulationError
from repro.core.geometry import Point, Rect
from repro.core.simtime import MICROS_PER_MINUTE
from repro.metrics.hci import CATEGORY_SIMPLE
from repro.uifw.drawing import Canvas
from repro.uifw.gestures import Gesture, GestureDecoder, Swipe, Tap
from repro.uifw.journal import GroundTruthJournal
from repro.uifw.widgets import StatusBar, Widget

if TYPE_CHECKING:
    from repro.device.device import Device
    from repro.uifw.app import App

NAV_BAR_HEIGHT = 10
ANIMATION_TICK_US = 100_000

# Deferred work an interaction leaves behind once the UI is responsive
# again (caching, thumbnailing, analytics).  Runs at background priority,
# so it never extends a lag — it is the post-lag load the paper's first
# ondemand inefficiency is about.
AFTERMATH_CYCLES = {
    "typing": 150e6,
    "simple_frequent": 500e6,
    "common": 900e6,
    "complex": 1_400e6,
}


class View:
    """A screen of widgets; the last widget in the list draws on top."""

    def __init__(self, name: str, background: int = 0) -> None:
        self.name = name
        self.background = background
        self.widgets: list[Widget] = []
        self.on_swipe: Callable[[Swipe], bool] | None = None

    def add(self, widget: Widget) -> Widget:
        self.widgets.append(widget)
        return widget

    def draw(self, canvas: Canvas, now: int) -> None:
        for widget in self.widgets:
            widget.draw(canvas, now)

    def dispatch_tap(self, tap: Tap) -> bool:
        """Deliver a tap to the topmost widget that claims it."""
        for widget in reversed(self.widgets):
            if widget.hit_test(tap.point) and widget.on_tap is not None:
                widget.on_tap(tap.point)
                return True
        return False

    def dispatch_swipe(self, swipe: Swipe) -> bool:
        if self.on_swipe is not None:
            return self.on_swipe(swipe)
        return False


class WindowManager:
    """Owns the foreground app, composition and gesture routing."""

    def __init__(self, device: "Device") -> None:
        self.device = device
        self.engine: Engine = device.engine
        self.journal = GroundTruthJournal()
        self.status_bar = StatusBar(device.display.width)
        self.nav_bar_rect = Rect(
            0,
            device.display.height - NAV_BAR_HEIGHT,
            device.display.width,
            NAV_BAR_HEIGHT,
        )
        self._apps: dict[str, "App"] = {}
        self._foreground: "App | None" = None
        self._home_app: "App | None" = None
        self._decoder = GestureDecoder(self._on_gesture)
        device.touchscreen.node.add_observer(self._decoder.on_event)
        device.display.set_composer(self._compose)
        self.journal.mask_provider = self._dynamic_regions
        self.journal.completion_listener = self._on_interaction_complete
        self._animation_holds = 0
        self._animation_scheduled = False
        self._schedule_minute_tick()

    # --- app lifecycle ----------------------------------------------------------

    @property
    def foreground(self) -> "App | None":
        return self._foreground

    def install(self, app: "App", home: bool = False) -> None:
        from repro.uifw.app import AppContext

        if app.name in self._apps:
            raise SimulationError(f"app {app.name!r} already installed")
        self._apps[app.name] = app
        app.attach(AppContext(self, app))
        if home:
            self._home_app = app
            self._foreground = app
            self.invalidate()

    def app(self, name: str) -> "App":
        try:
            return self._apps[name]
        except KeyError:
            raise SimulationError(f"no app named {name!r}") from None

    def apps(self) -> list["App"]:
        return list(self._apps.values())

    def switch_to(self, app: "App") -> None:
        """Bring an app to the foreground (used by launcher and nav)."""
        if app.name not in self._apps:
            raise SimulationError(f"app {app.name!r} not installed")
        self._foreground = app
        self.invalidate()

    # --- composition ---------------------------------------------------------------

    def invalidate(self) -> None:
        self.device.display.invalidate()

    def _compose(self, framebuffer) -> None:
        canvas = Canvas(framebuffer)
        now = self.engine.now
        app = self._foreground
        canvas.fill(app.view.background if app is not None else 0)
        if app is not None:
            app.view.draw(canvas, now)
        self.status_bar.draw(canvas, now)
        self._draw_nav_bar(canvas)

    def _draw_nav_bar(self, canvas: Canvas) -> None:
        canvas.fill_rect(self.nav_bar_rect, 20)
        back, home = self._nav_targets()
        canvas.fill_rect(Rect(back.x - 2, back.y - 2, 5, 5), 160)
        canvas.frame_rect(Rect(home.x - 3, home.y - 2, 7, 5), 160)

    def _nav_targets(self) -> tuple[Point, Point]:
        """Screen points of the back and home buttons."""
        y = self.nav_bar_rect.y + self.nav_bar_rect.h // 2
        return (
            Point(self.device.display.width // 4, y),
            Point(self.device.display.width // 2, y),
        )

    def _on_interaction_complete(self, record) -> None:
        from repro.kernel.workchains import submit_chunked

        cycles = AFTERMATH_CYCLES.get(record.category)
        if cycles:
            submit_chunked(
                self.engine,
                self.device.scheduler,
                f"aftermath:{record.label}",
                cycles,
            )

    def _dynamic_regions(self) -> list[Rect]:
        """Regions that vary between runs: clock + app dynamics."""
        regions = [self.status_bar.clock_rect]
        if self._foreground is not None:
            regions.extend(self._foreground.dynamic_regions())
        return regions

    def home_button_point(self) -> Point:
        return self._nav_targets()[1]

    def back_button_point(self) -> Point:
        return self._nav_targets()[0]

    # --- animation support ------------------------------------------------------------

    def hold_animation(self) -> None:
        """Keep composing frames periodically (spinners, cursors)."""
        self._animation_holds += 1
        self._ensure_animation_tick()

    def release_animation(self) -> None:
        if self._animation_holds <= 0:
            raise SimulationError("release_animation without matching hold")
        self._animation_holds -= 1

    def _ensure_animation_tick(self) -> None:
        if self._animation_scheduled or self._animation_holds == 0:
            return
        self._animation_scheduled = True
        self.engine.schedule_after(ANIMATION_TICK_US, self._animation_tick)

    def _animation_tick(self) -> None:
        self._animation_scheduled = False
        if self._animation_holds > 0:
            self.invalidate()
            self._ensure_animation_tick()

    def _schedule_minute_tick(self) -> None:
        now = self.engine.now
        next_minute = (now // MICROS_PER_MINUTE + 1) * MICROS_PER_MINUTE
        self.engine.schedule_at(next_minute, self._minute_tick)

    def _minute_tick(self) -> None:
        self.invalidate()  # the status-bar clock changed
        self._schedule_minute_tick()

    # --- gesture routing -----------------------------------------------------------------

    def _on_gesture(self, gesture: Gesture) -> None:
        kind = "tap" if isinstance(gesture, Tap) else "swipe"
        self.journal.note_gesture(kind, gesture.down_time)
        consumed = self._dispatch(gesture)
        self.journal.gesture_dispatched(consumed)

    def _dispatch(self, gesture: Gesture) -> bool:
        if isinstance(gesture, Tap) and self.nav_bar_rect.contains(gesture.point):
            return self._dispatch_nav(gesture)
        app = self._foreground
        if app is None:
            return False
        return app.handle_gesture(gesture)

    def _dispatch_nav(self, tap: Tap) -> bool:
        back, home = self._nav_targets()
        app = self._foreground
        if tap.point.distance_to(home) <= 4:
            if app is not None and app is not self._home_app:
                token = self.journal.open_interaction(
                    "nav:home", CATEGORY_SIMPLE, tap.down_time
                )
                app_home = self._home_app
                assert app_home is not None
                # The switch happens when the render completes, inside
                # service_navigation, so the lag ends on a visual change.
                app_home.service_navigation(token)
            return True
        if tap.point.distance_to(back) <= 4:
            if app is not None and app is not self._home_app:
                token = self.journal.open_interaction(
                    "nav:back", CATEGORY_SIMPLE, tap.down_time
                )
                if not app.on_back(token):
                    app_home = self._home_app
                    assert app_home is not None
                    app_home.service_navigation(token)
            return True
        return False
