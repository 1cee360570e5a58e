"""Tests for the scripted user."""

import pytest

from repro.apps import install_standard_apps
from repro.core.errors import WorkloadError
from repro.core.simtime import seconds
from repro.device.device import Device
from repro.uifw.view import WindowManager
from repro.workloads.sessions import (
    KIND_SWIPE,
    KIND_TAP,
    PlanStep,
    ScriptedUser,
)


def make_phone():
    device = Device()
    wm = WindowManager(device)
    install_standard_apps(wm)
    device.set_governor("fixed:300000")
    return device, wm


def test_plan_step_validation():
    with pytest.raises(WorkloadError):
        PlanStep("poke", "launcher", "dead", 0)
    with pytest.raises(WorkloadError):
        PlanStep(KIND_TAP, "launcher", "dead", -1)


def test_user_waits_for_completion_before_next_step():
    device, wm = make_phone()
    plan = iter(
        [
            PlanStep(KIND_TAP, "launcher", "icon:gallery", seconds(1)),
            PlanStep(KIND_TAP, "gallery", "album:0", seconds(1)),
        ]
    )
    user = ScriptedUser(wm, plan, seconds(120))
    user.start()
    device.run_for(seconds(60))
    assert user.steps_performed == 2
    launch, album = wm.journal.interactions
    # The album tap came only after the launch visibly completed.
    assert album.begin_time >= launch.end_time
    assert album.complete


def test_user_stops_at_deadline():
    device, wm = make_phone()

    def endless():
        while True:
            yield PlanStep(KIND_TAP, "launcher", "dead", seconds(1))

    user = ScriptedUser(wm, endless(), stop_initiating_after_us=seconds(5))
    user.start(on_finished=lambda: None)
    device.run_for(seconds(30))
    assert user.finished
    # ~4 taps fit into five seconds of 1 s think + settle time.
    assert 2 <= user.steps_performed <= 5


def test_user_finishes_when_plan_exhausts():
    device, wm = make_phone()
    finished = []
    user = ScriptedUser(
        wm,
        iter([PlanStep(KIND_TAP, "launcher", "dead", seconds(1))]),
        seconds(100),
    )
    user.start(on_finished=lambda: finished.append(device.engine.now))
    device.run_for(seconds(30))
    assert user.finished and finished


def test_swipe_steps_resolve_via_swipe_target():
    device, wm = make_phone()
    plan = iter(
        [
            PlanStep(KIND_TAP, "launcher", "icon:pulse", seconds(1)),
            PlanStep(KIND_SWIPE, "pulse", "scroll-up", seconds(2)),
        ]
    )
    user = ScriptedUser(wm, plan, seconds(300))
    user.start()
    device.run_for(seconds(60))
    assert wm.journal.gestures[-1].kind == "swipe"
    assert wm.app("pulse")._feed.scroll_px > 0


def test_nav_targets_resolve():
    device, wm = make_phone()
    plan = iter(
        [
            PlanStep(KIND_TAP, "launcher", "icon:music", seconds(1)),
            PlanStep(KIND_TAP, "music", "nav:home", seconds(2)),
        ]
    )
    ScriptedUser(wm, plan, seconds(300)).start()
    device.run_for(seconds(60))
    assert wm.foreground is wm.app("launcher")


def test_open_interaction_count_tracks_incomplete_records(monkeypatch):
    """Every settle poll of a recording sees the journal's open count equal
    to the number of incomplete records it replaced a scan of."""
    from repro.harness.experiment import record_workload
    from repro.workloads import dataset

    seen = []
    settled = ScriptedUser._system_settled

    def checked(self):
        journal = self._wm.journal
        incomplete = sum(1 for r in journal.interactions if not r.complete)
        seen.append((journal.open_interactions, incomplete))
        return settled(self)

    monkeypatch.setattr(ScriptedUser, "_system_settled", checked)
    record_workload(dataset("persona=messenger,seed=2,duration=2m"))
    assert seen
    assert all(count == incomplete for count, incomplete in seen)
    assert any(count > 0 for count, _ in seen)  # polls saw open lags
