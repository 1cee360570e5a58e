"""Inside the markup pipeline: suggester, masks and occurrence matching.

Walks through the three analysis mechanisms the paper's §II describes:

1. the Fig. 7 scenario — the Gallery launch at the lowest frequency and
   the 0/1 change string the suggester builds from it;
2. mask handling (Fig. 8) — the status-bar clock changes between runs and
   must be masked out of every annotation;
3. the second-occurrence case — Pulse's pull-to-refresh ends on a screen
   identical to the one the input arrived on, so the matcher must skip
   the first match.

Run:  python examples/suggester_walkthrough.py
"""

from repro.analysis import AutoAnnotator, OnlineMatcher
from repro.apps import install_standard_apps
from repro.capture import CaptureCard, Video
from repro.core.simtime import seconds
from repro.device.device import Device
from repro.harness.figures import collapse_change_string, fig7_suggester_demo
from repro.replay import GeteventRecorder, ReplayAgent
from repro.uifw.view import WindowManager


def suggester_demo() -> None:
    print("== Fig. 7: the suggester on a Gallery launch at 0.30 GHz ==")
    demo = fig7_suggester_demo()
    print(f"  input at frame {demo.input_frame}")
    print(f"  change string: {collapse_change_string(demo.change_string)}")
    print(f"  {len(demo.suggested_frames)} suggested endings: "
          f"{demo.suggested_frames}")
    print(f"  ground truth ending: frame {demo.ground_truth_end_frame}")
    print(f"  reduction factor: {demo.reduction_factor:.1f}x "
          "(the paper reports ~20x)\n")


def occurrence_demo() -> None:
    print("== Fig. 8 + second occurrence: Pulse pull-to-refresh ==")
    device = Device()
    wm = WindowManager(device)
    install_standard_apps(wm)
    device.set_governor("fixed:300000")
    recorder = GeteventRecorder(device.input_subsystem)
    recorder.start()
    card = CaptureCard(device.display)
    video = Video(device.display.width, device.display.height)
    card.add_tap(video)
    card.start(device.engine.now)

    launcher = wm.app("launcher")
    pulse = wm.app("pulse")
    device.touchscreen.schedule_tap(seconds(1), launcher.tap_target("icon:pulse"))

    def refresh() -> None:
        start, end, duration = pulse.swipe_target("pull-refresh")
        device.touchscreen.schedule_swipe(device.engine.now, start, end, duration)

    device.engine.schedule_at(seconds(10), refresh)
    device.run_for(seconds(18))
    trace = recorder.stop()
    card.stop(device.engine.now)

    database = AutoAnnotator("occurrence-demo").annotate(video, wm.journal)
    refresh_annotation = database.annotations[-1]
    print(f"  lag: {refresh_annotation.label}")
    print(f"  annotation mask rects: {refresh_annotation.mask_rects}")
    print(f"  stored occurrence: {refresh_annotation.occurrence} "
          "(the ending equals the beginning, so the matcher takes the 2nd)")

    # Replay at a different frequency: the matcher still finds every lag
    # despite the clock and the refresh ending that mimics its beginning.
    replay_device = Device()
    wm2 = WindowManager(replay_device)
    install_standard_apps(wm2)
    replay_device.set_governor("fixed:1497600")
    agent = ReplayAgent(replay_device.engine, replay_device.input_subsystem)
    agent.schedule(trace)
    card2 = CaptureCard(replay_device.display)
    matcher = OnlineMatcher(database)
    card2.add_tap(matcher)
    card2.start(replay_device.engine.now)
    replay_device.run_for(seconds(18))
    card2.stop(replay_device.engine.now)
    profile = matcher.profile()
    for lag in profile.lags:
        print(f"  measured at 1.50 GHz: {lag.label}: {lag.duration_ms:.0f} ms")


if __name__ == "__main__":
    suggester_demo()
    occurrence_demo()
