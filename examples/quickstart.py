"""Quickstart: the whole measurement pipeline on a hand-made session.

Builds the simulated device, records a short interactive session while
filming the screen, annotates it once (Fig. 4 part A), then replays it at
two fixed frequencies and compares the matcher's lag profiles and the
user-irritation metric (part B).

Run:  python examples/quickstart.py
"""

from repro.analysis import AutoAnnotator, OnlineMatcher
from repro.apps import install_standard_apps
from repro.capture import CaptureCard, Video
from repro.core.simtime import seconds
from repro.device.device import Device
from repro.replay import GeteventRecorder, ReplayAgent
from repro.uifw.view import WindowManager


def build_device(governor: str) -> tuple[Device, WindowManager]:
    device = Device()
    wm = WindowManager(device)
    install_standard_apps(wm)
    device.set_governor(governor)
    return device, wm


def main() -> None:
    # ---- record once, on a device pinned at the lowest frequency ----------
    device, wm = build_device("fixed:300000")
    recorder = GeteventRecorder(device.input_subsystem)
    recorder.start()
    card = CaptureCard(device.display)
    video = Video(device.display.width, device.display.height)
    card.add_tap(video)
    card.start(device.engine.now)

    launcher = wm.app("launcher")
    gallery = wm.app("gallery")
    touch = device.touchscreen
    touch.schedule_tap(seconds(1), launcher.tap_target("icon:gallery"))
    device.engine.schedule_at(
        seconds(11),
        lambda: touch.schedule_tap(seconds(12), gallery.tap_target("album:3")),
    )
    device.engine.schedule_at(
        seconds(17),
        lambda: touch.schedule_tap(seconds(18), gallery.tap_target("photo:2")),
    )
    device.run_for(seconds(24))

    trace = recorder.stop()
    card.stop(device.engine.now)
    print(f"recorded {len(trace)} input events, {video.frame_count} frames "
          f"({video.segment_count} distinct)")

    # ---- annotate once ------------------------------------------------------
    database = AutoAnnotator("quickstart").annotate(video, wm.journal)
    print(f"annotated {database.lag_count} lags "
          f"({database.spurious_count} spurious inputs)")

    # ---- replay at two fixed frequencies and compare ------------------------
    profiles = {}
    for khz in (300_000, 2_150_400):
        replay_device, _replay_wm = build_device(f"fixed:{khz}")
        agent = ReplayAgent(replay_device.engine, replay_device.input_subsystem)
        agent.schedule(trace)
        replay_card = CaptureCard(replay_device.display)
        matcher = OnlineMatcher(database)
        replay_card.add_tap(matcher)
        replay_card.start(replay_device.engine.now)
        replay_device.run_for(seconds(26))
        replay_card.stop(replay_device.engine.now)
        profiles[khz] = matcher.profile()

    print(f"\n{'lag':40s} {'0.30 GHz':>10s} {'2.15 GHz':>10s}")
    slow, fast = profiles[300_000], profiles[2_150_400]
    for lag_slow, lag_fast in zip(slow.lags, fast.lags):
        print(f"{lag_slow.label:40s} {lag_slow.duration_ms:8.0f}ms "
              f"{lag_fast.duration_ms:8.0f}ms")

    for khz, profile in profiles.items():
        result = profile.irritation()
        print(f"\nirritation at {khz / 1e6:.2f} GHz: "
              f"{result.total_seconds:.2f}s over {result.lag_count} lags "
              f"({result.irritating_lag_count} irritating)")


if __name__ == "__main__":
    main()
