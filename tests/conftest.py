"""Shared fixtures: devices, mini-sessions and recorded artifacts."""

from __future__ import annotations

import pytest

from repro.analysis import AutoAnnotator
from repro.apps import install_standard_apps
from repro.capture import CaptureCard, SegmentStreamer, Video
from repro.core.simtime import seconds
from repro.device.device import Device
from repro.harness.experiment import record_workload
from repro.replay import GeteventRecorder
from repro.uifw.view import WindowManager
from repro.workloads import dataset


@pytest.fixture
def device() -> Device:
    """A bare simulated device (no apps, no governor)."""
    return Device()


@pytest.fixture
def phone():
    """A device with the standard app set installed; returns (device, wm)."""
    dev = Device()
    wm = WindowManager(dev)
    install_standard_apps(wm)
    return dev, wm


def pending_events(engine) -> int:
    """Scheduled events still in the engine's queue, tombstones excluded."""
    return sum(1 for entry in engine._queue if not entry[3].cancelled)


def record_video(frames, end_frame, *taps, width=8, height=8) -> Video:
    """Record ``(frame_index, content)`` pairs into a :class:`Video`
    through a :class:`SegmentStreamer`, as a capture card would, and stop
    the capture at ``end_frame``.  ``taps`` see the same stream."""
    video = Video(width, height)
    streamer = SegmentStreamer(width, height)
    for tap in (video, *taps):
        streamer.add_tap(tap)
    for frame_index, content in frames:
        streamer.record_frame(frame_index, content)
    streamer.finalize(end_frame)
    return video


def run_gallery_session(governor: str):
    """A short canonical session: launch gallery, open album, open photo,
    one spurious tap.  Returns (device, wm, trace, video)."""
    dev = Device()
    wm = WindowManager(dev)
    install_standard_apps(wm)
    dev.set_governor(governor)
    recorder = GeteventRecorder(dev.input_subsystem)
    recorder.start()
    card = CaptureCard(dev.display)
    video = Video(dev.display.width, dev.display.height)
    card.add_tap(video)
    card.start(dev.engine.now)
    launcher = wm.app("launcher")
    gallery = wm.app("gallery")
    touch = dev.touchscreen
    touch.schedule_tap(seconds(1), launcher.tap_target("icon:gallery"))
    dev.engine.schedule_at(
        seconds(11),
        lambda: touch.schedule_tap(seconds(12), gallery.tap_target("album:2")),
    )
    dev.engine.schedule_at(
        seconds(17),
        lambda: touch.schedule_tap(seconds(18), gallery.tap_target("photo:1")),
    )
    dev.engine.schedule_at(
        seconds(22),
        lambda: touch.schedule_tap(seconds(23), gallery.tap_target("dead")),
    )
    dev.run_for(seconds(28))
    trace = recorder.stop()
    card.stop(dev.engine.now)
    return dev, wm, trace, video


@pytest.fixture(scope="session")
def gallery_session():
    """The canonical session recorded at the lowest fixed frequency."""
    return run_gallery_session("fixed:300000")


@pytest.fixture(scope="session")
def gallery_database(gallery_session):
    """Annotation database of the canonical session."""
    _dev, wm, _trace, video = gallery_session
    return AutoAnnotator("gallery-session").annotate(video, wm.journal)


@pytest.fixture(scope="session")
def artifacts_ds03():
    """Recorded artifacts of dataset 03 (fast to record, has messaging)."""
    return record_workload(dataset("03"))
