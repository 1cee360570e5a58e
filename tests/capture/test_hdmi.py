"""Tests for the capture card attached to the display."""

import weakref

import pytest

from repro.capture import CaptureCard, FrameDigestTap, Video
from repro.core.engine import Engine
from repro.core.errors import CaptureError
from repro.device.display import VSYNC_PERIOD_US, Display


@pytest.fixture
def rig():
    engine = Engine()
    display = Display(engine, 8, 8)
    card = CaptureCard(display)
    video = Video(8, 8)
    card.add_tap(video)
    return engine, display, card, video


def test_capture_seeds_initial_frame(rig):
    engine, display, card, video = rig
    display.framebuffer.fill(9)
    card.start(engine.now)
    engine.run_until(5 * VSYNC_PERIOD_US)
    assert card.stop(engine.now) is None
    assert video.frame_at(0)[0, 0] == 9
    assert video.segment_count == 1


def test_composed_frames_recorded(rig):
    engine, display, card, video = rig
    value = [0]
    display.set_composer(lambda fb: fb.fill(value[0]))
    card.start(engine.now)

    def change(to):
        value[0] = to
        display.invalidate()

    engine.schedule_at(2 * VSYNC_PERIOD_US + 5, lambda: change(50))
    engine.run_until(10 * VSYNC_PERIOD_US)
    card.stop(engine.now)
    assert video.frame_at(2)[0, 0] == 0
    assert video.frame_at(3)[0, 0] == 50
    assert video.frame_count == 11


def test_stop_without_start_rejected(rig):
    _engine, _display, card, _video = rig
    with pytest.raises(CaptureError):
        card.stop(0)


def test_double_start_rejected(rig):
    engine, _display, card, _video = rig
    card.start(engine.now)
    with pytest.raises(CaptureError):
        card.start(engine.now)


def test_restart_after_stop_allowed():
    engine = Engine()
    card = CaptureCard(Display(engine, 8, 8))
    first, second = FrameDigestTap(), FrameDigestTap()
    card.add_tap(first)
    card.start(engine.now)
    card.stop(engine.now)
    card.add_tap(second)  # a tap subscribes to the next capture only
    card.start(engine.now)
    engine.run_until(2 * VSYNC_PERIOD_US)
    card.stop(engine.now)
    assert (first.segment_count, first.end_frame) == (1, 1)
    assert (second.segment_count, second.end_frame) == (1, 3)


def test_frames_composed_while_stopped_not_recorded(rig):
    engine, display, card, video = rig
    card.start(engine.now)
    card.stop(engine.now)
    display.set_composer(lambda fb: fb.fill(77))
    display.invalidate()
    engine.run_until(2 * VSYNC_PERIOD_US)
    assert video.frame_count == 1
    assert video.segment_count == 1


def test_stopped_card_releases_its_taps():
    """A stopped card keeps no tap alive, so a recording's Video is freed
    with its last reference, not at the next cyclic collection."""
    engine = Engine()
    card = CaptureCard(Display(engine, 8, 8))
    video = Video(8, 8)
    card.add_tap(video)
    card.start(engine.now)
    card.stop(engine.now)
    released = weakref.ref(video)
    del video
    assert released() is None
