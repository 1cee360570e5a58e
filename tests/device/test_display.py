"""Unit tests for the display and vsync composition."""

import numpy as np
import pytest

from repro.core.engine import Engine
from repro.core.errors import CaptureError
from repro.device.display import (
    VSYNC_PERIOD_US,
    Display,
    frame_index_at,
    frame_timestamp,
)


def test_frame_index_math():
    assert frame_index_at(0) == 0
    assert frame_index_at(VSYNC_PERIOD_US - 1) == 0
    assert frame_index_at(VSYNC_PERIOD_US) == 1
    assert frame_timestamp(3) == 3 * VSYNC_PERIOD_US


def test_invalid_dimensions_rejected():
    with pytest.raises(CaptureError):
        Display(Engine(), 0, 10)


def test_no_composition_without_invalidate():
    engine = Engine()
    display = Display(engine, 8, 8)
    engine.run_until(10 * VSYNC_PERIOD_US)
    assert display.frames_composed == 0


def test_invalidate_composes_on_next_vsync():
    engine = Engine()
    display = Display(engine, 8, 8)
    composed = []
    display.set_composer(lambda fb: composed.append(engine.now))
    display.invalidate()
    engine.run_until(2 * VSYNC_PERIOD_US)
    assert composed == [VSYNC_PERIOD_US]


def test_multiple_invalidates_coalesce_into_one_frame():
    engine = Engine()
    display = Display(engine, 8, 8)
    display.set_composer(lambda fb: None)
    display.invalidate()
    display.invalidate()
    display.invalidate()
    engine.run_until(2 * VSYNC_PERIOD_US)
    assert display.frames_composed == 1


def test_observers_get_frame_index_and_copy():
    engine = Engine()
    display = Display(engine, 4, 4)
    display.set_composer(lambda fb: fb.fill(7))
    seen = []
    display.add_frame_observer(lambda idx, content: seen.append((idx, content)))
    display.invalidate()
    engine.run_until(2 * VSYNC_PERIOD_US)
    index, content = seen[0]
    assert index == 1
    assert np.all(content == 7)
    # Mutating the live framebuffer must not corrupt the observer's copy.
    display.framebuffer.fill(0)
    assert np.all(content == 7)
