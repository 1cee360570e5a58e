"""Unit tests for lag profiles."""

from repro.analysis.lagprofile import LagMeasurement, LagProfile
from repro.metrics.hci import SHNEIDERMAN_MODEL


def measurement(index=0, duration=500_000, threshold=1_000_000, label=None):
    return LagMeasurement(
        lag_index=index,
        gesture_index=index,
        label=label or f"lag{index}",
        category="simple_frequent",
        begin_time_us=index * 5_000_000,
        end_frame=10,
        duration_us=duration,
        threshold_us=threshold,
    )


def test_durations_ms():
    profile = LagProfile("w", (measurement(duration=250_000),))
    assert profile.durations_ms() == [250.0]


def test_irritation_uses_stored_thresholds():
    profile = LagProfile(
        "w",
        (
            measurement(0, duration=1_500_000, threshold=1_000_000),
            measurement(1, duration=400_000, threshold=1_000_000),
        ),
    )
    result = profile.irritation()
    assert result.total_us == 500_000
    assert result.irritating_lag_count == 1


def test_irritation_with_model_recomputes_from_category():
    profile = LagProfile("w", (measurement(duration=1_500_000, threshold=1),))
    result = profile.irritation(model=SHNEIDERMAN_MODEL)
    # simple_frequent threshold is 1 s, not the stored 1 us.
    assert result.total_us == 500_000


def test_irritation_with_overrides():
    profile = LagProfile("w", (measurement(duration=900_000),))
    result = profile.irritation(overrides={"lag0": 800_000})
    assert result.total_us == 100_000
