"""The streaming run pipeline end to end.

Every replay streams (frame taps → online matcher → accumulators →
RunRecord).  The fleet engine at any job count and warm cache re-runs
must serve the records a direct replay produces, and the stream must
hold less memory than keeping every captured segment would.
"""

import tracemalloc

import pytest

from repro.capture import FrameTap
from repro.fleet.cache import ResultCache
from repro.fleet.engine import FleetEngine
from repro.fleet.spec import RunSpec
from repro.harness.experiment import record_workload, replay_run
from repro.workloads.datasets import dataset

SCENARIOS = (
    "persona=gamer,seed=11,duration=45s",
    "persona=reader,seed=5,duration=45s",
)
CONFIGS = ("qoe_aware", "ondemand")


@pytest.fixture(scope="module")
def scenario_artifacts():
    return {name: record_workload(dataset(name)) for name in SCENARIOS}


def test_streaming_is_the_default(scenario_artifacts, monkeypatch):
    """A replay never materialises a Video: its capture always streams."""
    import repro.capture.hdmi as hdmi

    def no_video(*_args, **_kwargs):
        raise AssertionError("replay_run materialised a Video")

    monkeypatch.setattr(hdmi, "Video", no_video)
    replay_run(scenario_artifacts[SCENARIOS[0]], "ondemand")


def test_fleet_jobs2_matches_streamed_direct_replay(scenario_artifacts):
    artifacts = scenario_artifacts[SCENARIOS[0]]
    specs = [
        RunSpec(
            dataset=artifacts.name,
            config=config,
            rep=0,
            master_seed=artifacts.recording_master_seed,
        )
        for config in CONFIGS
    ]
    fleet_results = FleetEngine(jobs=2).run(artifacts, specs)
    for spec, fleet_result in zip(specs, fleet_results):
        direct = replay_run(
            artifacts, spec.config, rep=0,
            master_seed=artifacts.recording_master_seed,
        )
        assert fleet_result == direct


def test_warm_cache_rerun_serves_identical_records_across_modes(
    tmp_path, scenario_artifacts
):
    """Cells cached by a jobs=1 run satisfy a jobs=2 re-run, and the warm
    pass executes zero replays."""
    artifacts = scenario_artifacts[SCENARIOS[1]]
    specs = [
        RunSpec(
            dataset=artifacts.name,
            config=config,
            rep=0,
            master_seed=artifacts.recording_master_seed,
        )
        for config in CONFIGS
    ]
    cache = ResultCache(tmp_path)
    engine = FleetEngine(jobs=1, cache=cache)
    cold = engine.run(artifacts, specs)
    assert engine.last_stats.executed == len(specs)

    warm = FleetEngine(jobs=2, cache=cache)
    results = warm.run(artifacts, specs)
    assert warm.last_stats.executed == 0
    assert warm.last_stats.cache_hits == len(specs)
    assert results == cold


class _KeepSegments(FrameTap):
    """Holds every captured segment, as a materialised video would."""

    def __init__(self) -> None:
        self.segments = []

    def on_segment(self, segment) -> None:
        self.segments.append(segment)


def test_streaming_replay_uses_less_peak_memory(scenario_artifacts):
    """The point of the pipeline: replay allocations stay O(active-window)
    instead of O(session) (every segment buffered)."""
    artifacts = scenario_artifacts[SCENARIOS[0]]

    def peak_of(frame_tap):
        tracemalloc.start()
        try:
            replay_run(artifacts, "ondemand", frame_tap=frame_tap)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    kept = _KeepSegments()
    batch_peak = peak_of(kept)
    stream_peak = peak_of(None)
    assert kept.segments
    assert stream_peak < batch_peak, (stream_peak, batch_peak)
