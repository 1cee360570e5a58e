"""Tests for aggregated progress/ETA reporting and JSONL telemetry."""

import io
import json

from repro.fleet.progress import ProgressReporter
from repro.fleet.spec import enumerate_sweep_specs


class FakeClock:
    """An injectable monotonic clock advanced by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _reporter():
    stream = io.StringIO()
    specs = enumerate_sweep_specs("02", ["a", "b", "c"], 2, 2014)
    reporter = ProgressReporter("02", stream=stream).bind(specs)
    return reporter, specs, stream


def test_lines_show_positions_and_totals():
    reporter, specs, stream = _reporter()
    reporter.observe(specs[0], cached=False)
    reporter.observe(specs[3], cached=False)
    lines = stream.getvalue().splitlines()
    assert "(config 1/3, rep 1/2)" in lines[0]
    assert "1/6 runs" in lines[0]
    assert "(config 2/3, rep 2/2)" in lines[1]
    assert "2/6 runs" in lines[1]


def test_cached_runs_are_marked_and_excluded_from_eta():
    reporter, specs, stream = _reporter()
    for spec in specs:
        reporter.observe(spec, cached=True)
    lines = stream.getvalue().splitlines()
    assert len(lines) == len(specs)
    assert all(line.endswith("[cached]") for line in lines)
    assert all("ETA" not in line for line in lines)


def test_eta_appears_once_real_runs_complete():
    reporter, specs, stream = _reporter()
    reporter.observe(specs[0], cached=False)
    line = stream.getvalue().splitlines()[0]
    assert "ETA" in line


# --- edge cases ---------------------------------------------------------------------


def test_zero_total_grid_binds_and_summarises_cleanly():
    """An empty spec list must not divide by zero anywhere."""
    from repro.fleet.engine import FleetStats

    jsonl = io.StringIO()
    reporter = ProgressReporter(
        "empty", stream=io.StringIO(), jsonl_stream=jsonl
    ).bind([])
    assert reporter.eta_seconds() is None
    reporter.fleet_summary(FleetStats(total=0))
    events = [json.loads(line) for line in jsonl.getvalue().splitlines()]
    assert [event["event"] for event in events] == ["grid_bound", "fleet_summary"]
    assert events[0]["total"] == 0
    assert events[1]["stragglers"] is None


def test_fully_cached_warm_run_has_no_eta():
    """All-cached grids have no executed runs to extrapolate from."""
    clock = FakeClock()
    specs = enumerate_sweep_specs("02", ["a", "b"], 2, 2014)
    reporter = ProgressReporter(
        "02", stream=io.StringIO(), clock=clock
    ).bind(specs)
    for spec in specs:
        clock.advance(1.0)
        reporter.observe(spec, cached=True)
        assert reporter.eta_seconds() is None


def test_eta_decreases_monotonically_at_steady_pace():
    """Constant per-run cost: each completion must shrink the estimate."""
    clock = FakeClock()
    specs = enumerate_sweep_specs("02", ["a", "b", "c"], 3, 2014)
    reporter = ProgressReporter(
        "02", stream=io.StringIO(), clock=clock
    ).bind(specs)
    etas = []
    for spec in specs:
        clock.advance(2.0)
        reporter.observe(spec, cached=False)
        eta = reporter.eta_seconds()
        if eta is not None:
            etas.append(eta)
    assert len(etas) == len(specs) - 1  # last run leaves nothing remaining
    assert etas == sorted(etas, reverse=True)
    assert all(
        later < earlier for earlier, later in zip(etas, etas[1:])
    )


def test_jsonl_events_are_seq_ordered_and_complete():
    clock = FakeClock()
    jsonl = io.StringIO()
    specs = enumerate_sweep_specs("02", ["a", "b"], 1, 2014)
    reporter = ProgressReporter(
        "02", stream=io.StringIO(), jsonl_stream=jsonl, clock=clock,
        heartbeat_s=1e9,
    ).bind(specs)
    for spec in specs:
        reporter.observe(
            spec, cached=False,
            telemetry={"pid": 42, "wall_s": 0.5, "cpu_s": 0.4},
        )
    events = [json.loads(line) for line in jsonl.getvalue().splitlines()]
    assert [event["seq"] for event in events] == list(range(len(events)))
    kinds = [event["event"] for event in events]
    assert kinds[0] == "grid_bound"
    completed = [event for event in events if event["event"] == "run_completed"]
    assert len(completed) == len(specs)
    assert [event["done"] for event in completed] == [1, 2]
    assert all(event["worker_pid"] == 42 for event in completed)


def test_seq_continues_across_rebinds_like_a_study():
    """cmd_study reuses one reporter per workload; seq must not restart."""
    jsonl = io.StringIO()
    reporter = ProgressReporter(
        "study", stream=io.StringIO(), jsonl_stream=jsonl, heartbeat_s=1e9
    )
    for label in ("02", "03"):
        reporter.label = label
        specs = enumerate_sweep_specs(label, ["a"], 1, 2014)
        reporter.bind(specs)
        reporter.observe(specs[0], cached=False)
    events = [json.loads(line) for line in jsonl.getvalue().splitlines()]
    assert [event["seq"] for event in events] == list(range(len(events)))
    bounds = [event for event in events if event["event"] == "grid_bound"]
    assert [bound["label"] for bound in bounds] == ["02", "03"]
    # the rebind reset the grid counters
    assert events[-1]["done"] == 1


def test_rebind_resets_heartbeat_pacing():
    """Regression: bind() once forgot _last_heartbeat, so a study's
    second workload could have its first heartbeat suppressed by the
    previous grid's pacing."""
    clock = FakeClock()
    jsonl = io.StringIO()
    reporter = ProgressReporter(
        "study", stream=io.StringIO(), jsonl_stream=jsonl, clock=clock,
        heartbeat_s=10.0,
    )
    specs_a = enumerate_sweep_specs("02", ["a"], 1, 2014)
    reporter.bind(specs_a)
    reporter.observe(specs_a[0])
    clock.advance(9.0)  # next heartbeat would be suppressed until t=10

    reporter.label = "03"
    specs_b = enumerate_sweep_specs("03", ["a"], 1, 2014)
    reporter.bind(specs_b)
    reporter.observe(specs_b[0])

    events = [json.loads(line) for line in jsonl.getvalue().splitlines()]
    # the rebind cleared heartbeat pacing: the new grid's first
    # observation heartbeats immediately instead of waiting out the old
    # grid's interval
    beats = [event for event in events if event["event"] == "heartbeat"]
    assert [(beat["label"], beat["done"]) for beat in beats] == [
        ("study", 1), ("03", 1),
    ]


def test_fleet_summary_workers_come_from_the_stats():
    """The summary's worker totals are the stats' own, not an aggregate
    the reporter kept across grids or batches."""
    from repro.fleet.engine import FleetStats

    jsonl = io.StringIO()
    reporter = ProgressReporter(
        "explore", stream=io.StringIO(), jsonl_stream=jsonl, heartbeat_s=1e9
    )
    specs = enumerate_sweep_specs("02", ["a"], 1, 2014)
    reporter.observe(
        specs[0], telemetry={"pid": 11, "wall_s": 1.0, "cpu_s": 0.9}
    )
    stats = FleetStats(
        total=1, executed=1,
        run_telemetry=[{"pid": 22, "wall_s": 2.0, "cpu_s": 1.8}],
    )
    reporter.fleet_summary(stats)
    summary = json.loads(jsonl.getvalue().splitlines()[-1])
    assert summary["event"] == "fleet_summary"
    assert summary["workers"] == [
        {"pid": 22, "runs": 1, "wall_s": 2.0, "cpu_s": 1.8}
    ]


def test_eta_excludes_one_time_capture_seconds():
    """Regression: eta_seconds() folded the one-time demand-capture wall
    time into the per-cell extrapolation, wildly overestimating small
    grids."""
    clock = FakeClock()
    specs = enumerate_sweep_specs("02", ["a"], 4, 2014)
    reporter = ProgressReporter(
        "02", stream=io.StringIO(), clock=clock
    ).bind(specs)
    clock.advance(30.0)  # demand-trace capture: paid once, not per cell
    reporter.note_capture_seconds(30.0)
    clock.advance(2.0)
    reporter.observe(specs[0], cached=False)
    # 1 executed cell in 2s of per-cell time -> 3 remaining ≈ 6s, not
    # the 96s a naive (elapsed/executed)*remaining would claim.
    assert reporter.eta_seconds() == 6.0


def test_capture_allowance_does_not_survive_rebind():
    """The next grid captures (or not) on its own; a stale allowance
    would deflate its ETA."""
    clock = FakeClock()
    reporter = ProgressReporter("study", stream=io.StringIO(), clock=clock)
    specs_a = enumerate_sweep_specs("02", ["a"], 2, 2014)
    reporter.bind(specs_a)
    reporter.note_capture_seconds(100.0)
    specs_b = enumerate_sweep_specs("03", ["a"], 2, 2014)
    reporter.bind(specs_b)
    clock.advance(4.0)
    reporter.observe(specs_b[0], cached=False)
    assert reporter.eta_seconds() == 4.0


def test_eta_never_negative_when_capture_overlaps_elapsed():
    """A capture allowance larger than elapsed clamps at zero instead of
    extrapolating a negative remainder."""
    clock = FakeClock()
    specs = enumerate_sweep_specs("02", ["a"], 2, 2014)
    reporter = ProgressReporter(
        "02", stream=io.StringIO(), clock=clock
    ).bind(specs)
    clock.advance(1.0)
    reporter.note_capture_seconds(5.0)
    reporter.observe(specs[0], cached=False)
    assert reporter.eta_seconds() == 0.0


def test_heartbeats_are_rate_limited_by_the_injected_clock():
    clock = FakeClock()
    jsonl = io.StringIO()
    specs = enumerate_sweep_specs("02", ["a"], 6, 2014)
    reporter = ProgressReporter(
        "02", stream=io.StringIO(), jsonl_stream=jsonl, clock=clock,
        heartbeat_s=10.0,
    ).bind(specs)
    for spec in specs:
        clock.advance(3.0)
        reporter.observe(spec, cached=False)
    beats = [
        json.loads(line)
        for line in jsonl.getvalue().splitlines()
        if json.loads(line)["event"] == "heartbeat"
    ]
    # 18s of run at one beat per 10s: the first observation beats, then
    # one more once the interval has elapsed.
    assert len(beats) == 2
    assert beats[-1]["done"] > beats[0]["done"]


def test_heartbeat_zero_interval_beats_every_observation():
    jsonl = io.StringIO()
    specs = enumerate_sweep_specs("02", ["a"], 3, 2014)
    reporter = ProgressReporter(
        "02", stream=io.StringIO(), jsonl_stream=jsonl, heartbeat_s=0.0
    ).bind(specs)
    for spec in specs:
        reporter.observe(spec, cached=False)
    kinds = [
        json.loads(line)["event"] for line in jsonl.getvalue().splitlines()
    ]
    assert kinds.count("heartbeat") == len(specs)


def test_human_lines_suppressed_in_machine_only_mode():
    stream = io.StringIO()
    jsonl = io.StringIO()
    specs = enumerate_sweep_specs("02", ["a"], 1, 2014)
    reporter = ProgressReporter(
        "02", stream=stream, jsonl_stream=jsonl, human=False
    ).bind(specs)
    reporter.observe(specs[0], cached=False)
    assert stream.getvalue() == ""
    assert jsonl.getvalue() != ""


def test_fleet_jobs2_streams_ordered_telemetry(artifacts_ds03, tmp_path):
    """End to end: a jobs=2 fleet run produces a well-formed JSONL stream."""
    from repro.fleet.engine import FleetEngine
    from repro.fleet.spec import RunSpec

    specs = [
        RunSpec(
            dataset=artifacts_ds03.name,
            config=config,
            rep=0,
            master_seed=artifacts_ds03.recording_master_seed,
        )
        for config in ("fixed:300000", "fixed:652800", "interactive")
    ]
    path = tmp_path / "progress.jsonl"
    with open(path, "w", encoding="utf-8") as jsonl:
        reporter = ProgressReporter(
            artifacts_ds03.name, stream=io.StringIO(), jsonl_stream=jsonl
        ).bind(specs)
        engine = FleetEngine(jobs=2, progress=reporter)
        engine.run(artifacts_ds03, specs)
        reporter.fleet_summary(engine.last_stats)

    events = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    assert [event["seq"] for event in events] == list(range(len(events)))
    completed = [event for event in events if event["event"] == "run_completed"]
    assert len(completed) == len(specs)
    # every executed run carries its worker's telemetry
    assert all(
        event["worker_pid"] > 0 and event["wall_s"] >= 0.0
        for event in completed
    )
    summary = events[-1]
    assert summary["event"] == "fleet_summary"
    assert summary["executed"] == len(specs)
    assert summary["stragglers"]["runs"] == len(specs)
    assert sum(worker["runs"] for worker in summary["workers"]) == len(specs)
