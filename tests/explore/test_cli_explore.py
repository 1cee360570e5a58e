"""End-to-end CLI: explore command and parameterized sweep --config."""

import pytest

from repro.harness.cli import main

EXPLORE_ARGS = [
    "explore",
    "--dataset", "03",
    "--governor", "qoe_aware",
    "--strategy", "random",
    "--budget", "3",
    "--reps", "1",
]


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_explore_reports_a_frontier(tmp_path, capsys):
    rc, out, err = run_cli(
        capsys, *EXPLORE_ARGS, "--jobs", "2", "--cache-dir", str(tmp_path)
    )
    assert rc == 0
    assert "Pareto frontier vs oracle" in out
    assert "oracle" in out and "energy normalised to oracle" in out
    assert "on the Pareto frontier" in out
    # Stock baselines ride along for reference.
    assert "ondemand" in out and "conservative" in out
    # Telemetry stays on stderr, keeping stdout deterministic.
    assert "replay(s) executed" in err and "replay" not in out


def test_explore_stdout_identical_across_jobs_and_warm_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    _rc, cold, cold_err = run_cli(
        capsys, *EXPLORE_ARGS, "--jobs", "2", "--cache-dir", cache
    )
    _rc, warm, warm_err = run_cli(
        capsys, *EXPLORE_ARGS, "--jobs", "4", "--cache-dir", cache
    )
    assert warm == cold
    # The warm re-run replayed nothing: every cell came from the cache.
    assert "# 0 replay(s) executed" in warm_err
    assert "# 0 replay(s) executed" not in cold_err

    _rc, serial, _err = run_cli(
        capsys, *EXPLORE_ARGS, "--jobs", "1", "--no-cache"
    )
    assert serial == cold


def test_explore_jsonl_summaries_count_each_batch_once(tmp_path, capsys):
    """Regression: the explorer's reporter kept per-worker totals across
    engine batches, so every ``fleet_summary`` after the first listed
    the earlier batches' runs under ``workers``."""
    import json
    import re

    path = tmp_path / "explore.jsonl"
    rc, _out, err = run_cli(
        capsys,
        "explore", "--scenario", "persona=reader,seed=3,duration=45s",
        "--governor", "ondemand", "--strategy", "random", "--budget", "3",
        "--no-cache", "--no-baselines", "--verbose",
        "--progress-jsonl", str(path),
    )
    assert rc == 0
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [event["seq"] for event in events] == list(range(len(events)))
    summaries = [e for e in events if e["event"] == "fleet_summary"]
    assert len(summaries) >= 2  # the oracle batch, then the candidates
    for summary in summaries:
        worker_runs = sum(worker["runs"] for worker in summary["workers"])
        straggler_runs = (summary["stragglers"] or {"runs": 0})["runs"]
        assert worker_runs == summary["executed"] == straggler_runs
    # The engine binds the reporter to every batch: one grid_bound
    # each, followed by that batch's summary with the same total.
    framing = [
        e for e in events if e["event"] in ("grid_bound", "fleet_summary")
    ]
    assert [e["event"] for e in framing] == [
        "grid_bound", "fleet_summary"
    ] * len(summaries)
    totals = [e["total"] for e in framing[::2]]
    assert totals == [s["total"] for s in summaries]
    # --verbose lines use the shared progress format: k/n within each
    # batch, with an ETA until the batch's last run.
    lines = [line for line in err.splitlines() if "explore:" in line]
    got = []
    for line in lines:
        match = re.fullmatch(
            r"  explore: \S+ \(config \d+/\d+, rep 1/1\) — "
            r"(\d+)/(\d+) runs(, ETA \d+s)?",
            line,
        )
        assert match, line
        got.append((int(match[1]), int(match[2]), match[3] is not None))
    assert got == [
        (done, total, done < total)
        for total in totals
        for done in range(1, total + 1)
    ]


def test_explore_unknown_governor_fails_cleanly(capsys):
    rc, _out, err = run_cli(
        capsys, "explore", "--governor", "warp", "--no-cache"
    )
    assert rc == 2
    assert "no built-in search space" in err


def test_explore_unknown_strategy_fails_cleanly(capsys):
    rc, _out, err = run_cli(
        capsys, "explore", "--strategy", "anneal", "--no-cache"
    )
    assert rc == 2
    assert "unknown search strategy" in err


def test_sweep_accepts_parameterized_config(tmp_path, capsys):
    rc, out, _err = run_cli(
        capsys,
        "sweep", "--dataset", "03", "--reps", "1", "--jobs", "2",
        "--config", "qoe_aware:boost=1_036_800,settle=40_000",
        "--cache-dir", str(tmp_path),
    )
    assert rc == 0
    # The canonical spelling appears in the figures in place of the
    # stock governors; the 14 fixed configs stay for the oracle.
    assert "qoe_aware:boost=1036800,settle=40000" in out
    assert "ondemand" not in out
    assert "0.96 GHz" in out


@pytest.mark.parametrize(
    "config, message",
    [
        ("qoe_aware:bogus=1", "no tunable 'bogus'"),
        ("qoe_aware:boost", "key=value"),
        ("fixed:999", "not an operating point"),
        ("fixed", "needs a frequency"),
        ("warp:speed=9", "unknown governor"),
    ],
)
def test_sweep_rejects_bad_configs_before_running(capsys, config, message):
    rc, _out, err = run_cli(
        capsys,
        "sweep", "--dataset", "03", "--reps", "1", "--no-cache",
        "--config", config,
    )
    assert rc == 2
    assert message in err
    assert err.count("\n") == 1  # one clean line