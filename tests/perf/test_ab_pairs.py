"""Tests for benchmarks/ab_pairs.py, the A/B pair runner.

The end-to-end tests build a throwaway git repository with two commits.
Each holds a stub ``perfbench/run.py`` that prints canned ``# digest``
and JSON lines for its side, read from a state directory outside the
repository, so the runner is exercised exactly as on the real benchmark.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parents[2] / "benchmarks" / "ab_pairs.py"

STUB = '''\
import json
import os
import sys
from pathlib import Path

side = (Path(__file__).parent / "side.txt").read_text().strip()
state = Path(os.environ["AB_STUB_STATE"])
counter = state / f"count-{side}"
index = int(counter.read_text()) if counter.exists() else 0
counter.write_text(str(index + 1))
with open(state / "runs.log", "a") as log:
    log.write(json.dumps({"side": side, "argv": sys.argv[1:],
                          "cwd": os.getcwd()}) + "\\n")
run = json.loads((state / "canned.json").read_text())[side][index]
print(f"# stub seed 2014: {run['passes']} pass(es), {run['attempted']} cells")
print(f"# digest {run['digest']}")
print(json.dumps({
    "correct": run["correct"],
    "attempted": run["attempted"],
    "failed": run["failed"],
    "metrics": {k: {"value": v, "unit": ""} for k, v in run["metrics"].items()},
}))
sys.exit(0 if run["correct"] else 1)
'''

METRICS = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "lat", "better": "lower", "bound": 0.25},
    {"name": "mem", "better": "lower", "bound": 0.15},
    {"name": "noisy", "better": "higher", "bound": 0.25},
]

# Per metric, the base's and the head's value in each of the 10 pairs.
CANNED = {
    "rate": ([10.0] * 10, [11.0] * 9 + [10.0]),  # one tie: wins 9/10
    "lat": ([40.0] * 10, [60.0] * 10),  # 1.5x worse than a 0.25 bound
    "mem": ([100.0] * 10, [101.0] * 10),  # 1% worse, bound 15%
    "noisy": ([5.0, 15.0] * 5, [5.0, 15.0] * 5),  # IQR = median
}


def load_runner():
    spec = importlib.util.spec_from_file_location("ab_pairs", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
         *args],
        cwd=repo, check=True, capture_output=True,
    )


def canned_runs(side, **override):
    """Ten canned runs for ``side``; ``override`` maps a field to
    ``(run index, value)``."""
    column = 0 if side == "base" else 1
    runs = [
        {
            "correct": True, "failed": 0, "attempted": 6, "passes": 2,
            "digest": "d0",
            "metrics": {name: values[column][index]
                        for name, values in CANNED.items()},
        }
        for index in range(10)
    ]
    for field, (index, value) in override.items():
        runs[index][field] = value
    return runs


@pytest.fixture
def bench_repo(tmp_path):
    """A repository whose HEAD~1 and HEAD stubs play base and head."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "benchmarks").mkdir()
    (repo / "benchmarks" / "ab_pairs.py").write_text(RUNNER.read_text())
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / ".gitignore").write_text(".bench_tmp/\n")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": 7,
        "workloads": [{"name": "w"}],
        "end_to_end": METRICS,
    }))
    git(repo, "init", "-q")
    for side in ("base", "head"):
        (repo / "perfbench" / "side.txt").write_text(side)
        git(repo, "add", "-A")
        git(repo, "commit", "-q", "-m", f"{side} change")
    state = tmp_path / "state"
    state.mkdir()
    return repo, state


def run_pairs(bench_repo, base_runs, head_runs):
    repo, state = bench_repo
    (state / "canned.json").write_text(
        json.dumps({"base": base_runs, "head": head_runs})
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ab_pairs.py", "HEAD~1", "w"],
        cwd=repo, capture_output=True, text=True,
        env={**os.environ, "AB_STUB_STATE": str(state)},
    )
    log = state / "runs.log"
    runs = [json.loads(line) for line in log.read_text().splitlines()] \
        if log.exists() else []
    return done, runs


def assert_worktree_removed(repo):
    assert not list((repo / ".bench_tmp").glob("ab-base-*"))
    listed = subprocess.run(
        ["git", "worktree", "list"], cwd=repo, capture_output=True, text=True
    ).stdout.splitlines()
    assert len(listed) == 1


def test_summarise_counts_wins_ratio_and_iqr():
    runner = load_runner()
    base = [float(v) for v in range(1, 11)]
    row = runner.summarise(base, [v + 1 for v in base], "higher", 0.25)
    # statistics.quantiles(inclusive) of 1..10: q1 3.25, q3 7.75.
    assert row["base_iqr"] == pytest.approx(4.5)
    assert row["wins"] == 10
    assert row["ratio"] == pytest.approx(6.5 / 5.5)
    # Better by 1.0, which the base's IQR of 4.5 swallows; the spread
    # (4.5 / 5.5) is wider than the bound.
    assert row["verdict"] == "unresolved"


def test_summarise_verdict_order():
    runner = load_runner()
    flat = [10.0] * 10
    assert runner.summarise(flat, [9.0] * 10, "lower", 0.25)["verdict"] == "gain"
    assert runner.summarise(flat, [9.0] * 10, "higher", 0.25)["verdict"] == (
        "within bound"
    )
    assert runner.summarise(flat, [7.0] * 10, "higher", 0.25)["verdict"] == (
        "regression"
    )
    # A spread wider than the bound is unresolved unless every head run
    # reads better than every base run.
    wide = [5.0, 15.0] * 5
    assert runner.summarise(wide, [16.0, 17.0] * 5, "higher", 0.25)[
        "verdict"] == "within bound"
    # Eight wins and two ties is not enough for a gain.
    head = [11.0] * 8 + [10.0] * 2
    row = runner.summarise(flat, head, "higher", 0.25)
    assert (row["wins"], row["verdict"]) == (8, "within bound")


def test_runner_accepts_only_base_and_workload():
    runner = load_runner()
    with pytest.raises(SystemExit) as exit_info:
        runner.main(["HEAD~1", "w", "--pairs", "3"])
    assert exit_info.value.code == 2


def test_pairs_alternate_report_and_append_one_entry(bench_repo):
    repo, _state = bench_repo
    old = {"label": "an earlier entry", "results": {"x": 1}}
    (repo / "BENCH_replay.json").write_text(
        json.dumps({"schema": 1, "entries": [old]})
    )
    (repo / "README").write_text("an uncommitted edit\n")

    done, runs = run_pairs(
        bench_repo, canned_runs("base"), canned_runs("head")
    )
    assert done.returncode == 0, done.stderr

    # Base goes first in pairs 1, 3, 5, ..., head in pairs 2, 4, ....
    sides = [run["side"] for run in runs]
    assert sides == ["base", "head", "head", "base"] * 5
    assert all(
        run["argv"] == ["--workload", "w", "--seed", "2014", "--seconds", "7",
                        "--trace", "0"]
        for run in runs
    )
    base_cwds = {run["cwd"] for run in runs if run["side"] == "base"}
    assert len(base_cwds) == 1
    assert Path(base_cwds.pop()).parent == repo / ".bench_tmp"
    assert {run["cwd"] for run in runs if run["side"] == "head"} == {str(repo)}
    assert_worktree_removed(repo)

    lines = {line.split()[0]: line.split() for line in done.stdout.splitlines()}
    assert lines["rate"][-1] == "gain" and lines["rate"][4] == "9/10"
    assert lines["rate"][3] == "1.100x"
    assert lines["lat"][-1] == "regression" and lines["lat"][4] == "0/10"
    assert lines["mem"][-2:] == ["within", "bound"]
    assert lines["noisy"][-1] == "unresolved"

    document = json.loads((repo / "BENCH_replay.json").read_text())
    assert len(document["entries"]) == 2
    assert document["entries"][0] == old
    entry = document["entries"][1]
    assert entry["label"] == "head change (dirty)"
    assert entry["workload"] == "w" and entry["pairs"] == 10
    assert entry["run_seconds"] == 7 and entry["cpu_count"] >= 1
    assert entry["digests"] == ["# digest d0"]
    assert len(entry["base"]) == len(entry["head"]) == 40
    assert [run["side"] for run in entry["runs"]] == sides
    assert entry["runs"][0]["metrics"]["noisy"] == 5.0
    summary = entry["summary"]
    assert summary["rate"]["wins"] == 9
    assert summary["rate"]["ratio"] == pytest.approx(1.1)
    assert summary["noisy"]["base_iqr"] == pytest.approx(10.0)
    assert {name: row["verdict"] for name, row in summary.items()} == {
        "rate": "gain",
        "lat": "regression",
        "mem": "within bound",
        "noisy": "unresolved",
    }


@pytest.mark.parametrize(
    "side, override, reason",
    [
        ("head", {"correct": (1, False)}, "head run of pair 2: correct=False"),
        ("base", {"failed": (0, 1)}, "base run of pair 1: correct=True, failed=1"),
        ("head", {"digest": (0, "d1")}, "head run of pair 1 printed digests"),
        ("base", {"attempted": (2, 9)}, "attempted 4.5 cells per pass"),
    ],
    ids=["incorrect", "failed", "digest", "cells-per-pass"],
)
def test_refusals_are_one_line_and_append_nothing(
    bench_repo, side, override, reason
):
    repo, _state = bench_repo
    runs = {"base": canned_runs("base"), "head": canned_runs("head")}
    runs[side] = canned_runs(side, **override)
    done, _runs = run_pairs(bench_repo, runs["base"], runs["head"])
    assert done.returncode == 1
    assert done.stdout == ""
    # Besides the "# pair" progress lines, stderr holds one line.
    (line,) = [l for l in done.stderr.splitlines() if not l.startswith("# ")]
    assert line.startswith("ab_pairs: refused: ") and reason in line
    assert not (repo / "BENCH_replay.json").exists()
    assert_worktree_removed(repo)


def test_malformed_trajectory_is_refused_before_any_run(bench_repo):
    repo, _state = bench_repo
    (repo / "BENCH_replay.json").write_text("[1, 2, 3]")
    done, runs = run_pairs(
        bench_repo, canned_runs("base"), canned_runs("head")
    )
    assert done.returncode == 1 and runs == []
    assert done.stderr.strip() == (
        "ab_pairs: refused: BENCH_replay.json has no entries list"
    )
    assert (repo / "BENCH_replay.json").read_text() == "[1, 2, 3]"
