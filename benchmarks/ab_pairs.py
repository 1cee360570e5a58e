"""A/B pairs: compare a git revision with the working tree on perfbench.

    python3 benchmarks/ab_pairs.py BASE WORKLOAD

BASE is any git revision.  It is checked out with ``git worktree add``
under ``.bench_tmp/``, and the worktree is removed when the runner
finishes.  HEAD is this working tree, uncommitted edits included.  The
command, the run length and each end-to-end metric's direction and
bound come from the head's ``BENCHMARK.json``; ``perfbench/run.py``
imports ``src/`` from its own checkout, so each side runs its own code.

The runner makes 10 pairs.  Each pair runs ``<command> --workload W
--seed 2014 --seconds <run_seconds> --trace 0`` once in each checkout,
and the side that runs first alternates from pair to pair.  It refuses
to report, with one line on stderr and exit status 1, when a run is not
``correct`` or has ``failed`` cells, when a run attempted a different
number of cells per pass than the first run, or when a run printed
different ``# digest`` lines than the first run.

For each metric it prints both medians, the head/base ratio, the pairs
the head won (ties count for neither side), the base's interquartile
range and the first verdict that applies:

* ``gain``: the head won at least 9 of 10 pairs and its median is
  better than the base's by more than the base's IQR;
* ``regression``: the head's median is worse by more than the bound;
* ``unresolved``: either side's IQR, relative to its median, is wider
  than the bound, so "within bound" would be a guess, unless every
  head run reads better than every base run;
* ``within bound``: otherwise.

Every report appends one entry, with every run's raw values, to
``BENCH_replay.json``; existing entries are kept as they are.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_replay.json"
PAIRS = 10
GAIN_WINS = 9
SEED = 2014
PASS_LINE = re.compile(r"# \S+ seed \d+: (\d+) pass\(es\), (\d+) cells")


class Refused(Exception):
    """A one-line reason the comparison cannot be reported."""


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def _git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True
    )
    if done.returncode:
        raise Refused(f"git {args[0]}: {_last_line(done.stderr)}")
    return done.stdout.strip()


def load_trajectory() -> dict:
    if not TRAJECTORY.exists():
        return {"schema": 1, "benchmark": "replay-throughput", "entries": []}
    try:
        document = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise Refused(f"unreadable {TRAJECTORY.name}: {exc}") from None
    if not isinstance(document, dict) or not isinstance(
        document.get("entries"), list
    ):
        raise Refused(f"{TRAJECTORY.name} has no entries list")
    return document


def run_once(checkout: Path, argv: list[str], side: str) -> dict:
    """One benchmark run in ``checkout``: its JSON result, pass count and
    digest lines."""
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        passes = int(next(filter(None, map(PASS_LINE.fullmatch, lines)))[1])
    except (IndexError, ValueError, StopIteration):
        raise Refused(
            f"{side} run exited {done.returncode} without a result: "
            f"{_last_line(done.stderr)}"
        ) from None
    return {
        "side": side,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": passes,
        "digests": [line for line in lines if line.startswith("# digest ")],
        "metrics": {
            name: metric["value"] for name, metric in result["metrics"].items()
        },
    }


def check_run(run: dict, first: dict) -> None:
    where = f"{run['side']} run of pair {run['pair'] + 1}"
    if not run["correct"] or run["failed"]:
        raise Refused(
            f"{where}: correct={run['correct']}, failed={run['failed']}"
        )
    if run["digests"] != first["digests"]:
        raise Refused(
            f"{where} printed digests {run['digests']} but the "
            f"{first['side']} run of pair 1 printed {first['digests']}"
        )
    per_pass = run["attempted"] / run["passes"]
    first_per_pass = first["attempted"] / first["passes"]
    if per_pass != first_per_pass:
        raise Refused(
            f"{where} attempted {per_pass:g} cells per pass but the "
            f"{first['side']} run of pair 1 attempted {first_per_pass:g}"
        )


def _iqr(values: list[float]) -> float:
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _relative(value: float, median: float) -> float:
    if median:
        return value / median
    return math.inf if value else 0.0


def summarise(
    base: list[float], head: list[float], better: str, bound: float
) -> dict:
    """Paired comparison of one metric; ``base[i]`` and ``head[i]`` are
    the two runs of pair ``i``."""
    sign = 1 if better == "higher" else -1
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    base_iqr = _iqr(base)
    improvement = sign * (head_median - base_median)
    spread = max(
        _relative(base_iqr, base_median), _relative(_iqr(head), head_median)
    )
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    dominates = min(sign * h for h in head) > max(sign * b for b in base)
    if wins >= GAIN_WINS and improvement > base_iqr:
        verdict = "gain"
    elif _relative(-improvement, base_median) > bound:
        verdict = "regression"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base_median": base_median,
        "head_median": head_median,
        "ratio": _relative(head_median, base_median),
        "wins": wins,
        "base_iqr": base_iqr,
        "verdict": verdict,
    }


def render(summary: dict[str, dict]) -> str:
    lines = [
        f"{'metric':<16} {'base median':>12} {'head median':>12} "
        f"{'ratio':>8} {'wins':>6} {'base IQR':>10}  verdict"
    ]
    for name, row in summary.items():
        lines.append(
            f"{name:<16} {row['base_median']:>12.6g} "
            f"{row['head_median']:>12.6g} {row['ratio']:>7.3f}x "
            f"{row['wins']:>3}/{PAIRS:<2} {row['base_iqr']:>10.4g}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def compare(base_rev: str, workload: str) -> tuple[dict, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [entry["name"] for entry in spec["workloads"]]
    if workload not in known:
        raise Refused(
            f"unknown workload {workload!r} (known: {', '.join(known)})"
        )
    load_trajectory()  # refuse a malformed trajectory before spending runs
    base_sha = _git("rev-parse", "--verify", f"{base_rev}^{{commit}}")
    head_sha = _git("rev-parse", "HEAD")
    label = _git("log", "-1", "--format=%s")
    # The runner's own appends do not make the head dirty.
    if _git("status", "--porcelain", "--", ".", f":!{TRAJECTORY.name}"):
        label += " (dirty)"
    argv = [
        *spec["command"], "--workload", workload, "--seed", str(SEED),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    base_checkout = scratch / f"ab-base-{base_sha[:12]}-{os.getpid()}"
    _git("worktree", "add", "--detach", "--quiet", str(base_checkout),
         base_sha)
    checkouts = {"base": base_checkout, "head": ROOT}
    runs: list[dict] = []
    try:
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                print(f"# pair {pair + 1}/{PAIRS}: {side}", file=sys.stderr,
                      flush=True)
                run = run_once(checkouts[side], argv, side)
                run["pair"] = pair
                check_run(run, runs[0] if runs else run)
                runs.append(run)
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_checkout)],
            cwd=ROOT, capture_output=True,
        )
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        try:
            base, head = (
                [run["metrics"][name] for run in runs if run["side"] == side]
                for side in ("base", "head")
            )
        except KeyError:
            raise Refused(f"a run printed no {name!r} metric") from None
        summary[name] = summarise(
            base, head, metric["better"], metric["bound"]
        )
    entry = {
        "recorded_at": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "label": label,
        "base": base_sha,
        "head": head_sha,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": workload,
        "pairs": PAIRS,
        "run_seconds": spec["run_seconds"],
        "digests": runs[0]["digests"],
        "runs": [
            {key: value for key, value in run.items() if key != "digests"}
            for run in runs
        ],
        "summary": summary,
    }
    header = (
        f"# {workload}: {PAIRS} pairs of {spec['run_seconds']} s runs, "
        f"base {base_sha[:12]} vs head {head_sha[:12]} — {label}"
    )
    return entry, header + "\n" + render(summary)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="BASE", help="any git revision")
    parser.add_argument("workload", metavar="WORKLOAD",
                        help="a workload named in BENCHMARK.json")
    args = parser.parse_args(argv)
    try:
        entry, report = compare(args.base, args.workload)
        document = load_trajectory()
    except Refused as refusal:
        print(f"ab_pairs: refused: {refusal}", file=sys.stderr)
        return 1
    document["entries"].append(entry)
    TRAJECTORY.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )
    print(report)
    print(f"# entry appended to {TRAJECTORY.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
