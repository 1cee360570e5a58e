"""Reachability scan: the src functions that no entry point enters.

    python3 benchmarks/reach.py

Runs every entry point of the repository in this process under one
``cProfile`` profiler:

* each CLI command on small inputs (``repro-qoe table1``, ``classify``,
  ``sweep`` inline, pooled, warm, distributed and on a scenario,
  ``study``, ``explore`` with every strategy, ``trace``, ``attribute``,
  ``trace-diff``, ``demand -o``/``-i``, and ``perf`` writing a scratch
  baseline with ``--update-baseline`` and then gating on it with
  ``--check``);
* the two module entry points CI runs: ``python -m repro.obs.validate``
  on the ``trace`` and ``attribute`` outputs, and ``python -m
  repro.scenarios.smoke``;
* every script in ``examples/``, with short arguments;
* the paper checks, ``benchmarks/bench_*.py``, through pytest with
  ``--benchmark-disable`` (pytest collects no file of that name unless
  it is given one);
* ``perfbench/run.py --workload W --seconds 1 --trace 1`` for each
  workload.

It then walks ``src/`` with ``ast`` and prints, grouped by file, each
function none of them entered.  A function is matched on its file and
first line, which for a decorated function is its first decorator.  A
function whose name is never a code reference in a ``.py`` file under
``src/``, ``perfbench/``, ``benchmarks/`` or ``examples/`` is marked
``unreferenced``: no code outside the tests can call it.  A code
reference is a NAME token (from :mod:`tokenize`) outside ``def`` names,
``__all__`` assignments and import statements, or a name in an
f-string's replacement field; a name that occurs only in docstrings,
other string literals, comments or prose does not count.  The filter
goes by the bare name, so a dead method that shares its name with a
live function stays unmarked.

Child processes are not profiled, so code that runs only in fleet
workers is listed as never entered; its name is referenced, so it is
not marked.

``benchmarks/reach_keep.txt`` is the committed keep list: one
``src/<path>.py:<qualname>  <reason>`` per line (a line that starts
with ``#`` is a comment).  Every unreferenced function must be on it with the reason it
stays; a function that is only never entered, but referenced, stays off
it.  Exit status 1 means an entry point failed (the list is printed
only when all of them ran clean), an unreferenced function is not on
the keep list, or a keep line has no reason or names no unreferenced
function.  A full scan takes about five minutes on a two-core machine.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import pstats
import runpy
import sys
import tempfile
import tokenize
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Where a name must occur as code (besides its definition) to count as used.
REFERENCE_ROOTS = ("src", "perfbench", "benchmarks", "examples")
KEEP_FILE = ROOT / "benchmarks" / "reach_keep.txt"

SCENARIO = "persona=reader,seed=3,duration=45s"


def cli_commands(work: Path) -> list[list[str]]:
    """Every CLI command, each on an input small enough to run in seconds."""
    from repro.explore.strategies import strategy_names

    cache, share = str(work / "cache"), f"distributed:dir={work / 'share'},workers=2"
    attributed, demand = str(work / "attributed.json"), str(work / "demand.json")
    baseline = str(work / "perf_baseline.json")
    commands = [
        ["table1"],
        ["classify", "--datasets", "03"],
        ["sweep", "--dataset", "03", "--reps", "1", "--no-cache"],
        ["sweep", "--dataset", "03", "--reps", "1", "--jobs", "2", "--verbose",
         "--progress-jsonl", str(work / "progress.jsonl"), "--cache-dir", cache],
        ["sweep", "--dataset", "03", "--reps", "1", "--cache-dir", cache],
        ["sweep", "--scenario", SCENARIO, "--reps", "1", "--config",
         "fixed:300000", "--config", "interactive", "--backend", share],
        ["study", "--reps", "1", "--datasets", "03", "--scenario", SCENARIO,
         "--no-cache"],
    ]
    for strategy in strategy_names():
        commands.append(
            ["explore", "--dataset", "03", "--strategy", strategy,
             "--budget", "3", "--no-cache"]
        )
    commands += [
        ["trace", "persona=gamer,seed=7,duration=45s", "--config", "qoe_aware",
         "-o", str(work / "trace.json"), "--obs-json", str(work / "obs.json")],
        ["attribute", "03", "--config", "conservative", "-o", attributed],
        ["trace-diff", attributed, attributed],
        ["demand", SCENARIO, "-o", demand],
        ["demand", SCENARIO, "-i", demand],
        # The gate round trip, against a scratch baseline: never the
        # committed benchmarks/perf_baseline.json.
        ["perf", "--repeats", "1", "--update-baseline", "--baseline", baseline],
        ["perf", "--repeats", "1", "--check", "--baseline", baseline],
    ]
    return commands


EXAMPLES = {
    "custom_governor.py": ["--reps", "1", "--dataset", "03"],
    "day_in_the_life.py": ["--hours", "0.5"],
    "governor_study.py": ["--reps", "1", "--dataset", "03"],
    "quickstart.py": [],
    "suggester_walkthrough.py": [],
}
PERFBENCH_WORKLOADS = ("study_grid", "idle_session", "fleet_store")


class _Scan:
    """The outer profiler, plus every profiler the scanned code makes.

    ``perfbench/run.py --trace 1`` profiles its own pass; a second
    ``cProfile.Profile`` takes over the interpreter's one profile hook,
    so each nested profiler is kept and hands the hook back on disable.
    """

    def __init__(self) -> None:
        self.outer = cProfile.Profile()
        self.profilers = [self.outer]
        scan = self

        class Nested(cProfile.Profile):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                scan.profilers.append(self)

            def disable(self) -> None:
                super().disable()
                scan.outer.enable()

        self.nested = Nested

    def entered(self) -> set[tuple[str, int]]:
        self.outer.disable()
        found = set()
        for profiler in self.profilers:
            for filename, line, _name in pstats.Stats(profiler).stats:
                found.add((os.path.realpath(filename), line))
        return found


def _run_quietly(label: str, call) -> str | None:
    """Run one entry point with its output discarded; the failure, if any."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = call()
    except SystemExit as exit_:
        status = exit_.code
    except Exception:  # an entry point failed: report it, keep scanning
        return f"{label}:\n{traceback.format_exc()}"
    if status not in (0, None):
        tail = sink.getvalue().strip().splitlines()[-1:] or [""]
        return f"{label}: exit {status}: {tail[0]}"
    return None


def _run_script(path: Path, args: list[str]):
    def call():
        saved = sys.argv
        sys.argv = [str(path), *args]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved

    return call


def run_entry_points(scan: _Scan, work: Path) -> list[str]:
    failures = []

    def note(label, call):
        print(f"# reach: {label}", file=sys.stderr, flush=True)
        failure = _run_quietly(label, call)
        if failure:
            failures.append(failure)

    # Forked fleet workers inherit the hook; their profiles are discarded.
    os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
    scan.outer.enable()
    from repro.harness import cli

    for argv in cli_commands(work):
        note("repro-qoe " + " ".join(argv), lambda argv=argv: cli.main(argv))
    from repro.obs import validate
    from repro.scenarios import smoke

    for name in ("trace.json", "attributed.json"):
        note(
            f"python -m repro.obs.validate {name}",
            lambda path=str(work / name): validate.main([path]),
        )
    # Passed explicitly: run_smoke's default stream is bound at import.
    note("python -m repro.scenarios.smoke", lambda: smoke.run_smoke(sys.stdout))
    for name, args in EXAMPLES.items():
        note(f"examples/{name}", _run_script(ROOT / "examples" / name, args))

    import pytest

    benches = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    note(
        f"pytest {len(benches)} benchmarks/bench_*.py files",
        lambda: pytest.main(
            [*benches, "-q", "-p", "no:cacheprovider", "--benchmark-disable"]
        ),
    )

    environ, tempdir = dict(os.environ), tempfile.tempdir
    real_profile, cProfile.Profile = cProfile.Profile, scan.nested
    try:
        for workload in PERFBENCH_WORKLOADS:
            note(
                f"perfbench --workload {workload}",
                _run_script(
                    ROOT / "perfbench" / "run.py",
                    ["--workload", workload, "--seconds", "1", "--trace", "1"],
                ),
            )
    finally:
        cProfile.Profile = real_profile
        os.environ.clear()
        os.environ.update(environ)
        tempfile.tempdir = tempdir
    return failures


def src_functions():
    """``(path, lines that may start it, qualified name, line count)`` of
    every src function not nested in another function (a nested one is
    reached only through its parent).  A decorated function may be keyed
    on its first decorator or on its ``def`` line."""

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield (path, (first, child.lineno), f"{prefix}{child.name}",
                       child.end_lineno - first + 1)

    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        yield from walk(tree, "", path)


def reference_names() -> Counter:
    """How often each name is a code reference in the reference roots."""
    names: Counter = Counter()
    for root in REFERENCE_ROOTS:
        for path in sorted((ROOT / root).rglob("*.py")):
            if path.resolve() != Path(__file__).resolve():
                names.update(code_references(path.read_text(encoding="utf-8")))
    return names


def code_references(source: str):
    """The NAME tokens of ``source`` that can call something: not the name
    a ``def`` binds, nor any token of an ``__all__`` assignment or an
    import statement (a re-export is not a use).  The expressions inside
    an f-string count; the rest of a string does not."""
    skip_line = after_def = False
    line_start = True
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        kind, text = token.type, token.string
        if kind == tokenize.NEWLINE:
            skip_line, line_start = False, True
        elif kind == tokenize.NAME:
            if line_start and text in ("import", "from", "__all__"):
                skip_line = True
            if not (skip_line or after_def or text == "def"):
                yield text
            after_def, line_start = text == "def", False
        elif kind == tokenize.STRING:
            if not skip_line and "f" in text[: text.index(text[-1])].lower():
                yield from _fstring_names(text)
            line_start = False
        elif kind not in (tokenize.NL, tokenize.COMMENT, tokenize.INDENT,
                          tokenize.DEDENT):
            line_start = False


def _fstring_names(literal: str):
    """Names and attributes used in an f-string's replacement fields
    (before Python 3.12, tokenize returns an f-string as one STRING)."""
    for node in ast.walk(ast.parse(literal, mode="eval")):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def read_keep_list(path: Path) -> tuple[dict[str, str], list[str]]:
    """``({"file:qualname": reason}, problems)`` from the keep file."""
    keep: dict[str, str] = {}
    problems = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, *reason = line.split(None, 1)
        if not reason:
            problems.append(f"{path.name}:{number}: {key} has no reason")
        elif key in keep:
            problems.append(f"{path.name}:{number}: {key} is listed twice")
        else:
            keep[key] = reason[0]
    return keep, problems


def complain(problems: list[str]) -> int:
    """Print each problem; the exit status they call for."""
    for problem in problems:
        print(f"reach: {problem}", file=sys.stderr)
    return 1 if problems else 0


def report(
    entered: set[tuple[str, int]], keep: dict[str, str]
) -> list[str]:
    """Print the never-entered functions; the keep-list violations."""
    names = reference_names()
    functions = list(src_functions())
    unreached = [
        (path, starts[0], name, lines)
        for path, starts, name, lines in functions
        if not any((os.path.realpath(path), line) in entered for line in starts)
    ]
    marked = {
        (path, first) for path, first, name, _ in unreached
        if not names[name.rsplit(".", 1)[-1]]
    }
    marked_lines = sum(f[3] for f in unreached if (f[0], f[1]) in marked)
    print(
        f"# reach: {len(functions)} src functions, {len(unreached)} never "
        f"entered ({sum(f[3] for f in unreached)} lines), {len(marked)} of "
        f"them unreferenced ({marked_lines} lines)"
    )
    current = None
    unlisted, kept = [], set()
    for path, first, name, lines in unreached:
        if path != current:
            current = path
            print(path.relative_to(ROOT))
        flag = ""
        if (path, first) in marked:
            key = f"{path.relative_to(ROOT)}:{name}"
            flag = "  unreferenced"
            if key in keep:
                kept.add(key)
                flag += " (kept)"
            else:
                unlisted.append(key)
        print(f"  {first:5d}  {name} ({lines} lines){flag}")
    problems = [f"{key} is unreferenced and not in {KEEP_FILE.name}"
                for key in unlisted]
    problems += [f"{KEEP_FILE.name} lists {key}, which is no unreferenced "
                 "src function" for key in keep if key not in kept]
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    keep, problems = read_keep_list(KEEP_FILE)
    if problems:
        return complain(problems)
    scan = _Scan()
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        failures = run_entry_points(scan, Path(work))
    entered = scan.entered()
    import repro

    if Path(repro.__file__).resolve().parent != PACKAGE:
        print(f"reach: repro imported from {repro.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 1
    if failures:
        return complain(failures)
    return complain(report(entered, keep))


if __name__ == "__main__":
    sys.exit(main())
