"""Reachability scan: the src functions that no entry point enters.

    python3 benchmarks/reach.py

Runs every entry point of the repository in this process under one
``cProfile`` profiler:

* each CLI command on small inputs (``repro-qoe table1``, ``classify``,
  ``sweep`` inline, pooled, warm, distributed and on a scenario,
  ``study``, ``explore`` with every strategy and every searchable
  governor, ``trace``, ``attribute``, ``trace-diff``, ``demand
  -o``/``-i``, and ``perf`` writing a scratch baseline with
  ``--update-baseline`` and then gating on it with ``--check``);
* the CI commands that set an environment: a sweep under
  ``REPRO_FASTPATH=0`` and under ``REPRO_DEMAND=0``, and the distributed
  sweep whose first worker dies holding a lease (``chaos_exit_after=1``);
* the two module entry points CI runs: ``python -m repro.obs.validate``
  on the ``trace`` and ``attribute`` outputs, and ``python -m
  repro.scenarios.smoke``;
* every script in ``examples/``, with short arguments;
* the paper checks, ``benchmarks/bench_*.py``, through pytest with
  ``--benchmark-disable`` (pytest collects no file of that name unless
  it is given one);
* ``perfbench/run.py --workload W --seconds 1 --trace 1`` for each
  workload.

Forked children are profiled too: an ``os.register_at_fork`` hook gives
each child its own profiler, and the child writes what it entered to a
scratch file when it leaves through ``os._exit`` (how every
``multiprocessing`` child ends, and how the chaos worker dies) or on
SIGTERM (how ``Pool.terminate`` stops pool workers).  A wait on a
terminated child resends SIGTERM until the child exits, since a Python
handler misses a signal that lands just before a blocking call.  A child
that is SIGKILLed, or a process started by spawn or forkserver, is not
counted.

It then walks ``src/`` with ``ast`` and prints, grouped by file, each
function none of them entered.  A function is matched on its file and
first line, which for a decorated function is its first decorator.  A
never-entered function is also marked ``unreferenced`` when no ``.py``
file under ``src/``, ``perfbench/``, ``benchmarks/`` or ``examples/``
can call it: a module-level function needs its name as a name or an
attribute in code, a method needs it as an attribute (``x.name``,
``Class.name``, a ``getattr`` string or an attribute in an f-string
field).  Names in docstrings, other strings, comments, imports,
``__all__`` and ``def`` lines do not count, nor does a bare name that
only matches a method.  The mark is a hint that nothing outside the
tests can reach the function.

``benchmarks/reach_keep.txt`` is the committed keep list: one
``src/<path>.py:<qualname>  <reason>`` per line (a line that starts
with ``#`` is a comment).  Every never-entered function must be on it
with the reason it stays, or be deleted.  A reason that starts with
``run-dependent:`` marks a path that timing lets some runs enter (a
fleet whose workers all exit before the coordinator's last poll): a run
that enters it is not a stale keep line, so the scan stays deterministic.
Exit status 1 means an entry point failed (the list is printed only
when all of them ran clean), a never-entered function is not on the
keep list, or a keep line has no reason or names no never-entered
function.  A full scan takes about five minutes on a two-core machine.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import runpy
import signal
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Where a name must occur as code (besides its definition) to count as used.
REFERENCE_ROOTS = ("src", "perfbench", "benchmarks", "examples")
KEEP_FILE = ROOT / "benchmarks" / "reach_keep.txt"
#: A keep reason with this prefix names a function some runs enter.
RUN_DEPENDENT = "run-dependent:"
#: Seconds between the SIGTERMs sent to a terminated child that lives on.
RESEND_S = 0.5

SCENARIO = "persona=reader,seed=3,duration=45s"


def cli_commands(work: Path) -> list[list[str]]:
    """Every CLI command, each on an input small enough to run in seconds."""
    from repro.explore.space import builtin_space_names
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
    for governor in builtin_space_names():
        commands.append(
            ["explore", "--scenario", SCENARIO, "--governor", governor,
             "--budget", "2", "--no-cache", "--no-baselines"]
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


def environment_commands(work: Path) -> list[tuple[dict[str, str], list[str]]]:
    """The CI commands that need an environment variable or a chaos knob:
    ``(environment, argv)``."""
    sweep = ["sweep", "--scenario", SCENARIO, "--reps", "1"]
    chaos = (f"distributed:dir={work / 'chaos'},workers=2,lease=2,"
             "chaos_exit_after=1")
    return [
        ({"REPRO_FASTPATH": "0"}, [*sweep, "--no-cache"]),
        ({"REPRO_DEMAND": "0"}, [*sweep, "--no-cache"]),
        ({}, [*sweep, "--config", "fixed:300000", "--config",
              "fixed:652800", "--config", "interactive", "--backend", chaos]),
    ]


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
    A forked child starts over with a profiler of its own (see
    :meth:`_in_child`) and leaves its entered functions in ``children``.
    """

    def __init__(self, children: Path) -> None:
        self.profile = cProfile.Profile
        self.outer = self.profile()
        self.profilers = [self.outer]
        self.children = children
        scan = self

        class Nested(cProfile.Profile):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                scan.profilers.append(self)

            def disable(self) -> None:
                super().disable()
                scan.outer.enable()

        self.nested = Nested
        os.register_at_fork(after_in_child=self._in_child)
        _resend_sigterm_until_reaped()

    def _in_child(self) -> None:
        """Profile this forked child afresh; dump on ``os._exit`` and on
        SIGTERM, since neither runs ``atexit``."""
        sys.setprofile(None)
        self.outer = self.profile()
        self.profilers = [self.outer]
        real_exit = os._exit

        def dump_and_exit(status):
            self.outer.disable()
            fd, path = tempfile.mkstemp(suffix=".txt", dir=self.children)
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.writelines(f"{name}\t{line}\n"
                               for name, line in self._own_entries())
            real_exit(status)

        os._exit = dump_and_exit
        signal.signal(signal.SIGTERM,
                      lambda signum, _frame: dump_and_exit(128 + signum))
        self.outer.enable()

    def _own_entries(self) -> set[tuple[str, int]]:
        found = set()
        for profiler in self.profilers:
            for entry in profiler.getstats():
                if isinstance(entry.code, types.CodeType):
                    found.add((os.path.realpath(entry.code.co_filename),
                               entry.code.co_firstlineno))
        return found

    def entered(self) -> set[tuple[str, int]]:
        """``(file, first line)`` of every function this process or a
        forked child entered."""
        self.outer.disable()
        found = self._own_entries()
        for dump in self.children.glob("*.txt"):
            for row in dump.read_text(encoding="utf-8").splitlines():
                name, line = row.rsplit("\t", 1)
                found.add((name, int(line)))
        return found


def _resend_sigterm_until_reaped() -> None:
    """Make a wait on a terminated forked child resend SIGTERM every
    :data:`RESEND_S` until the child exits or the wait times out.

    The child's SIGTERM handler is Python code, run only at a bytecode
    boundary or when a blocking call is interrupted.  A signal that lands
    between the two, as an idle pool worker goes back to block on the
    task queue's lock, is never handled, and ``Pool.terminate``'s join,
    which has no timeout, would wait for that worker forever."""
    from multiprocessing import popen_fork

    terminate, wait = popen_fork.Popen.terminate, popen_fork.Popen.wait

    def terminate_and_mark(self):
        self.scan_terminated = True
        terminate(self)

    def wait_resending(self, timeout=None):
        if not getattr(self, "scan_terminated", False):
            return wait(self, timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            step = RESEND_S
            if deadline is not None:
                step = max(0.0, min(step, deadline - time.monotonic()))
            code = wait(self, step)
            if code is not None or step < RESEND_S:
                return code
            terminate(self)

    popen_fork.Popen.terminate = terminate_and_mark
    popen_fork.Popen.wait = wait_resending


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


def _with_environment(environment: dict[str, str], call):
    saved = dict(os.environ)
    os.environ.update(environment)
    try:
        return call()
    finally:
        os.environ.clear()
        os.environ.update(saved)


def run_entry_points(scan: _Scan, work: Path) -> list[str]:
    failures = []

    def note(label, call):
        print(f"# reach: {label}", file=sys.stderr, flush=True)
        failure = _run_quietly(label, call)
        if failure:
            failures.append(failure)

    scan.outer.enable()
    from repro.harness import cli

    for argv in cli_commands(work):
        note("repro-qoe " + " ".join(argv), lambda argv=argv: cli.main(argv))
    for environment, argv in environment_commands(work):
        label = " ".join([*(f"{k}={v}" for k, v in environment.items()),
                          "repro-qoe", *argv])
        note(label, lambda environment=environment, argv=argv:
             _with_environment(environment, lambda: cli.main(argv)))
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


def code_references() -> tuple[set[str], set[str]]:
    """``(names, attributes)`` used as code in the reference roots.

    ``names`` holds every bare name.  ``attributes`` holds every
    ``x.name`` and every constant name a ``getattr``, ``hasattr`` or
    ``setattr`` call looks up.  ``ast`` parses an f-string's fields as
    code, so theirs count; other strings, comments, imports, ``__all__``
    and ``def`` lines hold no name node."""
    names: set[str] = set()
    attributes: set[str] = set()
    for root in REFERENCE_ROOTS:
        for path in sorted((ROOT / root).rglob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr", "setattr")
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)
                ):
                    attributes.add(node.args[1].value)
    return names, attributes


def referenced(qualname: str, names: set[str], attributes: set[str]) -> bool:
    """Can code call this function?  A method only through an attribute,
    a module-level function through its name or an attribute."""
    *owner, name = qualname.split(".")
    return name in attributes or (not owner and name in names)


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
    names, attributes = code_references()
    functions = list(src_functions())
    unreached = [
        (path, starts[0], name, lines)
        for path, starts, name, lines in functions
        if not any((os.path.realpath(path), line) in entered for line in starts)
    ]
    marked = {
        (path, first) for path, first, name, _ in unreached
        if not referenced(name, names, attributes)
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
        key = f"{path.relative_to(ROOT)}:{name}"
        flag = "  unreferenced" if (path, first) in marked else ""
        if key in keep:
            kept.add(key)
            flag += "  (kept)"
        else:
            unlisted.append(key)
        print(f"  {first:5d}  {name} ({lines} lines){flag}")
    problems = [f"{key} is never entered and not in {KEEP_FILE.name}"
                for key in unlisted]
    defined = {f"{path.relative_to(ROOT)}:{name}"
               for path, _starts, name, _lines in functions}
    problems += [
        f"{KEEP_FILE.name} lists {key}, which is no never-entered src function"
        for key, reason in keep.items()
        if key not in kept
        and not (key in defined and reason.startswith(RUN_DEPENDENT))
    ]
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    keep, problems = read_keep_list(KEEP_FILE)
    if problems:
        return complain(problems)
    with tempfile.TemporaryDirectory(prefix="reach-") as work:
        children = Path(work) / "children"
        children.mkdir()
        scan = _Scan(children)
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
