"""Tests for benchmarks/reach.py's reference rule and keep-list gate.

The scan itself runs every entry point for minutes; these tests drive
its parts on a throwaway tree: what counts as a code reference, how the
keep file is read, which never-entered functions the gate reports, and
the SIGTERM resend that keeps a join on a profiled child from hanging.
"""

import importlib.util
import multiprocessing
import os
import signal
import threading
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "reach.py"


@pytest.fixture
def reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(reach, tmp_path, monkeypatch):
    """A repository root holding ``src/repro`` and one reference root."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "PACKAGE", package)
    monkeypatch.setattr(reach, "REFERENCE_ROOTS", ("src", "examples"))
    return tmp_path


def test_method_counts_only_through_an_attribute(reach):
    assert not reach.referenced("Rect.union", {"union"}, set())
    assert reach.referenced("Rect.union", set(), {"union"})


def test_module_function_counts_by_name_or_attribute(reach):
    assert reach.referenced("persona", {"persona"}, set())
    assert reach.referenced("persona", set(), {"persona"})
    assert not reach.referenced("persona", set(), set())


def test_code_references_read_code_not_text(reach, tree):
    (tree / "examples" / "use.py").write_text(
        '"""Mentions union and pending in prose."""\n'
        "from repro.trace import first_divergence\n"
        '__all__ = ["buffer"]\n'
        "# series is only a comment\n"
        "def finished():\n"
        "    return helper(shape.offset(1))\n"
        'value = getattr(profile, "window")\n'
        'line = f"{stats.jank_ratio:.2f}"\n'
    )
    names, attributes = reach.code_references()
    assert {"offset", "window", "jank_ratio"} <= attributes
    assert "helper" in names
    for word in ("union", "pending", "first_divergence", "buffer", "series",
                 "finished"):
        assert word not in names | attributes


def test_keep_list_needs_one_reason_per_function(reach, tmp_path):
    keep_file = tmp_path / "keep.txt"
    keep_file.write_text(
        "# a comment\n"
        "\n"
        "src/repro/a.py:f  error path: raised on a bad input\n"
        "src/repro/a.py:g\n"
        "src/repro/a.py:f  listed again\n"
    )
    keep, problems = reach.read_keep_list(keep_file)
    assert keep == {"src/repro/a.py:f": "error path: raised on a bad input"}
    assert problems == [
        "keep.txt:4: src/repro/a.py:g has no reason",
        "keep.txt:5: src/repro/a.py:f is listed twice",
    ]


MODULE = """\
def used():
    return racy()


def dead():
    pass


def racy():
    pass


class Shape:
    def kept(self):
        pass
"""


def _entered(tree, *lines):
    path = os.path.realpath(tree / "src" / "repro" / "mod.py")
    return {(path, line) for line in lines}


def test_gate_reports_unlisted_and_stale_lines(reach, tree, capsys):
    (tree / "src" / "repro" / "mod.py").write_text(MODULE)
    keep = {
        "src/repro/mod.py:Shape.kept": "protocol method",
        "src/repro/mod.py:used": "stale: this run enters it",
        "src/repro/mod.py:gone": "deleted since",
    }
    problems = reach.report(_entered(tree, 1, 9), keep)
    assert sorted(problems) == [
        "reach_keep.txt lists src/repro/mod.py:gone, which is no "
        "never-entered src function",
        "reach_keep.txt lists src/repro/mod.py:used, which is no "
        "never-entered src function",
        "src/repro/mod.py:dead is never entered and not in reach_keep.txt",
    ]
    out = capsys.readouterr().out
    assert "4 src functions, 2 never entered" in out
    assert "Shape.kept (2 lines)  unreferenced  (kept)" in out


def test_run_dependent_line_may_be_entered_or_not(reach, tree, capsys):
    (tree / "src" / "repro" / "mod.py").write_text(MODULE)
    keep = {
        "src/repro/mod.py:dead": "error path",
        "src/repro/mod.py:Shape.kept": "protocol method",
        "src/repro/mod.py:racy": "run-dependent: timing decides",
    }
    assert reach.report(_entered(tree, 1, 9), keep) == []
    assert reach.report(_entered(tree, 1), keep) == []
    del keep["src/repro/mod.py:dead"]
    keep["src/repro/mod.py:gone"] = "run-dependent: deleted since"
    assert reach.report(_entered(tree, 1, 5, 9), keep) == [
        "reach_keep.txt lists src/repro/mod.py:gone, which is no "
        "never-entered src function",
    ]


def _deaf_to_one_sigterm(ready):
    """Miss the first SIGTERM, as a handler does when the signal lands
    just before a blocking call; exit on the second."""
    missed = []

    def handler(_signum, _frame):
        if missed:
            os._exit(3)
        missed.append(True)

    signal.signal(signal.SIGTERM, handler)
    ready.set()
    threading.Event().wait()


def test_terminated_child_is_signalled_until_it_exits(reach, monkeypatch):
    from multiprocessing import popen_fork

    for name in ("terminate", "wait"):
        monkeypatch.setattr(popen_fork.Popen, name, getattr(popen_fork.Popen, name))
    monkeypatch.setattr(reach, "RESEND_S", 0.05)
    reach._resend_sigterm_until_reaped()
    context = multiprocessing.get_context("fork")
    ready = context.Event()
    child = context.Process(target=_deaf_to_one_sigterm, args=(ready,))
    child.start()
    try:
        assert ready.wait(10)
        child.terminate()
        child.join(timeout=10)
        assert child.exitcode == 3
    finally:
        child.kill()
        child.join()
