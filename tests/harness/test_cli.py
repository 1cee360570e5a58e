"""Tests for the command-line interface."""

import pytest

from repro.harness.cli import build_parser, main


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Logo Quiz game." in out


def test_classify_command(capsys):
    assert main(["classify", "--datasets", "03"]) == 0
    out = capsys.readouterr().out
    assert "Spurious lags" in out


def test_sweep_command_small(capsys):
    assert main(["sweep", "--dataset", "03", "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 12" in out
    assert "oracle" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_defaults():
    args = build_parser().parse_args(["sweep"])
    assert args.dataset == "02"
    assert args.reps == 5
    assert args.jobs == 1
    assert args.no_cache is False
    assert args.master_seed is None


def test_parser_fleet_flags():
    args = build_parser().parse_args(
        ["study", "--jobs", "8", "--no-cache", "--master-seed", "7",
         "--cache-dir", "/tmp/x"]
    )
    assert args.jobs == 8
    assert args.no_cache is True
    assert args.master_seed == 7
    assert args.cache_dir == "/tmp/x"


def test_sweep_parallel_then_warm_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["sweep", "--dataset", "03", "--reps", "1",
            "--jobs", "2", "--cache-dir", cache_dir]
    assert main(argv) == 0
    captured = capsys.readouterr()
    out = captured.out
    # Timing and cache telemetry live on stderr so stdout stays
    # bit-identical across --jobs values and warm re-runs.
    assert "cache: 0 hits, 17 misses: 17 absent (" in captured.err
    assert "cache:" not in out
    assert "s wall" not in out

    # Warm re-run: every completed cell is served from the cache and
    # stdout is bit-identical to the cold run.
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert f"cache: 17 hits, 0 misses ({cache_dir})" in captured.err
    assert captured.out == out


def test_sweep_verbose_progress_shows_counts(tmp_path, capsys):
    argv = ["sweep", "--dataset", "03", "--reps", "1", "--no-cache",
            "--verbose"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert "(config 1/17, rep 1/1)" in err
    assert "17/17 runs" in err
