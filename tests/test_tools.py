"""The scripts under tools/."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("runs", ["1", "0"])
def test_fresh_process_times_refuses_fewer_than_two_runs(monkeypatch, runs):
    # the quartiles of a measurement need two samples; the tool must say so
    # before it starts a child, not crash after the first measurement
    tool = load("fresh_process_times")

    def no_child(*args, **kwargs):
        raise AssertionError("a child process started")

    monkeypatch.setattr(tool.subprocess, "run", no_child)
    with pytest.raises(SystemExit) as refused:
        tool.main(["HEAD=.", "--runs", runs])
    assert refused.value.code == 2


def test_bits_census_lines_and_digest():
    tool = load("bits_census")
    lines = tool.census([(2.0, 0.5, 1), (3.0, 0.5, 1)])
    assert len(lines) == 3
    solved, failed, digest = lines
    assert solved.startswith("(2.0, 0.5, 1) beta=0x1.")
    assert "nfev=" in solved and "iterations=" in solved
    assert failed == "(3.0, 0.5, 1) BracketFailure"
    assert digest.startswith("sha256 ") and len(digest) == 7 + 64
    assert tool.census([(2.0, 0.5, 1), (3.0, 0.5, 1)]) == lines


def test_bits_census_reads_the_benchmark_levels():
    # 12 super-critical, 21 critical and 6 sub-critical levels
    levels = load("bits_census").benchmark_levels()
    assert len(levels) == 39
    assert levels[0] == (1.6, 0.5, 1)
