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
