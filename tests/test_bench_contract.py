"""The benchmark's tracer must still find every name it wraps.

``perfbench/spans.py`` records per-layer metrics by rebinding package
functions at the names through which the package calls them.  A
refactor that renames one of them, or stops calling it through that
name, would silently empty those metrics; these tests fail instead.
They only read ``perfbench/``.
"""

import importlib
from pathlib import Path

import pytest

from eternalprofile import make_params, shooting

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans").TARGETS


def test_every_traced_name_resolves(targets):
    assert targets
    for mod_name, attr, layer in targets:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr} ({layer}) is gone"


@pytest.mark.parametrize(
    "name", ["bracket_beta", "bisect_beta", "integrate_profile", "match_profile"]
)
def test_solve_calls_through_shooting_globals(targets, monkeypatch, name):
    assert ("eternalprofile.shooting", name) in {t[:2] for t in targets}
    calls = []
    fn = getattr(shooting, name)

    def recording(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(shooting, name, recording)
    shooting.solve(make_params(1.2, 0.3, 1))
    assert calls, f"shooting.solve never called shooting.{name}"
