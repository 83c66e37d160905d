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

from eternalprofile import asymptotics, integrate, make_params, matching, shooting

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


def _record(monkeypatch, targets, module, name, calls):
    """Rebind module.name to a wrapper that appends its name to calls."""
    assert (module.__name__, name) in {t[:2] for t in targets}
    fn = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append((module.__name__, name))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)


@pytest.mark.parametrize(
    "name", ["bracket_beta", "bisect_beta", "integrate_profile", "match_profile"]
)
def test_solve_calls_through_shooting_globals(targets, monkeypatch, name):
    calls = []
    _record(monkeypatch, targets, shooting, name, calls)
    shooting.solve(make_params(1.2, 0.3, 1))
    assert calls, f"shooting.solve never called shooting.{name}"


def test_solve_calls_the_integrator_through_both_bindings(targets, monkeypatch):
    calls = []
    for module in (integrate, matching):
        _record(monkeypatch, targets, module, "solve_ivp", calls)
    shooting.solve(make_params(1.2, 0.3, 1))
    for module in (integrate, matching):
        assert (module.__name__, "solve_ivp") in calls, module.__name__


def test_fit_interface_calls_through_interface_samples(
    targets, monkeypatch, solved
):
    calls = []
    _record(monkeypatch, targets, matching, "interface_samples", calls)
    asymptotics.fit_interface(solved[(2.0, 0.5, 1)].final_profile)
    assert calls == [("eternalprofile.matching", "interface_samples")]


@pytest.mark.parametrize("case", [(2.0, 0.5, 1), (1.2, 0.3, 1)])
def test_matching_legs_show_their_direction_in_the_call(
    targets, monkeypatch, case
):
    # the tracer tells the forward leg, the backward leg and the dense
    # assemble apart by t_span, the second positional argument, and by the
    # dense_output keyword; every residual runs one leg of each direction
    assert ("eternalprofile.matching", "solve_ivp") in {t[:2] for t in targets}
    calls = []
    fn = matching.solve_ivp

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(matching, "solve_ivp", recording)
    shooting.solve(make_params(*case))
    assert calls
    directions = []
    for args, kwargs in calls:
        assert len(args) >= 2 and "t_span" not in kwargs
        assert "dense_output" in kwargs
        t0, t1 = args[1]
        directions.append(t1 > t0)
    assert directions.count(True) == directions.count(False)
