"""The work a solve does, stage by stage, counted and pinned.

``work_ledger.json`` holds, for seven solves, the counts of each stage:
DOP853 trial steps, the accepted steps and right-hand-side calls
(``nfev``) of its runs, forward classifications, residual evaluations
and interface-series builds.  The assembly makes no run: its trial
steps are the long steps of the tight legs taken again in halves, and
the right-hand-side calls of those and of the interpolants it reads are
in no ``nfev``.  The counts are exact, since every CPU gives the same
bits, so a change that moves one shows in the diff of the ledger.  To
rewrite it after a change that means to move them:

    PYTHONPATH=src python tests/test_work_ledger.py
"""

import json
from pathlib import Path

import pytest

from eternalprofile import _dop853, integrate, make_params, matching
from eternalprofile import shooting

LEDGER = Path(__file__).resolve().parent / "work_ledger.json"

#: The reference cases, a q = 0.7 case and two benchmark levels: critical
#: (1.54, 0.46, 2) and super-critical (1.81, 0.5, 2).
CASES = [(2.0, 0.5, 1), (2.0, 0.5, 3), (1.5, 0.5, 2), (1.2, 0.3, 1),
         (2.0, 0.7, 1), (1.54, 0.46, 2), (1.81, 0.5, 2)]

STAGES = ["scan", "seed bisection", "xi0 seed", "loose Newton",
          "tight Newton", "certification", "assembly"]

COUNTS = ["trial_steps", "accepted_steps", "rhs_calls", "classifications",
          "residual_evals", "series_builds"]


def work_ledger(case, mp):
    """{stage: {count: n}} of one solve of ``case``, counted through
    wrappers that ``mp``, a MonkeyPatch, installs.  A stage is the
    innermost wrapped call running; the classifications after the
    matching stage, and a second bisection, are certification."""
    ledger = {stage: dict.fromkeys(COUNTS, 0) for stage in STAGES}
    stack = []
    bisections = []

    def count(name, n=1):
        ledger[stack[-1]][name] += n

    def staged(module, attr, stage):
        fn = getattr(module, attr)

        def run(*args, **kwargs):
            stack.append(stage(*args, **kwargs) if callable(stage) else stage)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        mp.setattr(module, attr, run)

    def counted(module, attr, name, n=lambda out: 1):
        fn = getattr(module, attr)

        def run(*args, **kwargs):
            out = fn(*args, **kwargs)
            count(name, n(out))
            return out

        mp.setattr(module, attr, run)

    def bisection(*args, **kwargs):
        bisections.append(args)
        return "seed bisection" if len(bisections) == 1 else "certification"

    def newton_stage(p, x, rtol=matching.RTOL, *args):
        return "tight Newton" if rtol == matching.RTOL else "loose Newton"

    def matched(*args):
        out = match(*args)
        stack[0] = "certification"
        return out

    stack.append(None)
    match = shooting.match_profile
    mp.setattr(shooting, "match_profile", matched)
    staged(shooting, "bracket_beta", "scan")
    staged(shooting, "bisect_beta", bisection)
    staged(shooting, "seed_xi0", "xi0 seed")
    counted(matching, "_residuals", "residual_evals")
    staged(matching, "_residuals", newton_stage)
    staged(matching, "_assemble_profile", "assembly")
    counted(shooting, "_classify_at", "classifications")
    counted(matching, "InterfaceSeries", "series_builds")
    for module in (integrate, matching):
        counted(module, "solve_ivp", "accepted_steps", lambda sol: len(sol.t) - 1)
        counted(module, "solve_ivp", "rhs_calls", lambda sol: sol.nfev)
    step_for = _dop853.step_for

    def counting_step_for(fun):
        step = step_for(fun)

        def trial(*args):
            count("trial_steps")
            return step(*args)

        return trial

    mp.setattr(_dop853, "step_for", counting_step_for)
    shooting.solve(make_params(*case))
    return ledger


def compute():
    out = {}
    for case in CASES:
        with pytest.MonkeyPatch.context() as mp:
            out[repr(case)] = work_ledger(case, mp)
    return out


def test_work_ledger_is_exact():
    assert compute() == json.loads(LEDGER.read_text(encoding="utf-8"))


def test_ledger_counts_every_stage_of_a_solve():
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    for case, stages in ledger.items():
        assert list(stages) == STAGES, case
        # one series for the xi0 seed, one per loose evaluation and one per
        # tight evaluation but the tightening, which reuses its loose one
        assert stages["xi0 seed"]["series_builds"] == 1, case
        for stage in ("loose Newton", "tight Newton"):
            assert stages[stage]["classifications"] == 0, case
        assert (stages["loose Newton"]["series_builds"]
                == stages["loose Newton"]["residual_evals"]), case
        assert (stages["tight Newton"]["series_builds"]
                == stages["tight Newton"]["residual_evals"] - 1), case
        assembly = dict(stages["assembly"], trial_steps=0)
        assert assembly == dict.fromkeys(COUNTS, 0), case


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
