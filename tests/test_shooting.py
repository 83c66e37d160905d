"""Bracketing, bisection and the full solve pipeline."""

import dataclasses
import itertools
import math
import types
import warnings

import numpy as np
import pytest

import eternalprofile
from eternalprofile import matching, shooting
from eternalprofile import (
    BracketFailure,
    Classification,
    DomainError,
    bisect_beta,
    bracket_beta,
    make_params,
    solve,
)
from eternalprofile import _dop853
from eternalprofile.shooting import monotonicity_check

#: Frozen fixed points of the matching solve, cross-checked against an
#: independent deep-bisection run; see the unit tests below.
BETA_STAR = {
    (2.0, 0.5, 1): 0.5138348204162287,
    (2.0, 0.5, 3): 0.960620634236639,
    (1.5, 0.5, 2): 0.5000000000001144,
    (1.2, 0.3, 1): 0.14127220063389898,
}
#: xi0 launched from the high-order interface series; on the critical
#: line (1.5, 0.5, 2) it is sqrt(6) to 9e-14.
XI0_STAR = {
    (2.0, 0.5, 1): 3.200862877332823,
    (2.0, 0.5, 3): 4.286460925567619,
    (1.5, 0.5, 2): 2.449489742783395,
    (1.2, 0.3, 1): 1.5208054398587616,
}


def test_bracket_beta_orders_classes():
    p = make_params(2.0, 0.5, 1)
    lo, hi = bracket_beta(p)
    assert 0 < lo < hi
    assert lo < BETA_STAR[(2.0, 0.5, 1)] < hi


def test_bracket_scan_lowers_hi_at_every_a_sample():
    # beta = 1, 0.5 and 0.25 all classify ClassA, 0.125 ClassC
    assert bracket_beta(make_params(1.2, 0.3, 1)) == (0.125, 0.25)


def test_bisect_beta_narrows_to_tolerance():
    p = make_params(2.0, 0.5, 1)
    result = bisect_beta(p, (0.25, 1.0), beta_tol=1e-6)
    rel = (result.bracket_hi - result.bracket_lo) / result.beta_star
    assert rel <= 1e-6
    assert result.beta_star == pytest.approx(
        BETA_STAR[(2.0, 0.5, 1)], rel=1e-6
    )
    assert all(
        cls
        in (
            Classification.CLASS_A,
            Classification.CLASS_C,
            Classification.CANDIDATE_B,
        )
        for _, cls in result.history
    )


def test_bisect_beta_rejects_bad_bracket():
    p = make_params(2.0, 0.5, 1)
    with pytest.raises(DomainError):
        bisect_beta(p, (1.0, 0.25))


def test_bisection_stops_at_the_smallest_beta_tol(monkeypatch):
    # a deterministic stand-in: ClassC below `boundary`, ClassA from it on
    boundary = 1.0 / 3.0
    calls = []

    def step_classify(p, beta, rtol):
        calls.append(beta)
        assert len(calls) < 200, "bisection does not terminate"
        cls = (Classification.CLASS_C if beta < boundary
               else Classification.CLASS_A)
        return types.SimpleNamespace(classification=cls)

    monkeypatch.setattr(shooting, "_classify_at", step_classify)
    tol = shooting.MIN_BETA_TOL
    assert tol == 4 * np.finfo(float).eps
    result = bisect_beta(make_params(2.0, 0.5, 1), (0.25, 1.0), beta_tol=tol)
    assert result.bracket_lo < boundary <= result.bracket_hi
    assert (result.bracket_hi - result.bracket_lo) / result.beta_star <= tol
    lo, hi = shooting._certified_bracket(result.beta_star, tol)
    assert lo < result.beta_star < hi


@pytest.mark.parametrize("entry", [solve, bisect_beta])
@pytest.mark.parametrize("beta_tol", [1e-17, 0.0, float("nan")])
def test_beta_tol_below_double_spacing_raises(monkeypatch, entry, beta_tol):
    def no_integration(*args):
        raise AssertionError("integrated before rejecting beta_tol")

    monkeypatch.setattr(shooting, "_classify_at", no_integration)
    monkeypatch.setattr(shooting, "integrate_profile", no_integration)
    args = (make_params(2.0, 0.5, 1),)
    if entry is bisect_beta:
        args += ((0.25, 1.0),)
    with pytest.raises(DomainError, match="beta_tol"):
        entry(*args, beta_tol=beta_tol)


def test_unbracketable_case_raises_bracket_failure():
    # for beta >= 1 the forward integration stops with a step failure
    # that classifies as Undetermined, so the upward scan runs out
    with pytest.raises(BracketFailure):
        solve(make_params(3.0, 0.5, 1))


def test_undetermined_midpoint_raises_a_bracket_failure_naming_it():
    # the scan brackets (1, 2); the seed bisection's midpoints 1.5 and
    # 1.25 classify ClassA, and 1.125 ends in a step failure that
    # classifies as Undetermined
    p = make_params(2.269, 0.539, 3)
    with pytest.raises(BracketFailure) as info:
        solve(p)
    message = str(info.value)
    assert message.startswith("bisection of [1.0, 1.25]")
    assert "Undetermined at beta=1.125" in message
    assert str(p) in message


@pytest.mark.parametrize("case", sorted(BETA_STAR))
def test_solve_reproduces_frozen_beta_star(solved, case):
    result = solved[case]
    assert result.beta_star == pytest.approx(BETA_STAR[case], rel=1e-9)
    assert result.final_profile.xi0 == pytest.approx(XI0_STAR[case], rel=1e-9)
    assert result.match is not None
    assert result.match.residual < 1e-10


def test_critical_case_beta_star_is_half(solved):
    # on the critical line m + q = 2 the matched exponent lands on 1/2
    # to eleven digits
    assert solved[(1.5, 0.5, 2)].beta_star == pytest.approx(0.5, abs=2e-11)


def test_unseeded_reports_true_bracket(solved):
    for case, result in solved.items():
        assert result.bracket_lo < result.beta_star < result.bracket_hi
        assert result.iterations > 0
        assert len(result.history) == result.iterations


def test_beta_star_str_round_trips(solved):
    result = solved[(2.0, 0.5, 1)]
    assert float(result.beta_star_str) == result.beta_star


def test_solve_has_no_seed_switch():
    # solve always brackets, bisects and matches
    with pytest.raises(TypeError):
        solve(make_params(2.0, 0.5, 1), use_seeds=False)


@pytest.mark.parametrize("case", [(3.0, 0.5, 1), (5.0, 0.1, 4)])
def test_unbracketable_case_fails_without_warning(case):
    # each Undetermined sample is integrated once at the scan's rtol,
    # never below the kernel's rtol floor
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(BracketFailure):
            solve(make_params(*case))


def _count_integrations(monkeypatch):
    betas = []
    integrate = shooting.integrate_profile

    def counting(p, e, *args, **kwargs):
        betas.append(e.beta)
        return integrate(p, e, *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate_profile", counting)
    return betas


def test_bracket_scan_integrates_each_beta_once(monkeypatch):
    betas = _count_integrations(monkeypatch)
    with pytest.raises(BracketFailure):
        bracket_beta(make_params(3.0, 0.5, 1))
    assert len(betas) == shooting.SCAN_EXP_LIMIT + 1
    assert len(set(betas)) == len(betas)


def test_bracket_scan_down_fails_without_class_c(monkeypatch):
    # every beta ClassA: the upward scan stops at beta = 1, and the
    # downward scan meets no ClassC sample from 1/2 down to 2^-(LIMIT+1)
    betas = []

    def class_a(p, e, *args, **kwargs):
        betas.append(e.beta)
        return types.SimpleNamespace(classification=Classification.CLASS_A)

    monkeypatch.setattr(shooting, "integrate_profile", class_a)
    last = shooting.SCAN_EXP_LIMIT + 1
    with pytest.raises(BracketFailure,
                       match=rf"no ClassC sample down to beta = 2\^-{last} "):
        bracket_beta(make_params(2.0, 0.5, 1))
    assert len(betas) == shooting.SCAN_EXP_LIMIT + 2
    assert betas[-1] == 2.0 ** -last


def test_bracket_scan_keeps_its_last_class_c_sample(monkeypatch):
    # beta* > 1: the upward scan meets ClassC at 1 and ClassA at 2, so no
    # downward scan runs and beta = 1 is integrated once
    betas = _count_integrations(monkeypatch)
    assert bracket_beta(make_params(2.0, 0.1, 3)) == (1.0, 2.0)
    assert betas == [1.0, 2.0]


def test_bisection_integrates_each_beta_once(monkeypatch):
    betas = _count_integrations(monkeypatch)
    result = bisect_beta(make_params(2.0, 0.5, 1), (0.25, 1.0), beta_tol=1e-6)
    # one integration per midpoint; the last one is the final profile
    assert len(betas) == result.iterations
    assert len(set(betas)) == len(betas)


@pytest.mark.parametrize("case", sorted(BETA_STAR))
def test_solve_needs_few_forward_integrations(monkeypatch, case):
    # scan, seed bisection and two certification samples; bisecting to
    # COARSE_TOL and seeding xi0 at the caller's rtol took 15-17, and
    # bisecting to beta_tol before matching 29-35
    betas = _count_integrations(monkeypatch)
    calls = _record_classify_rtol(monkeypatch)
    solve(make_params(*case))
    assert len(betas) <= 13
    # nothing before matching runs at the caller's rtol
    before = calls[:calls.index(None)]
    assert {rtol for _, rtol in before} == {shooting.COARSE_TOL**2}


def _record_classify_rtol(monkeypatch):
    """(beta, rtol) of every forward classification, and None at matching."""
    calls = []
    classify, match = shooting._classify_at, shooting.match_profile

    def recording_classify(p, beta, rtol):
        calls.append((beta, rtol))
        return classify(p, beta, rtol)

    def marking_match(*args):
        calls.append(None)
        return match(*args)

    monkeypatch.setattr(shooting, "_classify_at", recording_classify)
    monkeypatch.setattr(shooting, "match_profile", marking_match)
    return calls


def test_coarse_stage_runs_at_coarse_rtol(monkeypatch):
    calls = _record_classify_rtol(monkeypatch)
    result = solve(make_params(2.0, 0.5, 1))
    coarse_rtol = shooting.COARSE_TOL**2
    assert coarse_rtol == pytest.approx(1e-6)
    # scan and seed midpoints, matching, two certifications
    i = calls.index(None)
    coarse, certify = calls[:i], calls[i + 1:]
    assert all(rtol == coarse_rtol for _, rtol in coarse)
    assert certify == [(beta, 1e-10) for beta, _ in result.history[-2:]]
    # the scan precedes the seed midpoints, which open the history
    midpoints = result.history[:-2]
    assert len(coarse) > len(midpoints) > 0
    assert coarse[-len(midpoints):] == [(beta, coarse_rtol)
                                        for beta, _ in midpoints]


def test_xi0_seed_comes_from_the_last_midpoint(monkeypatch):
    # Newton starts at the seed bracket's midpoint, with xi0 from the
    # rescaling family on the seed bisection's last midpoint, run only
    # once; the seed lies within 1 % of the matched xi0
    betas, seeds, guesses = [], [], []
    classify, match, bisect = (
        shooting._classify_at, shooting.match_profile, shooting.bisect_beta
    )

    def recording_classify(p, beta, rtol):
        betas.append(beta)
        return classify(p, beta, rtol)

    def recording_bisect(*args):
        seeds.append(bisect(*args))
        return seeds[-1]

    def recording_match(p, beta, xi0):
        guesses.append((beta, xi0))
        return match(p, beta, xi0)

    monkeypatch.setattr(shooting, "_classify_at", recording_classify)
    monkeypatch.setattr(shooting, "bisect_beta", recording_bisect)
    monkeypatch.setattr(shooting, "match_profile", recording_match)
    for case in sorted(BETA_STAR):
        for calls in (betas, seeds, guesses):
            calls.clear()
        p = make_params(*case)
        result = solve(p)
        [seed] = seeds
        xi0_seed = matching.seed_xi0(
            p, seed.final_profile, shooting.COARSE_TOL**2
        )
        assert guesses == [(seed.beta_star, xi0_seed)], case
        assert xi0_seed == pytest.approx(result.match.xi0, rel=1e-2), case
        last = seed.history[-1][0]
        assert seed.final_profile.exps.beta == last
        assert betas.count(last) == 1
        width = (seed.bracket_hi - seed.bracket_lo) / seed.beta_star
        assert shooting.COARSE_TOL < width <= shooting.SEED_TOL


@pytest.mark.parametrize(
    "case",
    [(1.5, 0.9, 1), (1.5, 0.9, 3), (2.0, 0.7, 3), (2.0, 0.9, 1), (2.0, 0.9, 3)],
)
def test_seed_failure_is_typed_and_ends_before_newton(monkeypatch, case):
    # no root of the seed equation inside the last midpoint's run, or the
    # seed leg's interface launch inside its matching point (q -> 1)
    evals = []
    residuals = matching._residuals

    def recording(p, x, *args):
        evals.append(x)
        return residuals(p, x, *args)

    monkeypatch.setattr(matching, "_residuals", recording)
    with pytest.raises(BracketFailure, match="xi0 seed failed"):
        solve(make_params(*case))
    assert evals == []


def test_matching_failure_is_typed_and_ends_the_solve(monkeypatch):
    # Newton out of evaluations: solve raises before it certifies a
    # bracket, so no classification follows the matching stage
    events = []
    classify, match = shooting._classify_at, shooting.match_profile

    def classifying(*args):
        events.append("classify")
        return classify(*args)

    def matching_stage(*args):
        events.append("match")
        return match(*args)

    monkeypatch.setattr(shooting, "_classify_at", classifying)
    monkeypatch.setattr(shooting, "match_profile", matching_stage)
    monkeypatch.setattr(matching, "MAX_NFEV", 3)
    with pytest.raises(BracketFailure, match=(
        r"^matching stage failed for Params\(m=2\.0, q=0\.5, N=1, "
        r"sigma=1\.0\): residual \d\.\d{3}e-\d\d after 3 evaluations$"
    )):
        solve(make_params(2.0, 0.5, 1))
    # the seed bisection classifies; nothing runs after the one match
    assert events.index("match") == len(events) - 1
    assert "classify" in events


#: beta* of every point of the 50-point grid that solves, as solved
#: before the xi0 seed came from the rescaling family.  Newton's start
#: moves its last half digit: 4.5e-13 relative at (1.1, 0.3, 1).
GRID_BETA_STAR = {
    (1.1, 0.1, 1): 0.09019105592003064,
    (1.1, 0.1, 3): 0.3429052632098644,
    (1.1, 0.3, 1): 0.08221130607234914,
    (1.1, 0.3, 3): 0.3112018930088174,
    (1.1, 0.5, 1): 0.07288966789770271,
    (1.1, 0.5, 3): 0.27303452667589245,
    (1.1, 0.7, 1): 0.06187747730750465,
    (1.1, 0.7, 3): 0.22379922913503877,
    (1.1, 0.9, 1): 0.051176631571925986,
    (1.1, 0.9, 3): 0.14670289407653353,
    (1.5, 0.1, 1): 0.32153967698599717,
    (1.5, 0.1, 3): 0.9400739896969865,
    (1.5, 0.3, 1): 0.29567590133043103,
    (1.5, 0.3, 3): 0.821188129058239,
    (1.5, 0.5, 1): 0.2738612787526347,
    (1.5, 0.5, 3): 0.6943650748294654,
    (1.5, 0.7, 1): 0.25891488328290724,
    (1.5, 0.7, 3): 0.5498385854090255,
    (2.0, 0.1, 1): 0.561426096747833,
    (2.0, 0.1, 3): 1.2678110954057307,
    (2.0, 0.3, 1): 0.534075218702576,
    (2.0, 0.3, 3): 1.1176635904000374,
    (2.0, 0.5, 1): 0.5138348204162319,
    (2.0, 0.5, 3): 0.9606206342366391,
    (2.0, 0.7, 1): 0.5027408250733805,
}


def test_grid_points_solve_or_fail_with_a_bracket_failure():
    # m in {1.1, 1.5, 2, 3, 5}, q in {0.1, 0.3, 0.5, 0.7, 0.9}, N in {1, 3}
    solved = {}
    for case in itertools.product(
        (1.1, 1.5, 2.0, 3.0, 5.0), (0.1, 0.3, 0.5, 0.7, 0.9), (1, 3)
    ):
        try:
            result = solve(make_params(*case))
        except BracketFailure:
            continue
        assert result.bracket_lo < result.beta_star < result.bracket_hi, case
        solved[case] = result.beta_star
    assert solved.keys() == GRID_BETA_STAR.keys()
    for case, beta_star in solved.items():
        assert beta_star == pytest.approx(GRID_BETA_STAR[case], rel=1e-12), case


def test_caller_rtol_above_coarse_rtol_runs_everywhere(monkeypatch):
    calls = _record_classify_rtol(monkeypatch)
    solve(make_params(2.0, 0.5, 1), rtol=1e-5)
    rtols = {call[1] for call in calls if call is not None}
    assert rtols == {1e-5}


def test_matched_beta_star_ignores_caller_rtol_up_to_coarse_rtol():
    # everything before matching runs at the coarse rtol, so the caller's
    # rtol changes only the certification samples
    p = make_params(1.2, 0.3, 1)
    betas = {solve(p, rtol=rtol).beta_star
             for rtol in (shooting.COARSE_TOL**2, 1e-8, 1e-12)}
    assert len(betas) == 1


def _coarse_stage(p, rtol):
    bracket = bracket_beta(p, rtol)
    return bracket, bisect_beta(p, bracket, shooting.COARSE_TOL, rtol).history


@pytest.mark.parametrize(
    "case", sorted(BETA_STAR) + [(1.3, 0.7, 1), (1.202, 0.202, 1)]
)
def test_coarse_rtol_keeps_the_coarse_history(case):
    # a decade of margin: 10x the coarse rtol still classifies alike
    p = make_params(*case)
    exact = _coarse_stage(p, 1e-10)
    for rtol in (shooting.COARSE_TOL**2, 10 * shooting.COARSE_TOL**2):
        assert _coarse_stage(p, rtol) == exact


def test_coarse_rtol_saves_trial_steps(monkeypatch):
    # every trial step of a run goes through the step that step_for picks
    steps = []
    step_for = _dop853.step_for

    def counting_step_for(fun):
        trial = step_for(fun)

        def counting(*args):
            steps.append(None)
            return trial(*args)

        return counting

    monkeypatch.setattr(_dop853, "step_for", counting_step_for)
    counts = []
    for rtol in (1e-10, shooting.COARSE_TOL**2):
        steps.clear()
        _coarse_stage(make_params(1.5, 0.5, 2), rtol)
        counts.append(len(steps))
    assert counts[0] > 0
    assert counts[1] <= 0.6 * counts[0]


@pytest.mark.parametrize("case", [(1.26, 0.24, 2), (1.3, 0.2, 3), (1.21, 0.21, 1)])
def test_certified_bracket_contains_matched_beta_star(case):
    # a bracket bisected before matching excluded the matched beta* here
    result = solve(make_params(*case))
    assert result.bracket_lo < result.beta_star < result.bracket_hi
    assert (result.bracket_hi - result.bracket_lo) / result.beta_star <= 1e-8
    assert len(result.history) == result.iterations


def test_certified_bracket_width_is_exact():
    rng = np.random.default_rng(7)
    for beta in rng.uniform(0.01, 10.0, 2000):
        for tol in (1e-8, 1e-10, 3e-6):
            lo, hi = shooting._certified_bracket(beta, tol)
            assert lo < beta < hi
            assert (hi - lo) / beta <= tol


def _watch_certification(monkeypatch, override=lambda n, sol: sol):
    """Record the bisections and the certification samples, the betas
    classified after matching outside a bisection; ``override(n, sol)``
    may replace the n-th of those samples."""
    samples, bisections, matched, bisecting = [], [], [], []
    classify, match, bisect = (
        shooting._classify_at, shooting.match_profile, shooting.bisect_beta
    )

    def watching_classify(p, beta, rtol):
        sol = classify(p, beta, rtol)
        if matched and not bisecting:
            sol = override(len(samples), sol)
            samples.append(beta)
        return sol

    def marking_match(*args):
        matched.append(match(*args))
        return matched[-1]

    def recording_bisect(p, bracket, beta_tol, rtol):
        bisecting.append(bracket)
        try:
            result = bisect(p, bracket, beta_tol, rtol)
        finally:
            bisecting.pop()
        bisections.append((beta_tol, rtol, result))
        return result

    monkeypatch.setattr(shooting, "_classify_at", watching_classify)
    monkeypatch.setattr(shooting, "match_profile", marking_match)
    monkeypatch.setattr(shooting, "bisect_beta", recording_bisect)
    return samples, bisections


def _reclassified(cls):
    return lambda sol: dataclasses.replace(sol, classification=cls)


@pytest.mark.parametrize("side", [0, 1])
def test_failed_certification_widens_its_end(monkeypatch, solved, side):
    case = (1.2, 0.3, 1)
    # the wrong class on the low (0) or the high (1) certification end
    wrong = _reclassified(
        (Classification.CLASS_A, Classification.CLASS_C)[side]
    )
    samples, bisections = _watch_certification(
        monkeypatch, lambda n, sol: wrong(sol) if n == side else sol
    )
    result = solve(make_params(*case))
    beta = result.beta_star
    assert beta == solved[case].beta_star
    # the seed bisection is the only bisection
    [(tol, rtol, coarse)] = bisections
    assert tol == shooting.SEED_TOL
    assert rtol == shooting.COARSE_TOL**2
    # the failed end is classified again at twice its offset, and the
    # other end certifies on its first sample
    lo, hi = shooting._certified_bracket(beta, 1e-8)
    flipped = (lo, hi)[side]
    assert samples[:side + 1] == [lo, hi][:side + 1]
    assert samples[side + 1] == beta + 2.0 * (flipped - beta)
    assert len(samples) == 3
    kept = samples[:side] + samples[side + 1:]
    assert (result.bracket_lo, result.bracket_hi) == tuple(kept)
    assert result.bracket_lo < beta < result.bracket_hi
    assert (result.bracket_hi - result.bracket_lo) / beta == pytest.approx(
        1.5e-8, rel=1e-6
    )
    assert len(result.history) == result.iterations
    assert result.iterations == coarse.iterations + len(samples)


def test_undetermined_end_stops_at_the_coarse_bracket(monkeypatch):
    # every certification sample after the low end's first is forced
    # Undetermined; the bisection continued for the cap is left alone
    p = make_params(1.2, 0.3, 1)
    rtol = shooting.COARSE_TOL**2
    whole = bisect_beta(p, bracket_beta(p, rtol), shooting.COARSE_TOL, rtol)
    undetermined = _reclassified(Classification.UNDETERMINED)
    samples, bisections = _watch_certification(
        monkeypatch, lambda n, sol: undetermined(sol) if n >= 1 else sol
    )
    result = solve(p)
    beta = result.beta_star
    [(seed_tol, seed_rtol, seed), (tol, rest_rtol, coarse)] = bisections
    assert (seed_tol, tol) == (shooting.SEED_TOL, shooting.COARSE_TOL)
    assert seed_rtol == rest_rtol == rtol
    # the continued bisection runs the midpoints and ends at the bracket
    # of one bisection from the scan bracket to COARSE_TOL
    assert seed.history + coarse.history == whole.history
    assert (coarse.bracket_lo, coarse.bracket_hi) == (
        whole.bracket_lo, whole.bracket_hi)
    assert result.bracket_lo == samples[0] < beta
    assert result.bracket_hi == coarse.bracket_hi
    # the high end doubles its offset until the next doubling would
    # reach the coarse end, which is not classified again; only then is
    # the bisection continued
    offsets = [s - beta for s in samples[1:]]
    for small, large in zip(offsets, offsets[1:]):
        assert large / small == pytest.approx(2.0, rel=1e-6)
    cap = coarse.bracket_hi - beta
    assert offsets[-1] < cap <= 2.0 * offsets[-1]
    assert len(offsets) == math.ceil(math.log2(cap / offsets[0])) <= 20
    assert result.history == (
        seed.history + [(samples[0], Classification.CLASS_C)]
        + [(s, Classification.UNDETERMINED) for s in samples[1:]]
        + coarse.history
    )
    assert result.iterations == (
        seed.iterations + coarse.iterations + len(samples)
    )


def test_matched_beta_outside_coarse_bracket_raises(monkeypatch):
    samples, bisections = _watch_certification(monkeypatch)
    match = shooting.match_profile

    def shifted_match(*args):
        [(_, _, coarse)] = bisections
        matched = match(*args)
        return dataclasses.replace(matched, beta_star=1.1 * coarse.bracket_hi)

    monkeypatch.setattr(shooting, "match_profile", shifted_match)
    with pytest.raises(BracketFailure, match="outside the coarse bracket"):
        solve(make_params(1.2, 0.3, 1))
    # the low end, above the true beta*, crosses zero: one sample
    assert len(samples) == 1


def _half_on_a_side(monkeypatch):
    """(1.5, 0.5, 2), with its scan point beta = 1/2 read on the A side,
    as a scan at rtol 1e-4 reads it."""
    classify = shooting._classify_at

    def half_on_a_side(p, beta, rtol):
        sol = classify(p, beta, rtol)
        if beta == 0.5:
            return dataclasses.replace(
                sol, classification=Classification.CANDIDATE_B)
        return sol

    monkeypatch.setattr(shooting, "_classify_at", half_on_a_side)
    return make_params(1.5, 0.5, 2)


def test_beta_star_a_hair_outside_the_coarse_bracket_widens(monkeypatch):
    # beta* = 1/2 is a scan point of (1.5, 0.5, 2), and the matched beta*
    # lies 2.3e-13 above it.  With 1/2 on the A side and the low end's
    # first sample ClassA, the low end widens instead of raising, although
    # beta* lies above the coarse bracket
    p = _half_on_a_side(monkeypatch)
    wrong = _reclassified(Classification.CLASS_A)
    samples, bisections = _watch_certification(
        monkeypatch, lambda n, sol: wrong(sol) if n == 0 else sol
    )
    result = solve(p)
    beta = result.beta_star
    [(_, _, seed)] = bisections
    assert seed.bracket_hi == 0.5 < beta < 0.5 * (1 + 1e-12)
    lo, hi = shooting._certified_bracket(beta, 1e-8)
    assert samples == [lo, beta + 2.0 * (lo - beta), hi]
    assert (result.bracket_lo, result.bracket_hi) == (samples[1], hi)
    assert result.bracket_lo < beta < result.bracket_hi
    assert result.iterations == seed.iterations + len(samples)


def test_cap_on_the_far_side_of_beta_star_raises(monkeypatch):
    # the same coarse bracket, but the high end stays ClassC: its cap 1/2
    # lies below beta*, so it cannot end a bracket around beta*
    p = _half_on_a_side(monkeypatch)
    wrong = _reclassified(Classification.CLASS_C)
    samples, bisections = _watch_certification(
        monkeypatch, lambda n, sol: wrong(sol) if n >= 1 else sol
    )
    with pytest.raises(BracketFailure, match=r"outside the coarse bracket"):
        solve(p)
    # the first doubling reaches the cap, 1.2e-13 away: one high sample,
    # then the bisection continued to the coarse bracket
    assert len(samples) == 2
    assert [tol for tol, _, _ in bisections] == [
        shooting.SEED_TOL, shooting.COARSE_TOL]
    assert bisections[1][2].bracket_hi == 0.5


@pytest.mark.parametrize(
    "case",
    [(1.202, 0.202, 1), (1.1, 0.1, 1), (1.1, 0.3, 3), (2.12, 0.462, 3),
     (2.259, 0.115, 2)],
)
def test_widened_bracket_contains_matched_beta(case):
    # an end grazes or is Undetermined at beta*(1 -+ beta_tol/2); the
    # last two raised before certification widened its ends
    result = solve(make_params(*case))
    assert result.bracket_lo < result.beta_star < result.bracket_hi
    assert len(result.history) == result.iterations


@pytest.mark.parametrize(
    "case, width",
    [((2.259, 0.115, 2), 3.4768976e-4), ((2.287, 0.364, 2), 6.5047635e-4),
     ((1.202, 0.202, 1), 1.5e-8), ((1.1, 0.1, 1), 1.65e-7),
     ((1.1, 0.3, 3), 2.5e-8), ((2.12, 0.462, 3), 8.5e-8)],
)
def test_widened_bracket_keeps_its_width(case, width):
    # widths of the brackets that a bisection to COARSE_TOL before
    # matching gave; the first two end at the coarse bracket, which a
    # seed bracket 10x wider would leave 6.6e-3 wide at (2.287, 0.364, 2)
    result = solve(make_params(*case))
    assert (result.bracket_hi - result.bracket_lo) / result.beta_star == (
        pytest.approx(width, rel=1e-6))


@pytest.mark.parametrize("beta_tol", [1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("case", sorted(BETA_STAR))
def test_bracket_contains_matched_beta_at_tight_beta_tol(case, beta_tol):
    result = solve(make_params(*case), beta_tol=beta_tol)
    assert result.bracket_lo < result.beta_star < result.bracket_hi
    assert len(result.history) == result.iterations


@pytest.mark.parametrize("kwarg", ["tol", "match_opts", "opts"])
def test_solve_has_no_tolerance_records(kwarg):
    with pytest.raises(TypeError):
        solve(make_params(2.0, 0.5, 1), **{kwarg: None})


def test_option_records_are_not_exported():
    for name in ("ClassifyTolerances", "IntegratorOptions", "MatchOptions"):
        assert name not in eternalprofile.__all__
        assert not hasattr(eternalprofile, name)


def test_monotonicity_in_beta():
    p = make_params(2.0, 0.5, 1)
    rep = monotonicity_check(p, 0.5, 1.0)
    assert rep.passed
    assert rep.min_gap >= -1e-9
    assert len(rep.xi_grid) == 200
    with pytest.raises(DomainError):
        monotonicity_check(p, 1.0, 0.5)


def test_bisection_within_tolerance_classifies_the_midpoint_once(monkeypatch):
    betas = _count_integrations(monkeypatch)
    lo = 0.5
    hi = lo * (1.0 + 0.5 * shooting.BETA_TOL)
    result = bisect_beta(make_params(2.0, 0.5, 1), (lo, hi))
    assert result.iterations == 0
    assert betas == [0.5 * (lo + hi)] == [result.beta_star]
    assert (result.bracket_lo, result.bracket_hi) == (lo, hi)
