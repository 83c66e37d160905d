"""Two-sided matching: convergence, tangency, and deep interface samples."""

import numpy as np
import pytest

from eternalprofile import (
    BracketFailure,
    Classification,
    StopReason,
    exponents_from_beta,
    make_params,
    match_profile,
    predict_expansion,
    solve,
)
from eternalprofile import equation, matching, shooting
from eternalprofile._dop853 import halve_long_steps, solve_ivp
from eternalprofile.equation import (
    InterfaceSeries,
    launch_distance,
    log_grid,
    origin_series,
    profile_rhs,
)
from eternalprofile.matching import (
    ATOL,
    DELTA0,
    LOOSE_FD_REL_STEP,
    LOOSE_RTOL,
    MAX_STEP_FRAC,
    MID_FRAC,
    RTOL,
    TAIL_F,
    XTOL,
    _newton,
    _residuals,
    _solve_2x2,
    interface_samples,
)

from conftest import CASES


def test_match_from_rough_guess():
    # the matching solve needs only a few-percent-accurate guess
    p = make_params(2.0, 0.5, 1)
    result = match_profile(p, 0.52, 3.25)
    assert result.success
    assert result.residual < 1e-10
    assert result.beta_star == pytest.approx(0.5138348204162287, rel=1e-9)
    assert result.xi0 == pytest.approx(3.200862877332823, rel=1e-9)


def test_match_failure_reported_not_raised():
    p = make_params(2.0, 0.5, 1)
    result = match_profile(p, 50.0, 0.05)
    assert not result.success
    assert result.profile is None


@pytest.mark.parametrize("x", [(50.0, 3.2), (0.51, 1e-3), (1e6, 1e3)])
def test_far_off_trial_returns_sentinel(x):
    # far-off Newton trials end in a step-size underflow of the forward
    # leg or an interface launch inside the matching point; both give the
    # sentinel, never an exception
    p = make_params(2.0, 0.5, 1)
    assert _residuals(p, x) is None


@pytest.mark.parametrize("case, x", [
    (case, x) for case in [(1.6, 0.5, 1), (1.63, 0.5, 2), (1.5, 0.7, 1),
                           (1.5, 0.5, 2)]
    for x in [(0.51, 1e-3), (5.0, 1e-3)]
] + [((1.5, 0.7, 1), (0.3, 1e-2))])
def test_far_off_trial_of_a_truncated_series_returns_sentinel(case, x):
    # the truncated series searched at these trials launches where its g
    # is negative or not finite: no profile, so the leg fails, where it
    # once took a power of a negative f
    out = _residuals(make_params(*case), x, LOOSE_RTOL)
    assert out is None or np.all(np.isfinite(out[0]))


def test_launch_that_is_not_a_profile_raises():
    with pytest.raises(BracketFailure, match="has g = "):
        InterfaceSeries(make_params(1.6, 0.5, 1), 0.51, 1e-3)


@pytest.mark.parametrize("x", [(50.0, 3.2), (0.51, 1e-3), (1e6, 1e3),
                               (1e-6, 3.2), (1e-9, 0.01)])
def test_far_off_trial_with_a_lent_launch_depth_never_raises(x):
    # every trial launches in the form of its iteration's first series,
    # Pade-summed at its depth or truncated at its depth and columns; far
    # off, a lent launch that is not a profile fails the leg
    for case, summed in [((2.0, 0.5, 1), True), ((1.6, 0.5, 1), False)]:
        p = make_params(*case)
        lent = solve(p).match
        _, _, series = _residuals(p, (lent.beta_star, lent.xi0), LOOSE_RTOL)[2]
        assert (series.cut is None) == summed
        out = _residuals(p, x, LOOSE_RTOL, series)
        assert out is None or np.all(np.isfinite(out[0]))
        if out is not None:
            assert (out[2][2].u0, out[2][2].cut) == (series.u0, series.cut)


@pytest.mark.parametrize("case, summed", [((1.81, 0.5, 2), True),
                                          ((1.6, 0.5, 1), False),
                                          ((1.22, 0.2, 1), False)])
def test_one_launch_search_per_newton_iteration(monkeypatch, case, summed):
    # the first evaluation searches the launch, the Pade sum where m + q > 2
    # and then the truncation where the sum fails; every later one, the
    # beta-difference, the loose and tight trials and the tightening,
    # launches at its depth and columns and searches nothing
    searches, built = [], []

    def searching(name):
        search = getattr(equation, name)

        def counted(*args):
            searches.append(name)
            return search(*args)
        return counted

    def matching_only(*args):
        searches.clear()
        return match_profile(*args)

    def recording(p, x, rtol=RTOL, series=None):
        out = _residuals(p, x, rtol, series)
        if out is not None:
            built.append(out[2][2])
        return out

    for name in ("_summed_launch", "_truncation"):
        monkeypatch.setattr(equation, name, searching(name))
    monkeypatch.setattr(shooting, "match_profile", matching_only)
    monkeypatch.setattr(matching, "_residuals", recording)
    p = make_params(*case)
    assert solve(p).match.success
    pade = ["_summed_launch"] if p.m + p.q > 2.0 else []
    assert searches == pade + ([] if summed else ["_truncation"])
    first, rest = built[0], built[1:]
    assert (first.cut is None) == summed
    assert rest and all((s.u0, s.cut) == (first.u0, first.cut) for s in rest)


@pytest.mark.parametrize("case", [(1.6032427847567878, 0.5, 3),
                                  (1.6476018499399774, 0.5, 2),
                                  (1.7299555935102768, 0.4, 2)])
def test_tight_trials_keep_the_launch_of_their_iteration(case):
    # tight trials that searched their own launch fell, near the bound,
    # on the truncated floor launch, 1e-4 off in the residual, and halved
    # the step down: 25 and 69 evaluations, and a BracketFailure after 18
    result = solve(make_params(*case))
    assert result.match.success
    assert result.match.nfev <= 8


@pytest.mark.parametrize("case", [(1.632, 0.5, 2), (1.644, 0.5, 2)])
def test_summed_launch_near_the_floor_gives_xi0(monkeypatch, case):
    # the summed launch passes here within twice the floor's depth; kept
    # off it, the truncated series launched on its floor, 9e-5 off in
    # xi0.  The reference re-matches from the converged point with the
    # truncated series launched far below, at A d^theta = 1e-20
    p = make_params(*case)
    match = solve(p).match
    monkeypatch.setattr(equation, "_summed_launch", lambda *args: (None, None))
    monkeypatch.setattr(equation, "LAUNCH_F", 1e-20)
    reference = match_profile(p, match.beta_star, match.xi0)
    assert reference.success
    assert match.xi0 == pytest.approx(reference.xi0, rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="the one-column truncated series launched "
                   "on its floor misplaces xi0 by 1.5e-3")
def test_near_critical_xi0_agrees_with_a_deep_launch(monkeypatch):
    # m + q - 2 = 0.123: the solve launches the optimally truncated
    # series on its floor with one column, xi0 = 2.9602420340774103.
    # Re-matched from the converged point with A d^theta = 1e-16 at the
    # launch, the series is summed and xi0 = 2.964738422966965, as at 1e-12
    p = make_params(1.471, 0.652, 1)
    match = solve(p).match
    monkeypatch.setattr(equation, "LAUNCH_F", 1e-16)
    reference = match_profile(p, match.beta_star, match.xi0)
    assert reference.success
    assert match.xi0 == pytest.approx(reference.xi0, rel=1e-10, abs=0.0)


def test_newton_step_agrees_with_linalg_solve():
    rng = np.random.default_rng(3)
    for _ in range(200):
        J = rng.uniform(-1.0, 1.0, (2, 2)) * 10.0 ** rng.uniform(-6, 6, 2)
        if np.linalg.cond(J) > 1e6:
            continue
        r = rng.uniform(-1.0, 1.0, 2)
        np.testing.assert_allclose(_solve_2x2(J[:, 0], J[:, 1], r),
                                   np.linalg.solve(J, r), rtol=1e-12)


@pytest.mark.parametrize("column", [[2.0, 4.0], [0.0, 0.0], [np.inf, 1.0],
                                    [np.nan, 1.0]])
def test_newton_step_refuses_a_singular_jacobian(column):
    assert _solve_2x2(np.array([1.0, 2.0]), np.array(column),
                      np.array([1.0, 1.0])) is None


def test_singular_jacobian_ends_newton(monkeypatch):
    # both Jacobian columns are multiples of (1, 2), so the second pivot
    # is exactly zero and Newton ends after its two first evaluations
    def residuals(p, x, rtol=RTOL, series=None):
        s = x[0] + x[1]
        return (np.array([s - 1.0, 2.0 * s - 2.0]), np.array([1.0, 2.0]),
                (None,) * 4)

    monkeypatch.setattr(matching, "_residuals", residuals)
    x, r, nfev, legs = _newton(make_params(2.0, 0.5, 1), 0.5, 3.0)
    assert legs is None
    assert nfev == 2
    np.testing.assert_array_equal(x, [0.5, 3.0])


@pytest.mark.parametrize("case", [(2.0, 0.5, 1), (1.5, 0.5, 2), (1.2, 0.3, 1),
                                  (1.6, 0.5, 1), (1.69, 0.5, 1)])
def test_closed_form_xi0_column_matches_central_difference(solved, case):
    # super-critical, summed and on the floor, critical and sub-critical;
    # the differences lend the centre's launch, as Newton's evaluations
    # do, so it is fixed in u = d / xi0, the leg stays on the rescaling
    # family and only the difference quotient's own error (~h^2) is left
    p = make_params(*case)
    match = (solved[case] if case in solved else solve(p)).match
    beta, xi0 = match.beta_star, match.xi0
    _, column, (_, _, series) = _residuals(p, (beta, xi0))
    h = 1e-5 * xi0
    r_plus, *_ = _residuals(p, (beta, xi0 + h), RTOL, series)
    r_minus, *_ = _residuals(p, (beta, xi0 - h), RTOL, series)
    np.testing.assert_allclose(column, (r_plus - r_minus) / (2.0 * h), rtol=1e-7)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("N", [1, 3])
def test_critical_line_matches_closed_form(q, N):
    # on m + q = 2: f = (1 - xi^2/xi0^2)^k, k = 1/(1-q),
    # xi0^4 = 2(k+1)(2k+N), beta* = N(k+1)/(k xi0^2)
    p = make_params(2.0 - q, q, N)
    k = 1.0 / (1.0 - q)
    xi0 = (2.0 * (k + 1.0) * (2.0 * k + N)) ** 0.25
    beta = N * (k + 1.0) / (k * xi0**2)
    result = match_profile(p, 1.01 * beta, 0.99 * xi0)
    assert result.success
    assert result.xi0 == pytest.approx(xi0, rel=1e-11)
    xi = np.linspace(0.0, xi0, 2001)[:-1]
    f_err = np.abs(result.profile.eval_f(xi) - (1.0 - xi**2 / xi0**2) ** k)
    assert np.max(f_err) <= 5e-13


#: Two super-critical benchmark levels, solved once; their interface
#: series is summed at its launch.
SUMMED = [(1.81, 0.5, 2), (1.9, 0.5, 2)]


@pytest.fixture(scope="module")
def solved_summed(solved):
    """The reference solves and those of SUMMED."""
    return {**solved, **{c: solve(make_params(*c)) for c in SUMMED}}


@pytest.mark.parametrize(
    "case", [(2.0, 0.5, 1), (2.0, 0.5, 3), (1.5, 0.5, 2), (1.2, 0.3, 1)] + SUMMED
)
def test_backward_leg_independent_of_launch_depth(solved_summed, case):
    # launching the same series 8x deeper moves the end state of the
    # backward leg by no more than the integration error
    match = solved_summed[case].match
    p, beta, xi0 = make_params(*case), match.beta_star, match.xi0
    _, bwd, series = _residuals(p, (beta, xi0))[2]
    d = series.d0 / 8.0
    deep = solve_ivp(
        profile_rhs(p, beta, 1e-280),
        (xi0 - d, MID_FRAC * xi0),
        series(d),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
    )
    assert deep.success
    np.testing.assert_allclose(deep.y[:, -1], bwd.y[:, -1], rtol=1e-11, atol=0.0)


def test_newton_needs_few_residual_evaluations(solved):
    for case, result in solved.items():
        assert result.match.nfev <= 8, case
    # launched on the floor, from a truncated series lent at its depth
    for case, most in [((1.6, 0.5, 1), 6), ((1.63, 0.5, 2), 6),
                       ((1.69, 0.5, 1), 6), ((1.5, 0.7, 1), 7)]:
        assert solve(make_params(*case)).match.nfev <= most, case
    # 20 when xi0 was seeded at 1.02 times the forward stop point
    assert solve(make_params(2.0, 0.7, 1)).match.nfev <= 10


@pytest.fixture(scope="module")
def recorded():
    """The reference solves again, with every matching integration and
    residual evaluation recorded in call order: {case: (result, legs,
    evals)}, legs as (rtol, dense_output, backward), evals as
    (rtol, (beta, xi0))."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:

        def recording_ivp(fun, t_span, *args, **kwargs):
            legs.append((kwargs["rtol"], kwargs.get("dense_output", False),
                         t_span[1] < t_span[0]))
            return solve_ivp(fun, t_span, *args, **kwargs)

        def recording_residuals(p, x, rtol=RTOL, series=None):
            evals.append((rtol, (float(x[0]), float(x[1]))))
            return _residuals(p, x, rtol, series)

        mp.setattr(matching, "solve_ivp", recording_ivp)
        mp.setattr(matching, "_residuals", recording_residuals)
        for case in CASES:
            legs, evals = [], []
            runs[case] = solve(make_params(*case)), legs, evals
    return runs


def test_loose_legs_come_first_then_every_leg_at_rtol(recorded):
    # the xi0 seed's backward leg at the coarse rtol, then loose
    # evaluations, then the tightening and tight evaluations; the profile
    # is assembled from tight legs already run, so each residual
    # evaluation runs two legs and nothing else integrates, and only the
    # tight legs keep their dense output
    for case, (result, legs, _) in recorded.items():
        seed, legs = legs[0], legs[1:]
        assert seed == (shooting.COARSE_TOL**2, False, True), case
        rtols = [rtol for rtol, _, _ in legs]
        handoff = rtols.index(RTOL)
        assert handoff > 0, case
        assert set(rtols[:handoff]) == {LOOSE_RTOL}, case
        assert set(rtols[handoff:]) == {RTOL}, case
        assert len(legs) == 2 * result.match.nfev, case
        assert not any(dense for _, dense, _ in legs[:handoff]), case
        assert all(dense for _, dense, _ in legs[handoff:]), case
        assert result.match.success


def test_few_residual_evaluations_at_rtol(recorded):
    for case, (result, _, evals) in recorded.items():
        tight = [x for rtol, x in evals if rtol == RTOL]
        assert 1 <= len(tight) <= 3, case
        assert len(evals) == result.match.nfev, case


def test_a_solve_builds_one_series_per_point_it_evaluates(monkeypatch):
    # the xi0 seed's leg and every residual evaluation launch from a series
    # built at their own (beta, xi0), except the tightening re-evaluation,
    # which launches from the series of the loose one at the same point
    builds, evals = [], []

    def building(p, beta, xi0, *args):
        builds.append((beta, xi0))
        return InterfaceSeries(p, beta, xi0, *args)

    def recording(p, x, *args):
        evals.append((float(x[0]), float(x[1])))
        return _residuals(p, x, *args)

    monkeypatch.setattr(matching, "InterfaceSeries", building)
    monkeypatch.setattr(matching, "_residuals", recording)
    for case in CASES:
        builds.clear()
        evals.clear()
        solve(make_params(*case))
        assert len(set(builds)) == len(builds), case
        assert set(builds[1:]) == set(evals), case
        assert len(builds) == len(evals), case


def test_loose_beta_column_steps_by_sqrt_of_loose_rtol(recorded):
    # the first beta-column at LOOSE_RTOL is a difference over 1e-3 beta:
    # over 1.5e-8 beta it would be all integration error
    for case, (_, _, evals) in recorded.items():
        (r0, (beta, xi0)), (r1, (beta_h, xi0_h)) = evals[:2]
        assert r0 == r1 == LOOSE_RTOL
        assert xi0_h == xi0
        assert beta_h - beta == pytest.approx(LOOSE_FD_REL_STEP * beta, rel=1e-9)


def test_two_phase_newton_matches_tight_only_newton(recorded, monkeypatch):
    # from the solve's own guess, a Newton iteration at RTOL alone, its
    # first beta-column a difference over 1.5e-8 beta, converges to the
    # same (beta*, xi0)
    monkeypatch.setattr(matching, "LOOSE_RTOL", RTOL)
    monkeypatch.setattr(matching, "LOOSE_XTOL", XTOL)
    monkeypatch.setattr(matching, "LOOSE_FD_REL_STEP", 1.5e-8)
    for case, (result, _, evals) in recorded.items():
        guess = evals[0][1]
        tight = match_profile(make_params(*case), *guess)
        assert tight.success, case
        assert tight.beta_star == pytest.approx(result.beta_star, rel=1e-13, abs=0)
        assert tight.xi0 == pytest.approx(result.match.xi0, rel=1e-13, abs=0)


@pytest.mark.parametrize("fail_from", [1, 2, 3])
def test_failed_loose_stage_makes_no_evaluation_at_rtol(
    recorded, monkeypatch, fail_from
):
    # the loose legs fail from the first evaluation on, from the beta
    # difference on, or on every trial step: the iteration ends there,
    # without a tight evaluation at the loose iterate or at the guess
    _, _, evals = recorded[(2.0, 0.5, 1)]
    rtols = []

    def failing_loose(p, x, rtol=RTOL, series=None):
        rtols.append(rtol)
        if rtol == LOOSE_RTOL and len(rtols) >= fail_from:
            return None
        return _residuals(p, x, rtol, series)

    monkeypatch.setattr(matching, "_residuals", failing_loose)
    failed = match_profile(make_params(2.0, 0.5, 1), *evals[0][1])
    assert not failed.success
    assert failed.nfev == len(rtols)
    assert set(rtols) == {LOOSE_RTOL}


@pytest.mark.parametrize("budget", [2, 4, 5, 7])
def test_both_newton_phases_share_one_evaluation_budget(
    recorded, monkeypatch, budget
):
    # (2, 0.5, 1) needs 6 evaluations from its solve's guess, 4 loose and
    # 2 tight: a smaller budget ends the loose stage, the tightening, or
    # the tight stage, and a larger one is not all spent
    _, _, evals = recorded[(2.0, 0.5, 1)]
    assert len(evals) == 6
    monkeypatch.setattr(matching, "MAX_NFEV", budget)
    short = match_profile(make_params(2.0, 0.5, 1), *evals[0][1])
    if budget < len(evals):
        assert not short.success
        assert short.nfev <= budget
    else:
        assert short.success
        assert short.nfev == len(evals)


def test_near_singular_start_converges():
    # the first Newton step from the solve's guess moves almost only xi0;
    # a secant update of the beta-column from it would stall the solve
    result = solve(make_params(1.211, 0.216, 1))
    assert result.match.success
    assert result.match.residual < 1e-10


def test_converged_match_is_not_reported_as_failure():
    # a root finder that judged success by its rate of progress stopped
    # here at residual 8.9e-15 and reported failure
    result = solve(make_params(1.274, 0.283, 2))
    assert result.match.success
    assert result.bracket_lo < result.beta_star < result.bracket_hi


def test_matched_profile_is_tangential(solved):
    for case, result in solved.items():
        sol = result.final_profile
        assert sol.classification is Classification.CANDIDATE_B
        assert sol.stop_reason is StopReason.CONTACT_ZERO
        assert float(sol.f_values[-1]) <= 1e-6
        assert abs(sol.contact_slope) <= 1e-4 * sol.xi0 ** sol.params.sigma


def test_matched_profile_dense_is_continuous(solved):
    # the dense closure is piecewise (origin series, forward, backward,
    # interface series); probe across each boundary
    sol = solved[(2.0, 0.5, 1)].final_profile
    xi0 = sol.xi0
    for x in (float(sol.grid[0]), 0.5 * xi0, float(sol.grid[-1])):
        left = sol.eval_F(x * (1.0 - 1e-9))
        right = sol.eval_F(x * (1.0 + 1e-9))
        assert left[0] == pytest.approx(right[0], rel=1e-6, abs=1e-12)


def test_matched_profile_dense_tail_is_interface_series(solved):
    # between the backward launch and xi0 the dense closure evaluates the
    # tangential series point by point; at and beyond xi0 it is zero
    for case in [(2.0, 0.5, 1), (1.2, 0.3, 1)]:
        sol = solved[case].final_profile
        p, xi0 = sol.params, sol.xi0
        series = InterfaceSeries(p, sol.exps.beta, xi0)
        xi = np.append(
            xi0 - series.d0 * np.geomspace(1e-4, 0.5, 50), [xi0, 1.01 * xi0]
        )
        F, Fp = sol.dense(xi)
        ref = np.array([series(xi0 - x) for x in xi[:-2]])
        np.testing.assert_array_equal(F[:-2], ref[:, 0])
        np.testing.assert_array_equal(Fp[:-2], ref[:, 1])
        assert np.all(F[-2:] == 0.0) and np.all(Fp[-2:] == 0.0)


@pytest.mark.parametrize("case", [(2.0, 0.5, 1), (1.2, 0.3, 1)])
def test_matched_profile_pieces_meet_at_their_breaks(solved, case):
    # origin series below DELTA0, forward leg up to and including xi_mid,
    # backward leg up to and including its launch, interface series below
    # xi0, zero from xi0 on; the legs are those of the converged (beta, xi0)
    sol = solved[case].final_profile
    p, beta, xi0 = sol.params, sol.exps.beta, sol.xi0
    fwd, bwd, series = _residuals(p, (beta, xi0))[2]
    xi_mid, launch = MID_FRAC * xi0, float(bwd.t[0])
    after = lambda x: float(np.nextafter(x, np.inf))
    pieces = {
        "origin": lambda x: origin_series(p, beta, x),
        "forward": halve_long_steps(fwd.sol, xi_mid * MAX_STEP_FRAC),
        "backward": halve_long_steps(bwd.sol, xi0 * MAX_STEP_FRAC),
        "series": lambda x: series(xi0 - x),
        "zero": lambda x: (0.0 * x, 0.0 * x),
    }
    points = [
        (0.0, "origin"),
        (float(np.nextafter(DELTA0, 0.0)), "origin"),
        (DELTA0, "forward"),
        (xi_mid, "forward"),
        (after(xi_mid), "backward"),
        (launch, "backward"),
        (after(launch), "series"),
        (float(sol.grid[-1]), "series"),
        (float(np.nextafter(xi0, 0.0)), "series"),
        (xi0, "zero"),
        (after(xi0), "zero"),
        (2.0 * xi0, "zero"),
    ]
    xi = np.array([x for x, _ in points])
    F, Fp = sol.eval_F(xi)
    for i, (x, piece) in enumerate(points):
        ref = pieces[piece](np.array([x]))
        assert F[i] == max(ref[0][0], 0.0), (x, piece)
        assert Fp[i] == ref[1][0], (x, piece)
    # a negative xi reads the origin series at 0
    assert sol.eval_F(-1.0) == (F[0], Fp[0])


def test_matched_grid_is_increasing(solved):
    for result in solved.values():
        grid = result.final_profile.grid
        assert np.all(np.diff(grid) > 0)


def test_floor_launch_uses_optimally_truncated_series():
    # at (1.7, 0.5, 2), gamma = 0.4, the divergent z-series, cut before its
    # smallest term, never reaches the launch bound above the floor
    # f = LAUNCH_F, and from there it was good to 2e-5 only; summed, it
    # launches ten times above the floor, as exact as the legs
    p = make_params(1.7, 0.5, 2)
    beta, xi0 = 0.6198964661312343, 2.903231843256818   # matched
    series = InterfaceSeries(p, beta, xi0)
    assert series.d0 > 8.0 * launch_distance(series, equation.LAUNCH_F)

    def end_state(d):
        leg = solve_ivp(
            profile_rhs(p, beta, 1e-280),
            (xi0 - d, MID_FRAC * xi0),
            series(d),
            method="DOP853",
            rtol=RTOL,
            atol=ATOL,
        )
        assert leg.success
        return leg.y[:, -1]

    np.testing.assert_allclose(
        end_state(series.d0), end_state(series.d0 / 8.0), rtol=1e-12, atol=0.0
    )


def test_series_state_consistent_with_expansion():
    # past the closed-form terms A d^theta - K0 xi0^{...} d^omega, the
    # sub-critical series goes on with b_10 u (u = d / xi0; here
    # 2 gamma > 1), where b_10 balances the u^1 terms of the equation by
    # hand: b_10 = ((N-1) m theta / L - sigma) / (m m theta (m theta + 1) / L - q)
    # with L = m theta (m theta - 1)
    p = make_params(1.2, 0.3, 1)
    beta, xi0 = 0.14, 1.5
    expn = predict_expansion(p, exponents_from_beta(p, beta), xi0)
    series = InterfaceSeries(p, beta, xi0)
    mt = p.m * expn.theta
    L = mt * (mt - 1.0)
    b10 = ((p.N - 1) * mt / L - p.sigma) / (p.m * mt * (mt + 1.0) / L - p.q)
    omega = (4.0 - p.m - p.q) / (p.m - p.q)
    for d in (1e-6, 1e-5):
        F, Fp = series(d)
        f = expn.amplitude * d**expn.theta - expn.second_order_coeff * d**omega
        assert F ** (1.0 / p.m) / f - 1.0 == pytest.approx(b10 * d / xi0, rel=1e-2)
        assert Fp < 0  # f decreases toward the interface from inside


def test_interface_samples_match_series_at_depth(solved):
    result = solved[(1.2, 0.3, 1)]
    sol = result.final_profile
    p, xi0 = sol.params, sol.xi0
    expn = predict_expansion(p, sol.exps, xi0)
    d = np.array([1e-6, 1e-5]) * xi0
    dd, f, fp = interface_samples(p, result.beta_star, xi0, d)
    lead = expn.amplitude * dd**expn.theta
    np.testing.assert_allclose(f, lead, rtol=1e-3)
    assert np.all(fp < 0)


def test_interface_samples_reject_unusable_distances(solved):
    # no requested distance lies inside the support
    result = solved[(1.2, 0.3, 1)]
    sol = result.final_profile
    with pytest.raises(BracketFailure, match="no sample distance inside"):
        interface_samples(
            sol.params, result.beta_star, sol.xi0,
            np.array([1.0, 2.0]) * sol.xi0,
        )


@pytest.mark.parametrize("case", [(2.0, 0.5, 1), (1.2, 0.3, 1)])
def test_eval_f_follows_series_beyond_stored_tail(solved, case):
    # between the last stored node (f = TAIL_F) and xi0 the profile is
    # the interface series, not a flat TAIL_F followed by a jump to zero
    sol = solved[case].final_profile
    expn = predict_expansion(sol.params, sol.exps, sol.xi0)
    d_tail = launch_distance(expn, TAIL_F)
    assert sol.xi0 - float(sol.grid[-1]) == pytest.approx(d_tail, rel=1e-9)
    xi = sol.xi0 - np.array([0.5, 0.1, 0.01]) * d_tail
    F, _ = InterfaceSeries(sol.params, sol.exps.beta, sol.xi0)(sol.xi0 - xi)
    np.testing.assert_allclose(
        sol.eval_f(xi), F ** (1.0 / sol.params.m), rtol=1e-12
    )
    assert sol.eval_f(sol.xi0) == 0.0


@pytest.mark.parametrize("case", CASES + SUMMED)
def test_profile_inside_backward_launch_solves_the_equation(solved_summed, case):
    # inside the backward launch the matched profile is the interface
    # series, truncated or summed; the equation, integrated outward from
    # far below (interface_samples), must give the same f there.  Each
    # depth is snapped to xi0 - (xi0 - d), so that xi0 - d is exact and
    # the rounding of xi does not count as a difference.
    sol = solved_summed[case].final_profile
    p, beta, xi0 = sol.params, sol.exps.beta, sol.xi0
    d0 = InterfaceSeries(p, beta, xi0).d0
    d = xi0 - (xi0 - log_grid(1e-9 * xi0, d0, 20))
    d_s, f_s, _ = interface_samples(p, beta, xi0, d)
    np.testing.assert_array_equal(d_s, d)
    np.testing.assert_allclose(sol.eval_f(xi0 - d), f_s, rtol=1e-10, atol=0.0)


def test_tail_stays_inside_a_launch_deeper_than_tail_height(monkeypatch):
    # with the launch below TAIL_F, interface-series samples out to the
    # TAIL_F level would lie past the launch, where the truncated series
    # is no longer the profile: f < 0 there, and float_power warns
    monkeypatch.setattr(equation, "LAUNCH_F", 1e-20)
    sol = solve(make_params(1.61, 0.5, 1)).final_profile
    assert np.all(np.diff(sol.grid) > 0)
    assert np.all(sol.F_values >= 0.0)


def test_assembled_profile_ends_at_tail_height():
    # the stored interface samples run down to f = 1e-9
    p = make_params(1.5, 0.5, 2)
    result = match_profile(p, 0.5, 2.45)
    assert result.success
    sol = result.profile
    assert float(sol.f_values[-1]) == pytest.approx(1e-9, rel=0.05)


def test_failed_tightening_fails_the_match(monkeypatch):
    # the loose stage converges; the re-evaluation at RTOL that hands over
    # to the tight stage fails, and so does the match
    rtols = []

    def loose_only(p, x, rtol=RTOL, series=None):
        rtols.append(rtol)
        return None if rtol == RTOL else _residuals(p, x, rtol, series)

    monkeypatch.setattr(matching, "_residuals", loose_only)
    result = match_profile(make_params(2.0, 0.5, 1), 0.52, 3.25)
    assert rtols[-1] == RTOL and set(rtols[:-1]) == {LOOSE_RTOL}
    assert result.nfev == len(rtols)
    assert not result.success and result.profile is None
    assert result.residual == np.inf
