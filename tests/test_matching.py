"""Two-sided matching: convergence, tangency, and deep interface samples."""

import numpy as np
import pytest

from eternalprofile import (
    Classification,
    StopReason,
    exponents_from_beta,
    make_params,
    match_profile,
    predict_expansion,
    solve,
)
from eternalprofile.equation import interface_series, launch_distance
from eternalprofile.matching import LAUNCH_F, _residuals, interface_samples


def test_match_from_rough_guess():
    # the matching solve needs only a few-percent-accurate guess
    p = make_params(2.0, 0.5, 1)
    result = match_profile(p, 0.52, 3.25)
    assert result.success
    assert result.residual < 1e-10
    assert result.beta_star == pytest.approx(0.5138348204162287, rel=1e-9)
    assert result.xi0 == pytest.approx(3.2008608890490176, rel=1e-9)


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


@pytest.mark.parametrize("case", [(2.0, 0.5, 1), (1.5, 0.5, 2), (1.2, 0.3, 1)])
def test_closed_form_xi0_column_matches_central_difference(solved, case):
    # super-critical, critical and sub-critical; only the fixed launch
    # height breaks the rescaling symmetry, by ~1e-5 relative
    match = solved[case].match
    p, beta, xi0 = make_params(*case), match.beta_star, match.xi0
    _, column = _residuals(p, (beta, xi0))
    h = 1e-5 * xi0
    r_plus, _ = _residuals(p, (beta, xi0 + h))
    r_minus, _ = _residuals(p, (beta, xi0 - h))
    np.testing.assert_allclose(column, (r_plus - r_minus) / (2.0 * h), rtol=1e-4)


def test_newton_needs_few_residual_evaluations(solved):
    for case, result in solved.items():
        assert result.match.nfev <= 10, case


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
    for x in (sol.delta0, 0.5 * xi0, float(sol.grid[-1])):
        left = sol.eval_F(x * (1.0 - 1e-9))
        right = sol.eval_F(x * (1.0 + 1e-9))
        assert left[0] == pytest.approx(right[0], rel=1e-6, abs=1e-12)


def test_matched_profile_dense_tail_is_interface_series(solved):
    # between the backward launch and xi0 the dense closure evaluates the
    # tangential series point by point; at and beyond xi0 it is zero
    for case in [(2.0, 0.5, 1), (1.2, 0.3, 1)]:
        sol = solved[case].final_profile
        p, xi0 = sol.params, sol.xi0
        expn = predict_expansion(p, sol.exps, xi0)
        d0 = launch_distance(expn, LAUNCH_F)
        xi = np.append(xi0 - d0 * np.geomspace(1e-4, 0.5, 50), [xi0, 1.01 * xi0])
        F, Fp = sol.dense(xi)
        ref = np.array([interface_series(p, expn, xi0 - x) for x in xi[:-2]])
        np.testing.assert_array_equal(F[:-2], ref[:, 0])
        np.testing.assert_array_equal(Fp[:-2], ref[:, 1])
        assert np.all(F[-2:] == 0.0) and np.all(Fp[-2:] == 0.0)


def test_matched_grid_is_increasing(solved):
    for result in solved.values():
        grid = result.final_profile.grid
        assert np.all(np.diff(grid) > 0)


def test_series_state_consistent_with_expansion():
    p = make_params(1.2, 0.3, 1)
    e = exponents_from_beta(p, 0.14)
    expn = predict_expansion(p, e, 1.5)
    d = 1e-5
    F, Fp = interface_series(p, expn, d)
    f = expn.amplitude * d**expn.theta
    omega = (4.0 - p.m - p.q) / (p.m - p.q)
    f -= expn.second_order_coeff * d**omega
    assert F == pytest.approx(f**p.m, rel=1e-13)
    assert Fp < 0  # f decreases toward the interface from inside


def test_interface_samples_match_series_at_depth(solved):
    result = solved[(1.2, 0.3, 1)]
    sol = result.final_profile
    p, xi0 = sol.params, sol.xi0
    expn = predict_expansion(p, sol.exps, xi0)
    d = np.array([1e-6, 1e-5]) * xi0
    dd, f, fp = interface_samples(
        p, result.beta_star, xi0, d, launch_f=1e-16
    )
    lead = expn.amplitude * dd**expn.theta
    np.testing.assert_allclose(f, lead, rtol=1e-3)
    assert np.all(fp < 0)


def test_interface_samples_reject_shallow_launch(solved):
    result = solved[(1.2, 0.3, 1)]
    sol = result.final_profile
    with pytest.raises(Exception):
        # all requested depths sit below the launch distance
        interface_samples(
            sol.params, result.beta_star, sol.xi0,
            np.array([1e-12]), launch_f=1e-3,
        )


def test_assembled_profile_ends_at_tail_height():
    # the stored interface samples run down to f = 1e-9
    p = make_params(1.5, 0.5, 2)
    result = match_profile(p, 0.5, 2.45)
    assert result.success
    sol = result.profile
    assert sol.contact_eps == 1e-9
    assert float(sol.f_values[-1]) == pytest.approx(1e-9, rel=0.05)
