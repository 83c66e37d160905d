"""Two-sided matching: convergence, tangency, and deep interface samples."""

import numpy as np
import pytest

from eternalprofile import (
    Classification,
    MatchOptions,
    StopReason,
    exponents_from_beta,
    make_params,
    match_profile,
    predict_expansion,
)
from eternalprofile.equation import interface_series
from eternalprofile.matching import _residuals, interface_samples


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
    # far-off hybr trials end in a step-size underflow of the forward leg
    # or an interface launch inside the matching point; both give the
    # sentinel, never an exception
    p = make_params(2.0, 0.5, 1)
    np.testing.assert_array_equal(_residuals(p, x, MatchOptions()), [1e3, 1e3])


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


def test_match_options_are_honored():
    p = make_params(1.5, 0.5, 2)
    opts = MatchOptions(tail_f=1e-8)
    result = match_profile(p, 0.5, 2.45, opts)
    assert result.success
    sol = result.profile
    assert sol.contact_eps == 1e-8
    assert float(sol.f_values[-1]) == pytest.approx(1e-8, rel=0.05)
