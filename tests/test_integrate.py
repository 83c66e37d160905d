"""Cauchy-problem integration: launch series, events, classification."""

import types

import numpy as np
import pytest

from eternalprofile import _dop853, integrate
from eternalprofile import (
    Classification,
    DomainError,
    StopReason,
    exponents_from_beta,
    integrate_limit_profile,
    integrate_profile,
    make_params,
)
from eternalprofile.equation import origin_series
from eternalprofile.integrate import absorption_scale, solve_ivp

A, B, C, U = (
    Classification.CLASS_A,
    Classification.CANDIDATE_B,
    Classification.CLASS_C,
    Classification.UNDETERMINED,
)
CONTACT, SLOPE, HORIZON, FAILURE = (
    StopReason.CONTACT_ZERO,
    StopReason.SLOPE_SIGN_CHANGE,
    StopReason.HORIZON_REACHED,
    StopReason.STEP_FAILURE,
)


def test_series_start_matches_taylor_plus_absorption():
    p = make_params(2.0, 0.5, 1)
    delta0 = 1e-6
    F0, Fp0 = origin_series(p, 0.5, delta0)
    Fsec0 = -2.0 * 0.5 / ((2.0 - 1.0) * 1)
    cs = 1.0 / ((p.sigma + 2.0) * (p.sigma + p.N))
    assert F0 == pytest.approx(
        1.0 + 0.5 * Fsec0 * delta0**2 + cs * delta0 ** (p.sigma + 2.0),
        rel=1e-15,
    )
    assert Fp0 == pytest.approx(
        Fsec0 * delta0 + (p.sigma + 2.0) * cs * delta0 ** (p.sigma + 1.0),
        rel=1e-15,
    )


def test_large_beta_classifies_A():
    p = make_params(2.0, 0.5, 1)
    sol = integrate_profile(p, exponents_from_beta(p, 4.0))
    assert sol.classification is Classification.CLASS_A
    assert sol.stop_reason is StopReason.CONTACT_ZERO
    assert sol.xi0 is not None
    assert float(sol.Fprime_values[-1]) < 0


def test_small_beta_classifies_C():
    p = make_params(2.0, 0.5, 1)
    sol = integrate_profile(p, exponents_from_beta(p, 0.05))
    assert sol.classification is Classification.CLASS_C
    assert sol.stop_reason is StopReason.SLOPE_SIGN_CHANGE
    assert sol.xi0 is None
    assert sol.xi1 is not None


def test_profile_decreasing_until_stop():
    p = make_params(2.0, 0.5, 1)
    sol = integrate_profile(p, exponents_from_beta(p, 1.0))
    assert np.all(np.diff(sol.F_values) <= 0)


def test_dense_output_matches_grid():
    p = make_params(1.5, 0.5, 2)
    sol = integrate_profile(p, exponents_from_beta(p, 0.8))
    F, Fp = sol.eval_F(sol.grid)
    np.testing.assert_allclose(F, sol.F_values, rtol=1e-12)
    np.testing.assert_allclose(Fp, sol.Fprime_values, rtol=1e-12, atol=1e-14)


def test_dense_output_zero_beyond_contact():
    p = make_params(2.0, 0.5, 1)
    sol = integrate_profile(p, exponents_from_beta(p, 4.0))
    F, Fp = sol.eval_F(np.array([sol.xi0 * 1.5, sol.xi0 * 10.0]))
    assert np.all(F == 0.0)
    assert np.all(Fp == 0.0)


def test_limit_profile_increasing_and_matches_series():
    p = make_params(2.0, 0.5, 1)
    lim = integrate_limit_profile(p, horizon=5.0)
    assert np.all(np.diff(lim.H_values) > 0)
    # near-origin series H = 1 + xi^{sigma+2} / ((sigma+2)(N+sigma))
    xi = np.array([1e-4, 1e-3])
    H, _ = lim.eval_H(xi)
    c = 1.0 / ((p.sigma + 2.0) * (p.N + p.sigma))
    np.testing.assert_allclose(H, 1.0 + c * xi ** (p.sigma + 2.0), rtol=1e-8)


@pytest.mark.parametrize("horizon", [1e-9, 1e-8])
def test_limit_profile_horizon_at_or_below_launch_point_raises(horizon):
    # the limit problem launches at xi = 1e-8
    with pytest.raises(DomainError, match="horizon"):
        integrate_limit_profile(make_params(2.0, 0.5, 1), horizon=horizon)


@pytest.mark.parametrize(
    "triple",
    [(2.0, 0.5, 1), (2.0, 0.5, 3), (1.5, 0.5, 2), (1.2, 0.3, 1), (1.1, 0.9, 3)],
)
def test_absorption_scale_is_where_the_limit_profile_doubles(triple):
    # the closed form reads the scale off the origin series; the limit
    # profile H reaches 2 within a few percent of it
    p = make_params(*triple)
    lim = integrate_limit_profile(p, horizon=1e4)
    doubled = _dop853.brentq(
        lambda xi: float(lim.eval_H(np.array([xi]))[0][0]) - 2.0,
        float(lim.grid[0]),
        lim.horizon,
    )
    assert absorption_scale(p) == pytest.approx(doubled, rel=0.05)


#: End states of a run at (2, 0.5, 1) that stops at xi = 2, where the
#: contact bound SLOPE_TOL xi^sigma is 2e-4 and the graze bound on f is
#: GRAZE_FACTOR * CONTACT_EPS = 1e-6, reached at F = 1e-12: (status, F,
#: F', contact event) -> (stop reason, class, xi0, xi1).
END_STATES = {
    "contact, steep": ((1, 1e-14, -1e-3, True), (CONTACT, A, 2.0, 2.0)),
    "contact at the bound": ((1, 1e-14, -2e-4, True), (CONTACT, B, 2.0, 2.0)),
    "contact, flat": ((1, 1e-14, 1e-4, True), (CONTACT, B, 2.0, 2.0)),
    "contact, rising": ((1, 1e-14, 1e-3, True), (CONTACT, U, 2.0, 2.0)),
    "slope event": ((1, 1e-6, 0.0, False), (SLOPE, C, None, 2.0)),
    "slope event above the graze bound": (
        (1, np.nextafter(1e-12, 1.0), 0.0, False), (SLOPE, C, None, 2.0)
    ),
    "slope event at the graze bound": ((1, 1e-12, 0.0, False), (SLOPE, B, 2.0, 2.0)),
    "slope event, grazing": ((1, 2.5e-13, 0.0, False), (SLOPE, B, 2.0, 2.0)),
    "horizon": ((0, 0.5, -0.1, False), (HORIZON, U, None, None)),
    "step failure": ((-1, 0.5, -0.1, False), (FAILURE, U, None, None)),
}


@pytest.mark.parametrize("case", END_STATES)
def test_run_is_classified_from_its_end_state(monkeypatch, case):
    (status, F, Fp, contact), expected = END_STATES[case]

    def stub(fun, t_span, y0, **kwargs):
        events = [np.array([2.0]) if contact else np.array([]), np.array([])]
        return types.SimpleNamespace(
            t=np.array([t_span[0], 2.0]),
            y=np.array([[y0[0], F], [y0[1], Fp]]),
            status=status,
            t_events=events,
            sol=None,
        )

    monkeypatch.setattr(integrate, "solve_ivp", stub)
    p = make_params(2.0, 0.5, 1)
    sol = integrate_profile(p, exponents_from_beta(p, 0.5))
    assert (sol.stop_reason, sol.classification, sol.xi0, sol.xi1) == expected


def test_grazing_run_near_beta_star_is_candidate_b():
    # just below beta* the run turns upward with f within the graze band;
    # beta* is a literal, so the pin does not follow solve's last bits
    p = make_params(1.202, 0.202, 1)
    beta = 0.15009087890956246 * (1.0 - 5e-9)
    sol = integrate_profile(p, exponents_from_beta(p, beta))
    assert sol.stop_reason is SLOPE
    assert sol.classification is B
    assert sol.xi0 == sol.xi1 == float(sol.grid[-1])
    assert sol.xi0 == pytest.approx(1.428958088796369, rel=1e-12)
    assert float(sol.f_values[-1]) <= 1e-6


@pytest.mark.parametrize("beta, cls", [(0.25, C), (4.0, A)])
def test_forward_profile_pieces_meet_at_their_breaks(monkeypatch, beta, cls):
    # origin series below its launch offset, the run up to and including its end,
    # zero beyond; a negative xi reads the origin series at 0
    runs = []

    def recording(*args, **kwargs):
        runs.append(solve_ivp(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(integrate, "solve_ivp", recording)
    p = make_params(2.0, 0.5, 1)
    sol = integrate_profile(p, exponents_from_beta(p, beta))
    assert sol.classification is cls
    d0, end = float(sol.grid[0]), float(sol.grid[-1])
    below = np.nextafter(d0, 0.0)
    xi = np.array([-1.0, 0.0, below, d0, end, np.nextafter(end, np.inf), 2 * end])
    origin = origin_series(p, beta, np.array([0.0, 0.0, below]))
    run = runs[0].sol(np.array([d0, end]))
    F, Fp = sol.eval_F(xi)
    np.testing.assert_array_equal(F, np.concatenate([origin[0], run[0], [0, 0]]))
    np.testing.assert_array_equal(Fp, np.concatenate([origin[1], run[1], [0, 0]]))
