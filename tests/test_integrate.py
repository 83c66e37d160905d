"""Cauchy-problem integration: launch series, events, classification."""

import numpy as np
import pytest

from eternalprofile import (
    Classification,
    DomainError,
    IntegratorOptions,
    StopReason,
    exponents_from_beta,
    integrate_limit_profile,
    integrate_profile,
    make_params,
)
from eternalprofile.equation import origin_series
from eternalprofile.integrate import absorption_scale


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


@pytest.mark.parametrize("horizon", [0.0, -1.0, 1e-6])
def test_horizon_at_or_below_launch_point_raises(horizon):
    p = make_params(2.0, 0.5, 1)
    opts = IntegratorOptions(horizon=horizon)
    with pytest.raises(DomainError, match="horizon"):
        integrate_profile(p, exponents_from_beta(p, 0.5), opts)


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


def test_slope_event_can_be_disabled():
    p = make_params(2.0, 0.5, 1)
    e = exponents_from_beta(p, 1e-3)
    stopped = integrate_profile(p, e)
    assert stopped.stop_reason is StopReason.SLOPE_SIGN_CHANGE
    free = integrate_profile(
        p, e, IntegratorOptions(slope_event=False, horizon=10.0)
    )
    assert free.stop_reason is StopReason.HORIZON_REACHED
    assert float(free.grid[-1]) == pytest.approx(10.0)


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
    doubled = integrate_limit_profile(p, horizon=1e4, guard=2.0).horizon
    assert absorption_scale(p) == pytest.approx(doubled, rel=0.05)
