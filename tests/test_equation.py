"""The profile equation against the closed-form profile on m + q = 2."""

import numpy as np
import pytest

from eternalprofile import (
    exponents_from_beta,
    integrate_limit_profile,
    make_params,
    predict_expansion,
)
from eternalprofile.equation import interface_series, origin_series, profile_rhs

#: (q, N) on the critical line m = 2 - q.
CRITICAL = [(0.5, 2), (0.3, 1), (0.7, 3), (0.2, 2)]


def critical_profile(q, N):
    """Params, beta* and the exact (F, F', F'') of f = (1 - xi^2/xi0^2)^k.

    On m + q = 2 the profile is known in closed form: k = 1/(1-q),
    xi0^4 = 2(k+1)(2k+N) and beta* = N(k+1) / (k xi0^2).
    """
    p = make_params(2.0 - q, q, N)
    k = 1.0 / (1.0 - q)
    xi0 = (2.0 * (k + 1.0) * (2.0 * k + N)) ** 0.25
    beta = N * (k + 1.0) / (k * xi0**2)
    km = k * p.m    # F = g^{km} with g = 1 - xi^2/xi0^2

    def exact(xi):
        g = 1.0 - xi**2 / xi0**2
        gp = -2.0 * xi / xi0**2
        gpp = -2.0 / xi0**2
        F = g**km
        Fp = km * g ** (km - 1.0) * gp
        Fpp = km * ((km - 1.0) * g ** (km - 2.0) * gp**2 + g ** (km - 1.0) * gpp)
        return F, Fp, Fpp

    return p, beta, xi0, exact


@pytest.mark.parametrize("q, N", CRITICAL)
def test_profile_rhs_matches_closed_form(q, N):
    p, beta, xi0, exact = critical_profile(q, N)
    rhs = profile_rhs(p, beta, 1e-280)
    for xi in np.linspace(0.05, 0.95, 9) * xi0:
        F, Fp, Fpp = exact(xi)
        dF, dFp = rhs(xi, (F, Fp))
        assert dF == Fp
        assert dFp == pytest.approx(Fpp, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("q, N", CRITICAL)
def test_origin_series_error_orders(q, N):
    # F keeps the xi^2 and xi^{sigma+2} terms, so the launch error is
    # O(xi^4) in F and O(xi^3) in F'
    p, beta, _, exact = critical_profile(q, N)
    xi = np.geomspace(3e-3, 3e-2, 6)
    F, Fp = origin_series(p, beta, xi)
    F_ex, Fp_ex, _ = exact(xi)
    slope_F = np.polyfit(np.log(xi), np.log(np.abs(F - F_ex)), 1)[0]
    slope_Fp = np.polyfit(np.log(xi), np.log(np.abs(Fp - Fp_ex)), 1)[0]
    assert slope_F == pytest.approx(4.0, abs=0.05)
    assert slope_Fp == pytest.approx(3.0, abs=0.05)


def test_limit_profile_launches_from_origin_series():
    p = make_params(2.0, 0.5, 3)
    lim = integrate_limit_profile(p, horizon=5.0)
    delta0 = float(lim.grid[0])
    assert (lim.H_values[0], lim.Hprime_values[0]) == origin_series(
        p, 0.0, delta0
    )
    xi = np.array([0.25, 0.5]) * delta0
    H, Hp = lim.eval_H(xi)
    H_ser, Hp_ser = origin_series(p, 0.0, xi)
    np.testing.assert_array_equal(H, H_ser)
    np.testing.assert_array_equal(Hp, Hp_ser)


@pytest.mark.parametrize(
    "m, q, N, beta, xi0",
    [(2.0, 0.5, 1, 0.5138, 3.2), (1.2, 0.3, 1, 0.1413, 1.52)],
)
def test_interface_series_array_equals_scalar_calls(m, q, N, beta, xi0):
    # the matched profile's tail samples come from one array call, its
    # backward launch from a scalar call; both must round alike
    p = make_params(m, q, N)
    expn = predict_expansion(p, exponents_from_beta(p, beta), xi0)
    d = np.geomspace(1e-9, 1e-2, 257)
    F, Fp = interface_series(p, expn, d)
    ref = np.array([interface_series(p, expn, float(x)) for x in d])
    np.testing.assert_array_equal(F, ref[:, 0])
    np.testing.assert_array_equal(Fp, ref[:, 1])
