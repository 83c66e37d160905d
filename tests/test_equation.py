"""The profile equation and its launch series against closed forms."""

import numpy as np
import pytest

from eternalprofile import (
    exponents_from_beta,
    integrate_limit_profile,
    make_params,
    predict_expansion,
)
from eternalprofile.asymptotics import K0_constant, K1_constant
from eternalprofile.equation import (
    InterfaceSeries,
    _dot,
    _series_table,
    log_grid,
    origin_series,
    piecewise,
    profile_rhs,
)

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
    series = InterfaceSeries(make_params(m, q, N), beta, xi0)
    d = np.geomspace(1e-9, 1e-2, 257)
    F, Fp = series(d)
    ref = np.array([series(float(x)) for x in d])
    np.testing.assert_array_equal(F, ref[:, 0])
    np.testing.assert_array_equal(Fp, ref[:, 1])


@pytest.mark.parametrize("m, q, N", [(2.0, 0.5, 1), (1.8, 0.5, 3), (1.61, 0.3, 2)])
def test_supercritical_column_zero_is_reduced_solution(m, q, N):
    # without diffusion the profile equation is first order and solves to
    # f = K3 [xi^sigma ln(xi0 / xi)]^theta, i.e. column k = 0 of the table is
    # g0 = [(1-u)^sigma ln(1/(1-u)) / u]^theta
    p = make_params(m, q, N)
    b0 = _series_table(m, q, N, True).b[:, 0]
    u = np.geomspace(1e-4, 0.05, 20)
    g0 = np.polynomial.polynomial.polyval(u, b0)
    exact = ((1.0 - u) ** p.sigma * -np.log1p(-u) / u) ** (1.0 / (1.0 - q))
    np.testing.assert_allclose(g0, exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("q, N", CRITICAL)
def test_critical_series_is_closed_form_at_beta_star(q, N):
    # on m + q = 2 at beta*, f = (2u)^k (1 - u/2)^k with u = d / xi0
    p, beta, xi0, _ = critical_profile(q, N)
    series = InterfaceSeries(p, beta, xi0)
    k = 1.0 / (1.0 - q)
    d = np.geomspace(1e-6, 1.0, 40) * series.d0
    F, _ = series(d)
    u = d / xi0
    exact = (2.0 * u) ** k * (1.0 - 0.5 * u) ** k
    np.testing.assert_allclose(F ** (1.0 / p.m), exact, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("m, q, N, beta", [(1.2, 0.3, 1, 0.1413), (1.5, 0.2, 3, 0.3)])
def test_subcritical_first_correction_is_K0(m, q, N, beta):
    # the z-column of the sub-critical table carries -K0 d^omega, and the
    # leading amplitude is K1 xi0^{sigma/(m-q)}: both closed forms of
    # ``asymptotics``, derived independently of the recursion
    p = make_params(m, q, N)
    xi0 = 1.7
    series = InterfaceSeries(p, beta, xi0)
    expn = predict_expansion(p, exponents_from_beta(p, beta), xi0)
    assert series.amplitude == pytest.approx(expn.amplitude, rel=1e-13)
    table = _series_table(m, q, N, False)
    table.grow(2)
    # A b_01 kappa u^gamma d^theta = -K0 xi0^{(sigma+m+q-2)/(m-q)} d^omega
    second = -series.amplitude * table.b[0, 1] * series.kappa * xi0 ** -series.gamma
    assert second == pytest.approx(expn.second_order_coeff, rel=1e-12)
    assert series.kappa == pytest.approx(beta * K1_constant(p) ** (1.0 - q), rel=1e-13)
    assert K0_constant(p, beta) > 0.0


def sympy_coefficients(m, q, N, theta, a, b, L, gL, order=3):
    """c_jk of g = 1 + sum c_jk u^{j + k gamma}, j + k <= order, derived
    with sympy from the profile equation in u = d / xi0 (xi0 = 1):

        a [F_uu - (N-1)/(1-u) F_u] + b [2/(m-1) f + (1-u) f_u]
        - (1-u)^sigma f^q = 0,    f = u^theta g,  F = f^m,

    which is the equation divided by A1^q, with a = A1^{m-q} and
    b = beta A1^{1-q}.  Powers of u are written as powers of t = u^{1/L},
    with gL = L gamma (gL = 0: powers of u only).  Coefficient after
    coefficient, the first power of t not yet balanced fixes the next c.
    """
    sp = pytest.importorskip("sympy")
    m, q, theta, a, b = (sp.Rational(x) for x in (m, q, theta, a, b))
    t, c = sp.symbols("t c")
    sigma = 2 * (1 - q) / (m - 1)
    pairs = [
        (j, k) for j in range(order + 1) for k in range(order + 1 - j)
        if gL or k == 0
    ]
    pairs.sort(key=lambda jk: L * jk[0] + gL * jk[1])
    top = max(L * j + gL * k for j, k in pairs)
    low = min(L * j + gL * k for j, k in pairs[1:])
    lead = int(L * q * theta)

    def poly(expr):
        return sp.Poly(expr, t, domain="QQ[c]")

    def trunc(P):
        kept = {e: v for e, v in P.as_dict().items() if e[0] <= top}
        return sp.Poly.from_dict(kept or {(0,): 0}, t, domain="QQ[c]")

    def power(g, e):
        eps, out, term = g - poly(1), poly(1), poly(1)
        for n in range(1, top // low + 1):
            term = trunc(term * eps)
            out += term * sp.binomial(e, n)
        return out

    def du(P):
        return sp.Poly.from_dict(
            {(e[0] - L,): v * sp.Rational(e[0], L) for e, v in P.as_dict().items()},
            t, domain="QQ[c]",
        )

    def one_minus_u(power_):
        n_max = (lead + top) // L + 1
        return poly(sum(sp.binomial(power_, n) * (-t**L) ** n for n in range(n_max)))

    known = {}
    for j, k in pairs[1:]:
        e = L * j + gL * k
        g = poly(
            1 + sum(v * t ** (L * jj + gL * kk) for (jj, kk), v in known.items())
            + c * t**e
        )
        f = poly(t ** int(L * theta)) * g
        F = poly(t ** int(L * m * theta)) * power(g, m)
        fq = poly(t ** int(L * q * theta)) * power(g, q)
        Fu = du(F)
        R = (
            a * (du(Fu) - (N - 1) * one_minus_u(-1) * Fu)
            + b * (2 / (m - 1) * f + one_minus_u(1) * du(f))
            - one_minus_u(sigma) * fq
        )
        known[(j, k)] = sp.solve(R.as_expr().coeff(t, lead + e), c)[0]
    return known


def test_sympy_derivation_supercritical():
    # m = 25/14, q = 1/2: theta = 2, gamma = 4/7; beta = 1/2 gives A1 = 1,
    # a = 1, b = 1/2 and kappa = A1^{m-1} / beta = 2
    c = sympy_coefficients("25/14", "1/2", 2, 2, 1, "1/2", 7, 4)
    table = _series_table(25 / 14, 0.5, 2, True)
    table.grow(4)
    for (j, k), v in c.items():
        assert table.b[j, k] == pytest.approx(float(v) / 2.0**k, rel=1e-12, abs=0.0)


def test_sympy_derivation_subcritical():
    # m = 13/12, q = 1/4: theta = 12/5, gamma = 4/5 and
    # a = 1/(m theta (m theta - 1)) = 25/104; b = kappa, taken as 1
    c = sympy_coefficients("13/12", "1/4", 1, "12/5", "25/104", 1, 5, 4)
    table = _series_table(13 / 12, 0.25, 1, False)
    table.grow(4)
    for (j, k), v in c.items():
        assert table.b[j, k] == pytest.approx(float(v), rel=1e-12, abs=0.0)


def test_sympy_derivation_critical():
    # m = 3/2, q = 1/2, beta = 1/2: s = A1^{1-q} = 1/3 solves
    # 6 s^2 + s - 1 = 0, so a = s^2 = 1/9 and b = beta s = 1/6
    c = sympy_coefficients("3/2", "1/2", 3, 2, "1/9", "1/6", 1, 0)
    series = InterfaceSeries(make_params(1.5, 0.5, 3), 0.5, 1.0)
    assert series.amplitude == pytest.approx(1.0 / 9.0, rel=1e-15)
    for (j, _), v in c.items():
        assert series.coefficients[j, 0] == pytest.approx(
            float(v), rel=1e-12, abs=0.0
        )


def test_piecewise_runs_each_piece_once_on_its_points():
    calls = []

    def piece(k):
        def run(xi):
            calls.append((k, xi.tolist()))
            return np.full_like(xi, k), -xi
        return run

    dense = piecewise([1.0, 2.0, 3.0], [piece(1), piece(2), piece(3)])
    F, Fp = dense([-1.0, 1.0, 0.5, 2.5, 3.0, 4.0, np.nextafter(3.0, 0.0)])
    assert F.tolist() == [1, 2, 1, 3, 0, 0, 3]
    assert Fp.tolist() == [1.0, -1.0, -0.5, -2.5, 0.0, 0.0, -np.nextafter(3.0, 0.0)]
    assert calls == [
        (1, [-1.0, 0.5]), (2, [1.0]), (3, [2.5, np.nextafter(3.0, 0.0)])
    ]
    calls.clear()
    F, Fp = dense(1.5)
    assert (F.shape, calls) == ((1,), [(2, [1.5])])
    calls.clear()
    assert dense([5.0])[0].tolist() == [0.0] and calls == []
    assert np.isnan(dense([np.nan])).all() and calls == []


def test_product_helper_agrees_with_matmul():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, k, p = rng.integers(1, 20, 3)
        A, x = rng.normal(size=(n, k)), rng.normal(size=k)
        B, S = rng.normal(size=(k, p)), rng.normal(size=(3, n, k))
        for a, b in [(A, x), (x, B), (A, B), (S, x), (S, B), (x, x)]:
            # relative to the sum of the products' magnitudes, which
            # bounds the rounding of any order of summation
            out, scale = _dot(a, b), np.abs(a) @ np.abs(b)
            assert np.shape(out) == np.shape(scale)
            assert np.all(np.abs(out - a @ b) <= 1e-13 * scale)


@pytest.mark.parametrize("start, stop, num", [
    (2e-6, 1e-3, 64), (0.1, 3.0, 80), (1e-3, 1e-9, 40), (1.0, 1.0, 2),
])
def test_log_grid_hits_both_ends_exactly(start, stop, num):
    grid = log_grid(start, stop, num)
    assert (grid[0], grid[-1], len(grid)) == (start, stop, num)
    np.testing.assert_allclose(grid, np.geomspace(start, stop, num), rtol=1e-14)
