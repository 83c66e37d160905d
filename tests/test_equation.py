"""The profile equation and its launch series against closed forms."""

import math

import numpy as np
import pytest

from eternalprofile import (
    exponents_from_beta,
    integrate_limit_profile,
    make_params,
    predict_expansion,
)
from eternalprofile import equation
from eternalprofile._dop853 import solve_ivp
from eternalprofile.asymptotics import K0_constant, K1_constant
from eternalprofile.equation import (
    CRITICAL_ROWS,
    LAUNCH_F,
    LAUNCH_LADDER,
    SERIES_XI0_TOL,
    InterfaceSeries,
    _SeriesTable,
    _dot,
    _lanes,
    _pade,
    _power_weights,
    _series_table,
    launch_distance,
    log_grid,
    origin_series,
    piecewise,
    profile_rhs,
)
from eternalprofile.matching import RTOL

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


#: The 21 critical levels of the benchmark, (q, N) on m = 2 - q.
CRITICAL_LEVELS = [(q, N) for q in (0.22, 0.3, 0.38, 0.46, 0.54, 0.62, 0.7)
                   for N in (1, 2, 3)]


def numpy_column0(table, m, q):
    """Column 0 (g, g^m, g^q) of ``table`` by a numpy loop: each sum is one
    ``_dot`` over every term of its row, zero or not; the reference for
    the plain-float recursion of ``_SeriesTable._column0``."""
    n = table.rows
    X = np.zeros(3 * n)
    G, g, Q = X[:n], X[n : 2 * n], X[2 * n :]
    G[0] = g[0] = Q[0] = 1.0
    zero = np.zeros((n, n))
    lin = np.hstack([
        table.diffusion[0] if table.ed == 0 else zero,
        table.drift[0] if table.eb == 0 else zero,
        -table.absorb,
    ])
    fac = np.diag(lin[:, :n]) * m + np.diag(lin[:, n : 2 * n])
    fac += np.diag(lin[:, 2 * n :]) * q
    Wm, Wq = _power_weights(m, n), _power_weights(q, n)
    for j in range(1, n):
        gg = g[j - 1 : 0 : -1]
        G[j] = _dot(np.array(Wm[j]), gg * G[1:j])
        Q[j] = _dot(np.array(Wq[j]), gg * Q[1:j])
        g[j] = -_dot(lin[j], X) / fac[j]
        G[j] += m * g[j]
        Q[j] += q * g[j]
    return g, G, Q


def critical_table(q, N, beta):
    """The one-column table of the critical line at beta."""
    m, theta = 2.0 - q, 1.0 / (1.0 - q)
    bt, mt = beta * theta, m * theta
    s = 2.0 / (bt + np.sqrt(bt * bt + 4.0 * mt * (mt - 1.0)))
    coeffs = (s * s, 0, beta * s, 0, 1.0)
    return _SeriesTable(m, q, N, theta, 0.0, coeffs, CRITICAL_ROWS, 1)


def test_lanes_sum_as_numpy_does():
    rng = np.random.default_rng(11)
    for n in range(8, 129):
        for _ in range(200):
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
            assert _lanes(x.tolist()) == np.add.reduce(x)


@pytest.mark.parametrize("q, N", CRITICAL_LEVELS)
@pytest.mark.parametrize("scale", [1.0, 0.3, 3.0])
def test_critical_column_is_the_numpy_loop_bit_for_bit(q, N, scale):
    # around beta*, where the critical column is rebuilt for every beta
    _, beta, xi0, _ = critical_profile(q, N)
    table = critical_table(q, N, scale * beta)
    g, G, Q = numpy_column0(table, 2.0 - q, q)
    np.testing.assert_array_equal(table.b[:, 0], g)
    np.testing.assert_array_equal(table.powers[:, 0], [G, Q])
    series = InterfaceSeries(make_params(2.0 - q, q, N), scale * beta, xi0)
    np.testing.assert_array_equal(series.coefficients[:, 0], g)


@pytest.mark.parametrize("m, q, N", [(2.0, 0.5, 1), (2.0, 0.5, 3), (1.2, 0.3, 1)])
def test_table_column_is_the_numpy_loop_bit_for_bit(m, q, N):
    # the super- and sub-critical tables of the reference cases
    table = _series_table(m, q, N, m + q > 2.0)
    g, G, Q = numpy_column0(table, m, q)
    np.testing.assert_array_equal(table.b[:, 0], g)
    np.testing.assert_array_equal(table.powers[:, 0], [G, Q])


def one_column_launch(b, theta, u_floor):
    """u0 by an array pass over every candidate, for a one-column table:
    cut is 1, and the estimate is the last two rows."""
    u = np.append(LAUNCH_LADDER[LAUNCH_LADDER > u_floor], u_floor)
    U = np.float_power(u, np.arange(len(b))[:, None])
    ok = _dot(np.abs(b[-2:]), U[-2:]) * u / theta <= SERIES_XI0_TOL
    return float(u[np.argmax(ok)] if ok.any() else u[-1])


@pytest.mark.parametrize("q, N", CRITICAL_LEVELS)
def test_critical_launch_is_the_array_search(q, N):
    p, beta, xi0, _ = critical_profile(q, N)
    for scale in (1.0, 0.3, 3.0, 30.0):
        series = InterfaceSeries(p, scale * beta, xi0)
        u_floor = launch_distance(series, LAUNCH_F) / xi0
        u0 = one_column_launch(series.coefficients[:, 0], series.theta, u_floor)
        assert series.d0 == u0 * xi0
        assert series.coefficients.shape[1] == 1


#: (beta*, xi0, d0 / xi0, cut) of the matched interface series of the
#: reference cases, the twelve super-critical benchmark levels and the six
#: sub-critical ones: the launch that the search over every candidate finds,
#: and the columns the series keeps (2 PADE_ORDER + 1 where it is summed).
#: (1.6, 0.5, 1), (1.63, 0.5, 2) and (1.69, 0.5, 1) still launch on the
#: floor, from the optimally truncated series.
LAUNCHES = {
    (2.0, 0.5, 1): (0.5138348204161861, 3.200862877332778, 0.02209708691207961, 33),
    (2.0, 0.5, 3): (0.960620634236639, 4.2864609255676065, 0.125, 33),
    (1.5, 0.5, 2): (0.5000000000001162, 2.4494897427833955, 0.25, 1),
    (1.2, 0.3, 1): (0.14127220063317739, 1.5208054398587687, 0.08838834764831845, 6),
    (1.6, 0.5, 1): (0.3225641851229703, 2.484574962059388, 0.0001415443810363053, 1),
    (1.63, 0.5, 2): (0.5797583432009349, 2.7336289867964245, 0.00023498470141562134, 1),
    (1.66, 0.5, 3): (0.7896405118579273, 2.996307409363723, 0.0027621358640099515, 33),
    (1.69, 0.5, 1): (0.36607083691832026, 2.6217219739059625, 0.00018111225251578352, 1),
    (1.72, 0.5, 2): (0.6310837850715802, 2.9541609811576137, 0.00390625, 33),
    (1.75, 0.5, 3): (0.8374826879735212, 3.288865011570985, 0.015625, 33),
    (1.78, 0.5, 1): (0.4092761347351147, 2.7698947484482077, 0.0013810679320049757, 33),
    (1.81, 0.5, 2): (0.680169124839059, 3.198942024529534, 0.015625, 33),
    (1.84, 0.5, 3): (0.8829885633953364, 3.614790612304299, 0.04419417382415922, 33),
    (1.87, 0.5, 1): (0.4522101141259524, 2.9329391029476066, 0.005524271728019904, 33),
    (1.9, 0.5, 2): (0.7276185915188667, 3.471696402347701, 0.04419417382415922, 33),
    (1.93, 0.5, 3): (0.9270213286440854, 3.9772871354669928, 0.0625, 33),
    (1.22, 0.2, 1): (0.16061521089585098, 1.451138190906559, 0.0625, 6),
    (1.26, 0.24, 2): (0.38500103095943455, 1.532720192407877, 0.0625, 8),
    (1.3, 0.2, 3): (0.6755898078462687, 1.538341879898628, 0.0625, 9),
    (1.3, 0.26, 1): (0.19874742437136136, 1.6124657412264602, 0.08838834764831843, 7),
    (1.24, 0.22, 3): (0.5851664715112673, 1.4785398350552814, 0.0625, 8),
    (1.28, 0.28, 2): (0.3951613202901134, 1.6066200968316215, 0.0625, 8),
}


@pytest.mark.parametrize("case", sorted(LAUNCHES))
def test_launch_depth_and_columns_are_pinned(case):
    beta, xi0, u0, cut = LAUNCHES[case]
    series = InterfaceSeries(make_params(*case), beta, xi0)
    assert (series.d0 / xi0, series.coefficients.shape[1]) == (u0, cut)


#: (beta*, xi0) and the launch (d0 / xi0, cut) of the optimally truncated
#: series, which the super-critical series took before it was summed, at
#: five triples where that launch passed its bound above the floor.
TRUNCATED_LAUNCHES = {
    (2.0, 0.5, 1): (0.5138348204161861, 3.200862877332778, 0.005524271728019903, 35),
    (2.0, 0.5, 3): (0.960620634236639, 4.2864609255676065, 0.03125, 29),
    (2.0, 0.7, 1): (0.5027408250733802, 5.966132794892989, 0.08838834764831845, 11),
    (1.75, 0.5, 3): (0.8374826879735212, 3.288865011570985, 0.0009765625, 28),
    (1.81, 0.5, 2): (0.680169124839059, 3.198942024529534, 0.0013810679320049757, 30),
}


@pytest.mark.parametrize("case", sorted(TRUNCATED_LAUNCHES))
def test_summed_launch_continues_the_truncated_one(case):
    # the truncated series, exact to its bound at its deeper launch, and
    # the equation integrated out from there give the summed series' state
    # at its own, shallower launch
    beta, xi0, u_trunc, cut = TRUNCATED_LAUNCHES[case]
    p = make_params(*case)
    series = InterfaceSeries(p, beta, xi0)
    assert series.cut is None and series.d0 > u_trunc * xi0
    table = _series_table(*case, True)
    table.grow(cut)
    b, theta, gamma = table.b[:, :cut], series.theta, series.gamma
    j, k = np.arange(len(b))[:, None], np.arange(cut)
    d = u_trunc * xi0
    mono = u_trunc**j * (series.kappa * u_trunc**gamma) ** k
    g, h = np.sum(mono * b), np.sum(mono * (theta + j + gamma * k) * b)
    f = series.amplitude * d**theta * g
    fd = series.amplitude * d ** (theta - 1.0) * h
    leg = solve_ivp(profile_rhs(p, beta, 1e-280), (xi0 - d, xi0 - series.d0),
                    (f**p.m, -p.m * f ** (p.m - 1.0) * fd), method="DOP853",
                    rtol=RTOL, atol=0.0)
    assert leg.success
    np.testing.assert_allclose(series.launch, leg.y[:, -1], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(series(series.d0), series.launch, rtol=1e-12,
                               atol=0.0)


def series_state(p, beta, xi0):
    """What a backward leg and the dense profile take from a build."""
    series = InterfaceSeries(p, beta, xi0)
    F, Fp = series(series.d0 * np.geomspace(1e-8, 1.0, 9))
    return (series.d0, *series.launch, *F, *Fp, *series.coefficients.shape)


@pytest.mark.parametrize("case", [(2.0, 0.5, 1), (2.0, 0.7, 1), (1.6, 0.5, 1),
                                  (1.2, 0.3, 1), (1.22, 0.2, 1), (1.5, 0.5, 2)])
def test_interface_series_does_not_depend_on_table_history(case):
    # the shared (m, q, N) table grows its columns with the builds it
    # serves; no build may see what came before it
    beta, xi0 = {**TRUNCATED_LAUNCHES, **LAUNCHES}[case][:2]
    p = make_params(*case)
    equation._series_table.cache_clear()
    cold = series_state(p, beta, xi0)
    equation._series_table.cache_clear()
    for b, x in [(3.0 * beta, xi0), (0.3 * beta, 2.0 * xi0),
                 (beta * (1.0 + 1e-3), xi0 * (1.0 - 1e-3)), (beta, 0.5 * xi0)]:
        InterfaceSeries(p, b, x)
    warm = series_state(p, beta, xi0)
    assert [float(v).hex() for v in warm] == [float(v).hex() for v in cold]


def test_pade_sums_the_euler_series():
    # sum (-1)^k k! z^k is the asymptotic series of the Stieltjes integral
    # int_0^inf e^-t / (1 + z t) dt = e^(1/z) E1(1/z) / z; at z = 0.1 its
    # best truncation is off by 2e-4, and [16/16] is exact to rounding
    z = 0.1
    terms = np.array([(-1.0) ** k * math.factorial(k) for k in range(33)])
    exact = 0.9156333393978808   # mpmath: e^10 E1(10) / 0.1
    full, before = _pade(terms[:, None], z)
    assert abs(full[0] / exact - 1.0) < 1e-14
    assert abs(before[0] / exact - 1.0) < 1e-14
    partial = np.cumsum(terms * z ** np.arange(33.0))
    assert np.min(np.abs(partial / exact - 1.0)) > 1e-4


def test_pade_carries_a_converged_sum_on():
    # a geometric series is its own [0/1] approximant: the first even column
    # is exact, its differences vanish, and the value must come through
    # the infinite and undefined entries that follow
    for z in (0.5, 0.25, 1e-9):
        full, before = _pade(np.ones((33, 1)), z)
        assert full[0] == pytest.approx(1.0 / (1.0 - z), rel=1e-15, abs=0.0)
        assert before[0] == pytest.approx(1.0 / (1.0 - z), rel=1e-15, abs=0.0)


def test_equation_calls_no_lapack_or_blas(monkeypatch):
    # the launch series must give the same bits on every CPU, so no
    # np.linalg routine, whose LAPACK or BLAS kernel picks the rounding
    class Refused:
        def __getattr__(self, name):
            raise AssertionError(f"np.linalg.{name} called")

    monkeypatch.setattr(np, "linalg", Refused())
    equation._series_table.cache_clear()     # build the tables here too
    for case, (beta, xi0, *_) in {**LAUNCHES, **TRUNCATED_LAUNCHES}.items():
        p = make_params(*case)
        series = InterfaceSeries(p, beta, xi0)
        series(np.geomspace(1e-9, 1.0, 8) * series.d0)
        InterfaceSeries(p, beta, xi0, series)


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
