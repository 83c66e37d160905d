"""Assembled solution checks: residual oracles, curvature, snapshots."""

import math

import numpy as np
import pytest

from eternalprofile import (
    DomainError,
    exponents_from_beta,
    eval_solution,
    integrate_profile,
    launch_curvature,
    make_params,
    pde_residual,
    profile_ode_residual,
    rescale_profile,
)
from eternalprofile.errors import RegionError
from eternalprofile.pdecheck import (
    eternal_trace,
    interface_slope_integral,
    radial_mass,
    support_radius,
)


def test_eval_solution_self_similar_form(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    e = sol.exps
    t, r = 0.7, 1.1
    expected = math.exp(-e.alpha * t) * float(
        sol.eval_f(r * math.exp(e.beta * t))
    )
    assert eval_solution(sol, t, r) == pytest.approx(expected, rel=1e-14)


def test_support_shrinks_exponentially(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    r0 = support_radius(sol, 0.0)
    r1 = support_radius(sol, 1.0)
    assert r0 == pytest.approx(sol.xi0)
    assert r1 == pytest.approx(sol.xi0 * math.exp(-sol.exps.beta), rel=1e-14)
    assert eval_solution(sol, 1.0, r1 * 1.01) == 0.0


def test_profile_ode_residual_small_inside(solved):
    for case, result in solved.items():
        sol = result.final_profile
        xi = np.linspace(0.05 * sol.xi0, 0.95 * sol.xi0, 200)
        res = profile_ode_residual(sol, xi)
        assert float(res.max()) <= 1e-6, case


def test_profile_ode_residual_second_order_in_delta(solved):
    sol = solved[(1.2, 0.3, 1)].final_profile
    xi = np.linspace(0.1 * sol.xi0, 0.9 * sol.xi0, 50)
    r1 = profile_ode_residual(sol, xi, delta=1e-3).max()
    r2 = profile_ode_residual(sol, xi, delta=5e-4).max()
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_pde_residual_orders_second_order(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    r_grid = np.linspace(0.05 * sol.xi0, 0.5 * sol.xi0, 4)
    report = pde_residual(sol, [0.0], r_grid, h=1e-2)
    assert all(1.7 <= o <= 2.3 for o in report.orders)
    assert report.max_relative < 1e-2


def test_pde_residual_guards_interface_stencils(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    with pytest.raises(RegionError):
        pde_residual(sol, [0.0], [sol.xi0 * 0.999], h=1e-2)


def test_launch_curvature_matches_initial_condition():
    rng = np.random.default_rng(20240817)
    for _ in range(10):
        m = float(rng.uniform(1.1, 3.0))
        q = float(rng.uniform(0.1, 0.9))
        N = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.05, 2.0))
        p = make_params(m, q, N)
        sol = integrate_profile(p, exponents_from_beta(p, beta))
        target = -2.0 * beta / ((m - 1.0) * N)
        assert launch_curvature(sol) == pytest.approx(target, rel=1e-6)


def test_rescale_profile_scales_ode_consistently(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    g = rescale_profile(sol, 2.0)
    assert g.f0 == 2.0
    xi = np.linspace(0.05 * g.xi0, 0.95 * g.xi0, 100)
    assert profile_ode_residual(g, xi).max() <= 1e-6
    with pytest.raises(DomainError):
        rescale_profile(sol, -1.0)


def test_eternal_trace_support_and_mass(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    samples = eternal_trace(sol, (-1.0, 1.0), 3)
    radii = [s.support_radius for s in samples]
    assert radii[0] > radii[1] > radii[2] > 0
    for s in samples:
        assert float(s.u_values[-1]) == 0.0  # beyond the support
        assert radial_mass(s, sol.params.N) > 0
    with pytest.raises(DomainError):
        eternal_trace(sol, (0.0, 1.0), 1)


def test_interface_slope_integral_agrees_with_contact_slope(solved):
    # the integral identity gives F'(xi0) without differentiating
    for case, result in solved.items():
        sol = result.final_profile
        est = interface_slope_integral(sol)
        bound = 1e-4 * sol.xi0 ** sol.params.sigma
        assert abs(est) <= bound, f"{case}: {est:.3e} > {bound:.3e}"
