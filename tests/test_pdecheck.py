"""Assembled solution checks: residual oracles, curvature, snapshots."""

import math
import warnings

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
from eternalprofile import pdecheck
from eternalprofile.errors import RegionError
from eternalprofile.pdecheck import (
    eternal_trace,
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


def test_profile_ode_residual_second_order_in_delta(solved, monkeypatch):
    sol = solved[(1.2, 0.3, 1)].final_profile
    xi = np.linspace(0.1 * sol.xi0, 0.9 * sol.xi0, 50)
    monkeypatch.setattr(pdecheck, "ODE_DELTA", 1e-3)
    r1 = profile_ode_residual(sol, xi).max()
    monkeypatch.setattr(pdecheck, "ODE_DELTA", 5e-4)
    r2 = profile_ode_residual(sol, xi).max()
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_pde_residual_orders_second_order(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    r_grid = np.linspace(0.05 * sol.xi0, 0.5 * sol.xi0, 4)
    report = pde_residual(sol, [0.0], r_grid)
    assert all(1.7 <= o <= 2.3 for o in report.orders)
    assert report.max_relative < 1e-2


def test_pde_residual_guards_interface_stencils(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    with pytest.raises(RegionError):
        pde_residual(sol, [0.0], [sol.xi0 * 0.999])


def reference_pde_residual(profile, t_grid, r_grid, h):
    """The residual point by point, one evaluation per stencil node, as
    ``pde_residual`` computed it before it evaluated whole radial grids."""
    sigma, q, m, N = (profile.params.sigma, profile.params.q,
                      profile.params.m, profile.params.N)

    def Um(t, rr):
        return eval_solution(profile, t, rr) ** m

    def laplacian(t, r, step):
        if r == 0.0:
            return 2.0 * N * (Um(t, step) - Um(t, 0.0)) / step**2
        lap = (Um(t, r + step) - 2.0 * Um(t, r) + Um(t, r - step)) / step**2
        if N > 1:
            lap += (N - 1) / r * (Um(t, r + step) - Um(t, r - step)) / (2.0 * step)
        return lap

    def sweep(step):
        res, rel = [], []
        for t in t_grid:
            sr = support_radius(profile, t)
            for r in r_grid:
                if r < 0:
                    raise DomainError(f"negative radius {r}")
                if 0.0 < r < step:
                    raise RegionError(
                        f"stencil at r={r} straddles the origin (h={step})"
                    )
                if r + 5.0 * step > sr:
                    raise RegionError(
                        f"stencil at r={r} within 5 widths "
                        f"of the interface r={sr} at t={t}"
                    )
                u_t = (eval_solution(profile, t + step, r)
                       - eval_solution(profile, t - step, r)) / (2.0 * step)
                lap = laplacian(t, r, step)
                u = eval_solution(profile, t, r)
                absorb = r**sigma * u**q
                value = u_t - lap + absorb
                scale = max(abs(u_t), abs(lap), abs(absorb), 1e-30)
                res.append(value)
                rel.append(abs(value) / scale)
        res = np.asarray(res)
        return (float(np.max(np.abs(res))), float(np.sqrt(np.mean(res**2))),
                float(np.max(rel)))

    fields = sweep(h)
    orders, prev, step = [], fields[0], h
    for _ in range(2):
        step /= 2.0
        cur = sweep(step)[0]
        orders.append(math.log2(prev / cur) if cur > 0 else float("inf"))
        prev = cur
    return fields, tuple(orders)


@pytest.mark.parametrize("case", [(2.0, 0.5, 1), (2.0, 0.5, 3)])
@pytest.mark.parametrize("with_axis", [False, True])
def test_pde_residual_matches_the_pointwise_loop(solved, case, with_axis):
    # u^m differs from the loop's float power by an ulp here and there,
    # and the stencil divides that by h^2
    sol = solved[case].final_profile
    r_grid = np.linspace(0.05 * sol.xi0, 0.5 * sol.xi0, 6)
    if with_axis:
        r_grid = np.concatenate([[0.0], r_grid])
    t_grid = [-0.5, 0.0, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = pde_residual(sol, t_grid, r_grid)
    fields, orders = reference_pde_residual(sol, t_grid, list(r_grid), 1e-2)
    assert (report.max_residual, report.rms_residual,
            report.max_relative) == pytest.approx(fields, rel=1e-7)
    assert report.orders == pytest.approx(orders, abs=1e-4)


@pytest.mark.parametrize(
    "r_grid",
    [
        [0.1, -0.2, -0.3],          # negative
        [0.0, 0.1, 0.003, 0.002],   # straddles the origin
        [0.1, 0.9, 0.999],          # within 5 widths of the interface
    ],
)
def test_pde_residual_reports_the_first_offending_radius(solved, r_grid):
    sol = solved[(2.0, 0.5, 1)].final_profile
    r_grid = [r * sol.xi0 for r in r_grid]
    errors = []
    for check in (pde_residual,
                  lambda *args: reference_pde_residual(*args, 1e-2)):
        with pytest.raises((DomainError, RegionError)) as info:
            check(sol, [0.0, 0.5], r_grid)
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]


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


def interface_slope_integral(sol):
    """F'(xi0) from the integral identity

        F'(xi0) = xi0^{1-N} int_0^{xi0} s^{N-1} [s^sigma f^q - (alpha+N beta) f] ds,

    evaluated by composite Simpson quadrature on 4097 nodes of the dense
    output plus the closed-form contribution of the series launch segment
    [0, grid[0]].
    """
    from scipy.integrate import simpson

    p, e = sol.params, sol.exps
    N, sigma = p.N, p.sigma
    coef = e.alpha + N * e.beta
    d0, end = float(sol.grid[0]), float(sol.grid[-1])
    xi = np.linspace(d0, end, 4097)
    f = sol.eval_f(xi)
    integrand = xi ** (N - 1) * (xi**sigma * f**p.q - coef * f)
    total = simpson(integrand, x=xi)
    # launch segment with f ~ f0
    total += sol.f0**p.q * d0 ** (N + sigma) / (N + sigma)
    total -= coef * sol.f0 * d0**N / N
    return float(sol.xi0 ** (1 - N) * total)


def test_interface_slope_integral_agrees_with_contact_slope(solved):
    # the integral identity gives F'(xi0) without differentiating
    for case, result in solved.items():
        sol = result.final_profile
        est = interface_slope_integral(sol)
        bound = 1e-4 * sol.xi0 ** sol.params.sigma
        assert abs(est) <= bound, f"{case}: {est:.3e} > {bound:.3e}"


def test_support_and_pde_residual_need_an_interface(no_contact):
    with pytest.raises(DomainError, match="no finite support endpoint"):
        support_radius(no_contact, 0.0)
    with pytest.raises(DomainError, match="compactly supported"):
        pde_residual(no_contact, [0.0], [0.5])
