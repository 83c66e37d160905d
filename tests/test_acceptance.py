"""Acceptance gate: the twelve headline checks, one test (and one
pass/fail line under ``pytest -v``) per criterion.

Criteria 1-5 and 7-12 exercise the full numerical pipeline on the four
reference parameter sets; criterion 6 sweeps the closed-form
eigenstructure over a grid of sub-critical parameters.
"""

import math

import numpy as np
import pytest

from eternalprofile import (
    InterfaceCase,
    exponents_from_beta,
    fit_interface,
    integrate_limit_profile,
    integrate_profile,
    interface_case,
    launch_curvature,
    linearize_at_origin,
    make_params,
    pde_residual,
    predict_expansion,
    profile_ode_residual,
    rescale_profile,
    stable_manifold_ratio,
    to_phase_coords,
)
from eternalprofile.cli import main as cli_main
from eternalprofile._dop853 import solve_ivp
from eternalprofile.equation import origin_series, profile_rhs
from eternalprofile.integrate import ATOL, DELTA0, absorption_scale
from eternalprofile.phasespace import limit_point_check
from eternalprofile.shooting import monotonicity_check

from conftest import CASES


def _report(criterion, detail):
    print(f"criterion {criterion:2d} PASS  ({detail})")


def test_criterion_01_shooting_convergence(solved):
    details = []
    for case in CASES:
        result = solved[case]
        rel = (result.bracket_hi - result.bracket_lo) / result.beta_star
        assert rel <= 1e-8, f"{case}: bracket width {rel:.2e}"
        sol = result.final_profile
        f_contact = float(sol.f_values[-1])
        assert f_contact <= 1e-6, f"{case}: f at contact {f_contact:.2e}"
        slope = abs(sol.contact_slope)
        bound = 1e-4 * sol.xi0 ** sol.params.sigma
        assert slope <= bound, f"{case}: |F'(xi0)| {slope:.2e}"
        details.append(f"{case}: width {rel:.1e}")
    _report(1, "; ".join(details))


def test_criterion_02_interface_exponent(solved):
    details = []
    for case in CASES:
        sol = solved[case].final_profile
        expn = predict_expansion(sol.params, sol.exps, sol.xi0)
        fit = fit_interface(sol)
        rel = abs(fit.theta_hat / expn.theta - 1.0)
        assert rel <= 0.02, f"{case}: theta_hat off by {rel:.2%}"
        details.append(f"{case}: {rel:.1e}")
    _report(2, "; ".join(details))


def test_criterion_03_interface_amplitude(solved):
    details = []
    for case in CASES:
        sol = solved[case].final_profile
        expn = predict_expansion(sol.params, sol.exps, sol.xi0)
        fit = fit_interface(sol)
        rel = abs(fit.amplitude_hat / expn.amplitude - 1.0)
        assert rel <= 0.05, f"{case}: amplitude off by {rel:.2%}"
        details.append(f"{case}: {rel:.1e}")
    _report(3, "; ".join(details))


def test_criterion_04_second_order_term(solved):
    sol = solved[(1.2, 0.3, 1)].final_profile
    assert interface_case(sol.params) is InterfaceCase.SUB_CRITICAL
    expn = predict_expansion(sol.params, sol.exps, sol.xi0)
    fit = fit_interface(sol)
    rel = abs(fit.second_order_hat / expn.second_order_coeff - 1.0)
    assert rel <= 0.10, f"second-order coefficient off by {rel:.2%}"
    _report(4, f"(1.2,0.3,1): {rel:.1e}")


def test_criterion_05_phase_space_limit(solved):
    result = solved[(1.2, 0.3, 1)]
    sol = result.final_profile
    portrait = to_phase_coords(sol)
    end = limit_point_check(portrait)
    y_gap = abs(end.Y_end - end.Y_target)
    assert y_gap <= 1e-3, f"|Y_end - Y*| = {y_gap:.2e}"
    assert abs(end.X_end) <= 1e-2
    assert abs(end.Z_end) <= 1e-2
    tail = stable_manifold_ratio(sol)
    assert tail.W_over_Z_deviation <= 0.05, (
        f"W/Z {tail.W_over_Z:.4f} vs {tail.W_over_Z_predicted:.4f}"
    )
    _report(
        5,
        f"|Y gap| {y_gap:.1e}, W/Z deviation {tail.W_over_Z_deviation:.1e}",
    )


def test_criterion_06_eigenstructure():
    worst_closed, worst_numeric = 0.0, 0.0
    for m in np.linspace(1.05, 1.6, 5):
        for q in np.linspace(0.05, 0.35, 5):
            for N in (1, 3):
                p = make_params(float(m), float(q), N)
                assert interface_case(p) is InterfaceCase.SUB_CRITICAL
                lin = linearize_at_origin(p)
                for lam, vec in zip(lin.eigenvalues, lin.eigenvectors):
                    gap = np.max(np.abs(lin.matrix @ vec - lam * vec))
                    worst_closed = max(worst_closed, gap)
                numeric = np.sort(np.linalg.eigvals(lin.matrix).real)
                gap = np.max(
                    np.abs(numeric - np.sort(lin.eigenvalues))
                )
                worst_numeric = max(worst_numeric, gap)
    assert worst_closed <= 1e-12
    assert worst_numeric <= 1e-10
    _report(6, f"closed form {worst_closed:.1e}, eigensolve {worst_numeric:.1e}")


def test_criterion_07_residuals(solved):
    worst = 0.0
    for case in CASES:
        sol = solved[case].final_profile
        xi = np.linspace(0.05 * sol.xi0, 0.95 * sol.xi0, 200)
        res = float(profile_ode_residual(sol, xi).max())
        assert res <= 1e-6, f"{case}: ODE residual {res:.2e}"
        worst = max(worst, res)
    sol = solved[(2.0, 0.5, 1)].final_profile
    r_grid = np.linspace(0.05 * sol.xi0, 0.5 * sol.xi0, 6)
    report = pde_residual(sol, [-0.5, 0.0, 0.5], r_grid)
    assert all(1.7 <= o <= 2.3 for o in report.orders), report.orders
    _report(
        7,
        f"ODE residual {worst:.1e}, FD orders "
        + ", ".join(f"{o:.2f}" for o in report.orders),
    )


def test_criterion_08_monotonicity():
    p = make_params(2.0, 0.5, 1)
    betas = [0.25, 0.5, 1.0, 2.0]
    worst = 0.0
    for i, b1 in enumerate(betas):
        for b2 in betas[i + 1:]:
            rep = monotonicity_check(p, b1, b2)
            assert rep.passed, f"({b1}, {b2}): min gap {rep.min_gap:.2e}"
            worst = min(worst, rep.min_gap)
    _report(8, f"worst signed gap {worst:.1e} >= -1e-9")


def test_criterion_09_rescaling_family(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    details = []
    for a in (0.5, 2.0, 4.0):
        g = rescale_profile(sol, a)
        assert g.f0 == a  # exact, not approximate
        xi = np.linspace(0.05 * g.xi0, 0.95 * g.xi0, 200)
        res = float(profile_ode_residual(g, xi).max())
        assert res <= 1e-6, f"a={a}: residual {res:.2e}"
        details.append(f"a={a:g}: {res:.1e}")
    _report(9, "; ".join(details))


def test_criterion_10_launch_correctness():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10):
        m = float(rng.uniform(1.1, 3.0))
        q = float(rng.uniform(0.1, 0.9))
        N = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.05, 2.0))
        p = make_params(m, q, N)
        sol = integrate_profile(p, exponents_from_beta(p, beta))
        target = -2.0 * beta / ((m - 1.0) * N)
        rel = abs(launch_curvature(sol) / target - 1.0)
        assert rel <= 1e-6, f"(m={m:.3f}, q={q:.3f}, N={N}): {rel:.2e}"
        worst = max(worst, rel)
    _report(10, f"worst relative error {worst:.1e} over 10 draws")


def test_criterion_11_limit_problem():
    # the forward run at beta = 1e-3 is followed past its slope event,
    # where integrate_profile stops, out to the horizon
    p = make_params(2.0, 0.5, 1)
    beta = 1e-3
    horizon = 50.0 * absorption_scale(p)
    prof = solve_ivp(
        profile_rhs(p, beta, 0.0),
        (DELTA0, horizon),
        list(origin_series(p, beta, DELTA0)),
        method="DOP853",
        rtol=1e-10,
        atol=ATOL,
        dense_output=True,
    )
    lim = integrate_limit_profile(p, horizon)
    delta = 0.5 * lim.horizon
    xi = np.linspace(0.0, delta, 400)
    # the run starts at DELTA0, where F differs from F(0) = 1 by 1e-15
    F = prof.sol(np.maximum(xi, DELTA0))[0]
    H, _ = lim.eval_H(xi)
    rel = float(np.max(np.abs(F - H) / np.abs(H)))
    assert rel <= 0.01, f"deviation {rel:.2%} on [0, {delta:.2f}]"
    _report(11, f"max relative deviation {rel:.1e} on [0, {delta:.1f}]")


def test_criterion_12_determinism(tmp_path):
    for m, q, N in CASES:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"m = {m}\nq = {q}\nN = {N}\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli_main(
                ["solve", "--config", str(cfg), "--out", str(out)]
            ) == 0
        for name in ("profile.csv", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"({m}, {q}, {N}): {name} differs between runs"
            )
    _report(12, "CSV and JSON byte-identical across repeated runs")
