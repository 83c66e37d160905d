"""Command-line interface.

Usage: eternalprofile <mode> --config <path> [--out <dir>] [--plots]
with mode one of solve, classify, asymptotics, phase, verify, sweep.
The command line alone sets the mode, --out (default ".") and --plots.
Sweep mode classifies each job in process and reports the jobs in
input order: the betas of ``sweep_betas`` first, then the triples of
``sweep_params`` at ``beta`` (default 1).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import asymptotics, equation, pdecheck, phasespace, shooting
from .config import INTEGRATOR_KEYS, RunConfig, load_config, validate
from .errors import ProfileError
from .integrate import SLOPE_TOL, IntegratorOptions, integrate_profile
from .model import InterfaceCase, interface_case, make_params, exponents_from_beta
from .report import (
    RunReport,
    collect_versions,
    export_profile_csv,
    write_report,
)
from .solution import ProfileSolution
from .svgplot import line_chart


def _integrator_options(cfg: RunConfig) -> IntegratorOptions:
    return IntegratorOptions(
        **{key: getattr(cfg, key) for key in INTEGRATOR_KEYS}
    )


def _profile_summary(sol: ProfileSolution) -> dict:
    return {
        "classification": sol.classification,
        "stop_reason": sol.stop_reason,
        "xi0": sol.xi0,
        "xi1": sol.xi1,
        "xi_max": sol.xi_max,
        "contact_F": sol.contact_F,
        "contact_slope": sol.contact_slope,
        "f_at_stop": float(sol.f_values[-1]),
        "grid_points": int(len(sol.grid)),
    }


def _solve(cfg: RunConfig) -> shooting.ShootingResult:
    p = make_params(cfg.m, cfg.q, cfg.N)
    return shooting.solve(p, beta_tol=cfg.beta_tol, opts=_integrator_options(cfg))


def _profile_chart(sol: ProfileSolution, title: str) -> tuple:
    xi = np.linspace(0.0, sol.xi_max, 400)
    labels = dict(title=title, xlabel="xi", ylabel="f")
    return "profile.svg", [("f", xi, sol.eval_f(xi))], labels


# Each runner returns (profile for profile.csv or None, chart or None,
# results); a chart is (file name, series, line_chart keywords).


def _run_solve(cfg: RunConfig) -> tuple:
    result = _solve(cfg)
    sol = result.final_profile
    return sol, _profile_chart(sol, "self-similar profile"), {
        "beta_star": result.beta_star,
        "beta_star_str": result.beta_star_str,
        "alpha_star": result.alpha_star,
        "bracket_lo": result.bracket_lo,
        "bracket_hi": result.bracket_hi,
        "iterations": result.iterations,
        "slope_bound": SLOPE_TOL * sol.xi0 ** sol.params.sigma,
        "match_residual": result.match.residual,
        "matched_xi0": result.match.xi0,
        "profile": _profile_summary(sol),
    }


def _run_classify(cfg: RunConfig) -> tuple:
    p = make_params(cfg.m, cfg.q, cfg.N)
    e = exponents_from_beta(p, cfg.beta)
    sol = integrate_profile(p, e, _integrator_options(cfg))
    chart = _profile_chart(sol, f"profile at beta={cfg.beta:g}")
    return sol, chart, {"beta": cfg.beta, "profile": _profile_summary(sol)}


def _run_asymptotics(cfg: RunConfig) -> tuple:
    result = _solve(cfg)
    sol = result.final_profile
    xi0 = float(sol.xi0)
    expansion = asymptotics.predict_expansion(sol.params, sol.exps, xi0)
    sub = interface_case(sol.params) is InterfaceCase.SUB_CRITICAL
    fit = asymptotics.fit_interface(sol, with_second_order=sub)
    bounds = asymptotics.upper_bounds_check(sol)
    lo, hi = fit.fit_window
    d = equation.log_grid(xi0 - hi, xi0 - lo, 80)
    chart = "interface_fit.svg", [
        ("computed", d, sol.eval_f(xi0 - d)),
        ("predicted", d, expansion.amplitude
                      * np.float_power(d, expansion.theta)),
    ], dict(title="interface expansion (log-log)", xlabel="xi0 - xi",
            ylabel="log10 f", logy=True)
    return sol, chart, {
        "beta_star": result.beta_star,
        "xi0_corrected": xi0,
        "predicted": expansion,
        "fitted": fit,
        "bounds": bounds,
    }


def _run_phase(cfg: RunConfig) -> tuple:
    # raises CaseError unless m + q < 2, before the costly solve
    lin = phasespace.linearize_at_origin(make_params(cfg.m, cfg.q, cfg.N))
    result = _solve(cfg)
    sol = result.final_profile
    portrait = phasespace.to_phase_coords(sol)
    tail = phasespace.stable_manifold_ratio(sol)
    limit = phasespace.limit_point_check(portrait)
    identity = phasespace.coordinate_identity_residual(portrait)
    chart = "phase_trajectory.svg", [
        ("Y", portrait.eta_values, portrait.Y_values)
    ], dict(title="phase trajectory", xlabel="eta", ylabel="Y")
    return sol, chart, {
        "beta_star": result.beta_star,
        "eigenvalues": list(lin.eigenvalues),
        "eigenvectors": [v.tolist() for v in lin.eigenvectors],
        "tail": tail,
        "limit_point": limit,
        "coordinate_identity_residual": identity,
        "eta_range": [float(portrait.eta_values[0]), float(portrait.eta_values[-1])],
    }


def _run_verify(cfg: RunConfig) -> tuple:
    result = _solve(cfg)
    sol = result.final_profile
    xi0 = float(sol.xi0)
    xi = np.linspace(0.05 * xi0, 0.9 * xi0, 200)
    ode_res = pdecheck.profile_ode_residual(sol, xi)
    # the origin stencil converges only like h^min(2, sigma) because of
    # the r^{sigma+2} series term of u^m, so the order check stays away
    # from r = 0
    r_grid = np.linspace(0.05 * xi0, 0.5 * xi0, 6)
    pde = pdecheck.pde_residual(sol, [-0.5, 0.0, 0.5], r_grid, h=1e-2)
    trace = pdecheck.eternal_trace(sol, (-2.0, 2.0), 5)
    chart = "residual.svg", [("relative ODE residual", xi, ode_res)], dict(
        title="profile ODE residual", xlabel="xi", ylabel="log10 residual", logy=True
    )
    return sol, chart, {
        "beta_star": result.beta_star,
        "ode_residual_max": float(ode_res.max()),
        "pde_residual": pde,
        "trace": [
            {
                "t": s.t,
                "support_radius": s.support_radius,
                "peak": float(s.u_values.max()),
                "mass": pdecheck.radial_mass(s, sol.params.N),
            }
            for s in trace
        ],
    }


def _run_sweep(cfg: RunConfig) -> tuple:
    opts = _integrator_options(cfg)
    beta = cfg.beta if cfg.beta is not None else 1.0
    points = [(cfg.m, cfg.q, cfg.N, b) for b in cfg.sweep_betas]
    points += [(m, q, N, beta) for m, q, N in cfg.sweep_params]
    jobs = []
    for m, q, N, b in points:
        p = make_params(m, q, N)
        sol = integrate_profile(p, exponents_from_beta(p, b), opts)
        jobs.append({
            "m": m,
            "q": q,
            "N": N,
            "beta": b,
            "classification": sol.classification.value,
            "xi0": sol.xi0,
            "xi1": sol.xi1,
        })
    return None, None, {"jobs": jobs}


_RUNNERS = {
    "solve": _run_solve,
    "classify": _run_classify,
    "asymptotics": _run_asymptotics,
    "phase": _run_phase,
    "verify": _run_verify,
    "sweep": _run_sweep,
}
MODES = tuple(_RUNNERS)


def run(cfg: RunConfig, mode: str, out_dir, plots: bool) -> RunReport:
    """Run ``mode`` on ``cfg`` and write its artifacts into ``out_dir``.

    The profile CSV and the chart are written once the analysis has
    succeeded, so a failed run leaves only its report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(asdict(cfg), mode, versions=collect_versions())
    try:
        profile, chart, report.results = _RUNNERS[mode](cfg)
        if profile is not None:
            export_profile_csv(profile, out / "profile.csv")
        if plots and chart is not None:
            name, series, labels = chart
            line_chart(series, out / name, **labels)
    except ProfileError as exc:
        report.status = "failed"
        report.results = {"error": f"{type(exc).__name__}: {exc}"}
    write_report(report, out / "report.json")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eternalprofile",
        description="Shooting solver for eternal self-similar profiles of "
        "degenerate diffusion with critically weighted strong absorption.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", required=True, help="key=value config file")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument(
            "--plots", action="store_true", help="emit SVG charts"
        )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        validate(cfg, args.mode)
    except ProfileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run(cfg, args.mode, args.out, args.plots)
    if report.status != "ok":
        print(f"error: {report.results.get('error')}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
