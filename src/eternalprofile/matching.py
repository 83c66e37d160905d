"""Two-sided matching solve for the tangential profile.

Forward shooting cannot resolve the tangential contact sharply: nearby
trajectories separate like exp(c / sqrt(xi0 - xi)) as they approach the
interface, so the contact slope decreases only as a small power of the
bracket width and double precision stalls far from the tangency
tolerance.  Integrating toward the interface is ill-conditioned, but
integrating *away* from it is not: the same separation rate becomes
damping.  This module therefore shoots from both regular endpoints --
forward from the origin with the Taylor launch, and backward from the
interface with the known tangential expansion f ~ A (xi0 - xi)^theta --
and solves the continuity conditions

    F_forward(xi_mid) = F_backward(xi_mid),
    F'_forward(xi_mid) = F'_backward(xi_mid),      xi_mid = xi0 / 2,

for the pair (beta, xi0) with a quasi-Newton root finder.  Every
residual evaluation is a well-conditioned double-precision integration,
and the resulting profile is tangential at the interface by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import root

from ._dop853 import solve_ivp
from .asymptotics import predict_expansion
from .equation import (
    dense_from_origin,
    interface_series,
    launch_distance,
    origin_series,
    profile_rhs,
)
from .errors import BracketFailure, StepFailureError
from .model import Params, exponents_from_beta
from .solution import Classification, ProfileSolution, StopReason


#: Clamp on F inside the right-hand side; far below any stored profile
#: value, it only keeps overshooting trial stages finite.
_F_FLOOR = 1e-280


@dataclass(frozen=True)
class MatchOptions:
    """Knobs for the two-sided matching stage."""

    rtol: float = 1e-12
    atol: float = 1e-16
    delta0: float = 1e-6        # forward Taylor launch offset
    launch_f: float = 1e-6      # profile height at the interface-side launch
    tail_f: float = 1e-9        # height of the last stored interface sample
    mid_frac: float = 0.5       # matching point as a fraction of xi0
    max_step_frac: float = 1.0 / 256.0
    xtol: float = 1e-13


@dataclass
class MatchResult:
    """Converged matching parameters and the profile they produce."""

    beta_star: float
    xi0: float
    residual: float
    nfev: int
    success: bool
    profile: Optional[ProfileSolution] = None


def _forward_run(
    p: Params, beta: float, xi_mid: float, opts: MatchOptions, dense=False
):
    """Series launch at delta0, integrated out to the matching point."""
    d0 = opts.delta0
    sol = solve_ivp(
        profile_rhs(p, beta, _F_FLOOR),
        (d0, xi_mid),
        origin_series(p, beta, d0),
        method="DOP853",
        rtol=opts.rtol,
        atol=opts.atol,
        dense_output=dense,
        max_step=xi_mid * opts.max_step_frac if dense else np.inf,
    )
    if not sol.success:
        raise StepFailureError(
            f"forward integration failed at beta={beta!r}: {sol.message}"
        )
    return sol


def _backward_run(
    p: Params, beta: float, xi0: float, opts: MatchOptions, dense=False
):
    """Tangential-series launch at the interface, integrated to xi_mid."""
    e = exponents_from_beta(p, beta)
    expansion = predict_expansion(p, e, xi0)
    d0 = launch_distance(expansion, opts.launch_f)
    xi_start = xi0 - d0
    xi_mid = opts.mid_frac * xi0
    if not xi_start > xi_mid:
        raise BracketFailure(
            f"interface launch {xi_start} inside matching point {xi_mid}"
        )
    sol = solve_ivp(
        profile_rhs(p, beta, _F_FLOOR),
        (xi_start, xi_mid),
        interface_series(p, expansion, d0),
        method="DOP853",
        rtol=opts.rtol,
        atol=opts.atol,
        dense_output=dense,
        max_step=xi0 * opts.max_step_frac if dense else np.inf,
    )
    if not sol.success:
        raise StepFailureError(
            f"backward integration failed at beta={beta!r}, xi0={xi0!r}: "
            f"{sol.message}"
        )
    return sol, expansion, d0


def interface_samples(
    p: Params,
    beta: float,
    xi0: float,
    d_values: np.ndarray,
    launch_f: float = 1e-13,
    rtol: float = 1e-12,
):
    """Profile samples f(xi0 - d) at prescribed distances from the interface.

    Integrates in the shifted variable s = xi0 - xi, which keeps the step
    size resolvable in floating point arbitrarily close to the interface,
    and with a stiff solver: the mode that separates forward trajectories
    decays in this direction, but its rate ~ s^{-3/2} still caps explicit
    steps.  Samples are taken on the way out, so they are produced by the
    equation rather than by the launch series (the launch sits at
    f = launch_f, well below any reasonable d_values).

    Returns (d, f, fprime_wrt_xi) restricted to d > launch distance.
    """
    e = exponents_from_beta(p, beta)
    expansion = predict_expansion(p, e, xi0)
    d0 = launch_distance(expansion, launch_f)
    d_values = np.sort(np.asarray(d_values, dtype=float))
    keep = (d_values > 2.0 * d0) & (d_values < xi0)
    d_eval = d_values[keep]
    if d_eval.size == 0:
        raise BracketFailure(
            f"no sample distances above the launch distance {d0:.3e}"
        )
    rhs_xi = profile_rhs(p, beta, _F_FLOOR)

    def rhs_s(s, y):
        Fp, Fpp = rhs_xi(xi0 - s, y)
        return (-Fp, -Fpp)

    y0 = interface_series(p, expansion, d0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_ivp(
            rhs_s,
            (d0, float(d_eval[-1])),
            y0,
            method="LSODA",
            rtol=rtol,
            atol=0.0,
            t_eval=d_eval,
        )
    if not sol.success:
        raise StepFailureError(
            f"interface sampling failed at beta={beta!r}, xi0={xi0!r}: "
            f"{sol.message}"
        )
    F = np.clip(sol.y[0], 0.0, None)
    Fp = sol.y[1]
    f = F ** (1.0 / p.m)
    fp = Fp * np.where(f > 0.0, f, 1.0) ** (1.0 - p.m) / p.m
    return sol.t, f, fp


def _residuals(p: Params, x, opts: MatchOptions):
    beta, xi0 = float(x[0]), float(x[1])
    if beta <= 0.0 or xi0 <= 0.0:
        return np.array([1e3, 1e3])
    try:
        fwd = _forward_run(p, beta, opts.mid_frac * xi0, opts)
        bwd, _, _ = _backward_run(p, beta, xi0, opts)
    except (BracketFailure, StepFailureError):
        return np.array([1e3, 1e3])
    return np.array(
        [
            float(fwd.y[0, -1]) - float(bwd.y[0, -1]),
            float(fwd.y[1, -1]) - float(bwd.y[1, -1]),
        ]
    )


def match_profile(
    p: Params,
    beta_guess: float,
    xi0_guess: float,
    opts: MatchOptions = MatchOptions(),
) -> MatchResult:
    """Solve the continuity conditions for (beta, xi0) and build the profile.

    ``beta_guess`` and ``xi0_guess`` come from the forward bisection
    stage; convergence is quadratic from any reasonable neighbourhood.
    """
    res = root(
        lambda x: _residuals(p, x, opts),
        x0=np.array([beta_guess, xi0_guess]),
        method="hybr",
        options={"xtol": opts.xtol},
    )
    beta_star, xi0 = float(res.x[0]), float(res.x[1])
    residual = float(np.max(np.abs(res.fun)))
    success = bool(res.success) and residual < 1e-6
    result = MatchResult(
        beta_star=beta_star,
        xi0=xi0,
        residual=residual,
        nfev=int(res.nfev),
        success=success,
    )
    if success:
        result.profile = _assemble_profile(p, beta_star, xi0, opts)
    return result


def _assemble_profile(
    p: Params, beta: float, xi0: float, opts: MatchOptions
) -> ProfileSolution:
    """Dense profile at the matched parameters, tangential at xi0."""
    xi_mid = opts.mid_frac * xi0
    fwd = _forward_run(p, beta, xi_mid, opts, dense=True)
    bwd, expansion, d0 = _backward_run(p, beta, xi0, opts, dense=True)
    e = exponents_from_beta(p, beta)

    # stitch: forward nodes, backward nodes reversed, then log-spaced
    # tangential-series samples down to tail_f at the interface
    grid_f, F_f, Fp_f = fwd.t, fwd.y[0], fwd.y[1]
    grid_b = bwd.t[::-1]
    keep = grid_b > grid_f[-1]
    F_b, Fp_b = bwd.y[0, ::-1][keep], bwd.y[1, ::-1][keep]
    grid_b = grid_b[keep]
    d_tail = launch_distance(expansion, opts.tail_f)
    d_ext = np.exp(np.linspace(np.log(d0), np.log(d_tail), 40))[1:]
    ext = np.array([interface_series(p, expansion, d) for d in d_ext])
    grid = np.concatenate([grid_f, grid_b, xi0 - d_ext])
    F_values = np.concatenate([F_f, F_b, ext[:, 0]])
    Fp_values = np.concatenate([Fp_f, Fp_b, ext[:, 1]])

    delta0 = float(grid_f[0])
    xi_launch = float(bwd.t[0])
    dense_f = dense_from_origin(p, beta, delta0, fwd.sol)
    dense_b = bwd.sol

    def dense(xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        F = np.empty_like(xi)
        Fp = np.empty_like(xi)
        fpart = xi <= xi_mid
        bpart = (xi > xi_mid) & (xi <= xi_launch)
        outer = xi > xi_launch
        if fpart.any():
            F[fpart], Fp[fpart] = dense_f(xi[fpart])
        if bpart.any():
            F[bpart], Fp[bpart] = dense_b(xi[bpart])
        if outer.any():
            d = np.clip(xi0 - xi[outer], 0.0, None)
            for i, di in zip(np.flatnonzero(outer), d):
                F[i], Fp[i] = (
                    interface_series(p, expansion, di) if di > 0 else (0.0, 0.0)
                )
        return F, Fp

    return ProfileSolution(
        params=p,
        exps=e,
        grid=grid,
        F_values=F_values,
        Fprime_values=Fp_values,
        xi0=xi0,
        xi1=xi0,
        xi_max=float(grid[-1]),
        classification=Classification.CANDIDATE_B,
        stop_reason=StopReason.CONTACT_ZERO,
        contact_eps=opts.tail_f,
        delta0=delta0,
        dense=dense,
    )
