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

for the pair (beta, xi0) with a damped Newton iteration.  Every
residual evaluation is a well-conditioned double-precision integration,
and the resulting profile is tangential at the interface by
construction.  The xi0-column of the Jacobian follows in closed form
from the rescaling family of the profile equation, so each Newton step
costs one residual evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._dop853 import solve_ivp
from .asymptotics import predict_expansion
from .equation import (
    dense_from_origin,
    f_from_F,
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

#: DOP853 tolerances of both legs.
RTOL = 1e-12
ATOL = 1e-16
DELTA0 = 1e-6               # forward Taylor launch offset
LAUNCH_F = 1e-6             # profile height at the interface-side launch
TAIL_F = 1e-9               # height of the last stored interface sample
MID_FRAC = 0.5              # matching point as a fraction of xi0
MAX_STEP_FRAC = 1.0 / 256.0  # step cap of the dense legs, relative to xi
XTOL = 1e-13                # Newton stops once each step is <= XTOL |x|
FD_REL_STEP = 1.5e-8        # forward-difference step of the first beta-column
MIN_STEP_FACTOR = 1e-3      # damping below which a Newton step gives up
MAX_NFEV = 100              # residual evaluations per matching solve


@dataclass
class MatchResult:
    """Converged matching parameters and the profile they produce."""

    beta_star: float
    xi0: float
    residual: float
    nfev: int
    success: bool
    profile: Optional[ProfileSolution] = None


def _forward_run(p: Params, beta: float, xi_mid: float, dense=False):
    """Series launch at DELTA0, integrated out to the matching point."""
    sol = solve_ivp(
        profile_rhs(p, beta, _F_FLOOR),
        (DELTA0, xi_mid),
        origin_series(p, beta, DELTA0),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
        dense_output=dense,
        max_step=xi_mid * MAX_STEP_FRAC if dense else np.inf,
    )
    if not sol.success:
        raise StepFailureError(
            f"forward integration failed at beta={beta!r}: {sol.message}"
        )
    return sol


def _backward_run(p: Params, beta: float, xi0: float, dense=False):
    """Tangential-series launch at the interface, integrated to xi_mid."""
    e = exponents_from_beta(p, beta)
    expansion = predict_expansion(p, e, xi0)
    d0 = launch_distance(expansion, LAUNCH_F)
    xi_start = xi0 - d0
    xi_mid = MID_FRAC * xi0
    if not xi_start > xi_mid:
        raise BracketFailure(
            f"interface launch {xi_start} inside matching point {xi_mid}"
        )
    sol = solve_ivp(
        profile_rhs(p, beta, _F_FLOOR),
        (xi_start, xi_mid),
        interface_series(p, expansion, d0),
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
        dense_output=dense,
        max_step=xi0 * MAX_STEP_FRAC if dense else np.inf,
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
    return sol.t, *f_from_F(p.m, sol.y[0], sol.y[1])


def _residuals(p: Params, x):
    """Continuity residual r and its exact xi0-column dr/dxi0, or None
    when a leg fails.

    Because sigma = sigma_c, the rescaling family
    f_A(xi) = A f_1(A^{-(m-1)/2} xi) maps the backward leg with its
    interface at xi0 onto the one with its interface at 1:
    F_b(xi; xi0) = xi0^P F_b(xi / xi0; 1) with P = 2m / (m - 1).  At
    xi_mid = MID_FRAC xi0 this gives dF_b/dxi0 = P F_b / xi0 and
    dF'_b/dxi0 = (P - 1) F'_b / xi0, while the forward end state moves
    along its own trajectory at rate MID_FRAC.  Only the fixed launch
    height LAUNCH_F breaks the symmetry, by ~1e-5 relative in the column.
    """
    beta, xi0 = float(x[0]), float(x[1])
    if beta <= 0.0 or xi0 <= 0.0:
        return None
    xi_mid = MID_FRAC * xi0
    try:
        fwd = _forward_run(p, beta, xi_mid)
        bwd, _, _ = _backward_run(p, beta, xi0)
    except (BracketFailure, StepFailureError):
        return None
    F_f, Fp_f = float(fwd.y[0, -1]), float(fwd.y[1, -1])
    F_b, Fp_b = float(bwd.y[0, -1]), float(bwd.y[1, -1])
    Fpp_f = profile_rhs(p, beta, _F_FLOOR)(xi_mid, (F_f, Fp_f))[1]
    P = 2.0 * p.m / (p.m - 1.0)
    r = np.array([F_f - F_b, Fp_f - Fp_b])
    dr_dxi0 = np.array([
        MID_FRAC * Fp_f - P * F_b / xi0,
        MID_FRAC * Fpp_f - (P - 1.0) * Fp_b / xi0,
    ])
    return r, dr_dxi0


def _newton(p: Params, beta: float, xi0: float):
    """Damped Newton iteration on (beta, xi0) for the continuity residual.

    The xi0-column of the Jacobian is the closed form of ``_residuals``;
    the beta-column starts as one forward difference and is then updated
    by a secant rule on each accepted step that moves beta enough to
    carry information about it (Dennis & Schnabel 1996, ch. 6 and 8).
    A trial that fails or does not lower max|r| halves the step.

    Returns (x, r, nfev, converged).
    """
    x = np.array([beta, xi0])
    nfev = 1
    out = _residuals(p, x)
    if out is None:
        return x, None, nfev, False
    r, j_xi0 = out
    h = FD_REL_STEP * beta
    nfev += 1
    out_h = _residuals(p, (beta + h, xi0))
    if out_h is None:
        return x, r, nfev, False
    j_beta = (out_h[0] - r) / h
    while True:
        try:
            step = -np.linalg.solve(np.column_stack([j_beta, j_xi0]), r)
        except np.linalg.LinAlgError:
            return x, r, nfev, False
        norm = np.max(np.abs(r))
        t = 1.0
        while True:
            dx = t * step
            if np.all(np.abs(dx) <= XTOL * np.abs(x)):
                return x, r, nfev, True
            if t < MIN_STEP_FACTOR or nfev >= MAX_NFEV:
                return x, r, nfev, False
            x_new = x + dx
            nfev += 1
            out = _residuals(p, x_new)
            if out is not None and np.max(np.abs(out[0])) < norm:
                break
            t *= 0.5
        r_new, j_xi0_new = out
        d_beta, d_xi0 = dx
        # a step that hardly moves beta says little about dr/dbeta
        if (
            abs(d_beta / x[0]) >= 0.1 * abs(d_xi0 / x[1])
            and abs(d_beta) > 1e-11 * x[0]
        ):
            j_beta = (r_new - r - 0.5 * (j_xi0 + j_xi0_new) * d_xi0) / d_beta
        x, r, j_xi0 = x_new, r_new, j_xi0_new


def match_profile(p: Params, beta_guess: float, xi0_guess: float) -> MatchResult:
    """Solve the continuity conditions for (beta, xi0) and build the profile.

    ``beta_guess`` and ``xi0_guess`` come from the forward bisection
    stage; convergence is quadratic from any reasonable neighbourhood.
    """
    x, r, nfev, converged = _newton(p, float(beta_guess), float(xi0_guess))
    beta_star, xi0 = float(x[0]), float(x[1])
    residual = float(np.max(np.abs(r))) if r is not None else np.inf
    success = converged and residual < 1e-6
    result = MatchResult(
        beta_star=beta_star,
        xi0=xi0,
        residual=residual,
        nfev=nfev,
        success=success,
    )
    if success:
        result.profile = _assemble_profile(p, beta_star, xi0)
    return result


def _assemble_profile(p: Params, beta: float, xi0: float) -> ProfileSolution:
    """Dense profile at the matched parameters, tangential at xi0."""
    xi_mid = MID_FRAC * xi0
    fwd = _forward_run(p, beta, xi_mid, dense=True)
    bwd, expansion, d0 = _backward_run(p, beta, xi0, dense=True)
    e = exponents_from_beta(p, beta)

    # stitch: forward nodes, backward nodes reversed, then log-spaced
    # tangential-series samples down to TAIL_F at the interface
    grid_f, F_f, Fp_f = fwd.t, fwd.y[0], fwd.y[1]
    grid_b = bwd.t[::-1]
    keep = grid_b > grid_f[-1]
    F_b, Fp_b = bwd.y[0, ::-1][keep], bwd.y[1, ::-1][keep]
    grid_b = grid_b[keep]
    d_tail = launch_distance(expansion, TAIL_F)
    d_ext = np.exp(np.linspace(np.log(d0), np.log(d_tail), 40))[1:]
    F_ext, Fp_ext = interface_series(p, expansion, d_ext)
    grid = np.concatenate([grid_f, grid_b, xi0 - d_ext])
    F_values = np.concatenate([F_f, F_b, F_ext])
    Fp_values = np.concatenate([Fp_f, Fp_b, Fp_ext])

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
        F[outer] = Fp[outer] = 0.0
        inside = outer & (xi < xi0)
        F[inside], Fp[inside] = interface_series(p, expansion, xi0 - xi[inside])
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
        contact_eps=TAIL_F,
        delta0=delta0,
        dense=dense,
    )
