"""Two-sided matching solve for the tangential profile.

Forward shooting cannot resolve the tangential contact sharply: nearby
trajectories separate like exp(c / sqrt(xi0 - xi)) as they approach the
interface, so the contact slope decreases only as a small power of the
bracket width and double precision stalls far from the tangency
tolerance.  Integrating toward the interface is ill-conditioned, but
integrating *away* from it is not: the same separation rate becomes
damping.  This module therefore shoots from both regular endpoints --
forward from the origin with the Taylor launch, and backward from the
interface with the high-order tangential series
f = A (xi0 - xi)^theta g((xi0 - xi) / xi0) of ``equation.InterfaceSeries``,
launched as far out as the truncated series is exact to ~1e-14 in xi0 --
and solves the continuity conditions

    F_forward(xi_mid) = F_backward(xi_mid),
    F'_forward(xi_mid) = F'_backward(xi_mid),      xi_mid = xi0 / 2,

for the pair (beta, xi0) with a damped Newton iteration.  Every
residual evaluation is a well-conditioned double-precision integration,
and the resulting profile is tangential at the interface by
construction.  The xi0-column of the Jacobian follows in closed form
from the rescaling family of the profile equation, so each Newton step
costs one residual evaluation.

The legs cost what their accuracy asks for, not what stiffness asks
for, so Newton starts loose (an inexact Newton method: Dembo, Eisenstat
& Steihaug 1982; Deuflhard 2004).  Both legs run at LOOSE_RTOL until a
step is below LOOSE_XTOL, near the accuracy of the loose residual, so
the cheap stage converges as far as it can before the RTOL legs, 3-5x
the cost per evaluation, take over; the residual is then re-evaluated
in place at RTOL and the same iteration goes on to the XTOL stop, so
the converged point is the one a tight-only iteration finds.  The RTOL
legs keep their dense output, and the profile is built from those of
that point.  ``seed_xi0`` gives Newton its xi0 from the same rescaling
family, with one backward leg on a forward run already made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._dop853 import brentq, halve_long_steps, sample, solve_ivp
from .equation import (
    InterfaceSeries,
    f_from_F,
    launch_distance,
    log_grid,
    origin_series,
    piecewise,
    profile_rhs,
)
from .errors import BracketFailure, StepFailureError
from .integrate import ATOL, DELTA0
from .model import Params, exponents_from_beta
from .solution import Classification, ProfileSolution, StopReason


#: Clamp on F inside the right-hand side; far below any stored profile
#: value, it only keeps overshooting trial stages finite.
_F_FLOOR = 1e-280

#: DOP853 rtol of both legs (their atol is integrate's ATOL).
RTOL = 1e-12
LAUNCH_F = 1e-6             # floor of the interface-side launch, in A d^theta
TAIL_F = 1e-9               # height of the last stored interface sample
MID_FRAC = 0.5              # matching point as a fraction of xi0
MAX_STEP_FRAC = 1.0 / 256.0  # spacing of the stored grid, relative to xi
XTOL = 1e-13                # Newton stops once each step is <= XTOL |x|
LOOSE_RTOL = 1e-6           # rtol of both legs in Newton's first iterations
LOOSE_XTOL = 1e-8           # the legs tighten to RTOL once a step is <= this
LOOSE_FD_REL_STEP = 1e-3    # sqrt(LOOSE_RTOL): step of the first beta-column
MIN_STEP_FACTOR = 1e-3      # damping below which a Newton step gives up
MAX_NFEV = 100              # residual evaluations per matching solve


@dataclass
class MatchResult:
    """Converged matching parameters and the profile they produce."""

    beta_star: float
    xi0: float
    residual: float
    nfev: int               # residual evaluations, loose and tight
    success: bool
    profile: Optional[ProfileSolution] = None


def _leg(rhs, t_span, y0, rtol, direction, beta, xi0):
    """One leg of the profile equation at ``rtol``, dense only at RTOL."""
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=rtol,
                    atol=ATOL, dense_output=rtol == RTOL)
    if not sol.success:
        raise StepFailureError(
            f"{direction} integration failed at beta={beta!r}, "
            f"xi0={xi0!r}: {sol.message}"
        )
    return sol


def _backward_leg(p: Params, beta: float, xi0: float, rtol: float, rhs):
    """Backward leg from the interface series at d0 = u0 xi0 to
    xi_mid = MID_FRAC xi0; returns (run, the interface series)."""
    series = InterfaceSeries(p, beta, xi0, LAUNCH_F)
    xi_start, xi_mid = xi0 - series.d0, MID_FRAC * xi0
    if not xi_start > xi_mid:
        raise BracketFailure(
            f"interface launch {xi_start} inside matching point {xi_mid}"
        )
    bwd = _leg(rhs, (xi_start, xi_mid), series(series.d0), rtol, "backward",
               beta, xi0)
    return bwd, series


def _legs(p: Params, beta: float, xi0: float, rtol: float):
    """Forward leg from the origin series at DELTA0 and the backward leg,
    both integrated to xi_mid.

    Returns (forward run, backward run, the interface series, the
    right-hand side of both legs).
    """
    rhs = profile_rhs(p, beta, _F_FLOOR)
    fwd = _leg(rhs, (DELTA0, MID_FRAC * xi0), origin_series(p, beta, DELTA0),
               rtol, "forward", beta, xi0)
    bwd, series = _backward_leg(p, beta, xi0, rtol, rhs)
    return fwd, bwd, series, rhs


def seed_xi0(p: Params, run: ProfileSolution, rtol: float) -> float:
    """xi0 at the forward ``run``'s beta from the rescaling family.

    One backward leg at ``rtol``, with its interface at the run's stop
    point xi_n, gives the backward F at the matching point for every
    xi0: F_b(MID_FRAC xi0; xi0) = (xi0 / xi_n)^P F_b(MID_FRAC xi_n; xi_n)
    (see ``_residuals``).  The seed is the xi0 at which the run's own
    dense F meets it, a root found by ``brentq`` in plain floats on the
    run's interpolant; no forward run is added.  A leg that fails, or no
    root inside the run, raises BracketFailure naming the seed.
    """
    beta, xi_n = run.exps.beta, run.xi_max
    try:
        bwd, _ = _backward_leg(p, beta, xi_n, rtol,
                               profile_rhs(p, beta, _F_FLOOR))
    except (BracketFailure, StepFailureError) as err:
        raise BracketFailure(f"xi0 seed failed for {p}: {err}") from err
    F_n = float(bwd.y[0, -1])
    P = 2.0 * p.m / (p.m - 1.0)
    odesol = run.odesol

    def gap(xi0):
        return odesol.at(MID_FRAC * xi0)[0] - (xi0 / xi_n) ** P * F_n

    lo, hi = float(run.grid[0]) / MID_FRAC, xi_n / MID_FRAC
    if not gap(hi) < 0.0 < gap(lo):
        raise BracketFailure(
            f"xi0 seed failed for {p}: the backward leg from xi0 = {xi_n!r} "
            f"at beta = {beta!r} meets no xi0 in [{lo!r}, {hi!r}]"
        )
    return brentq(gap, lo, hi)


def interface_samples(p: Params, beta: float, xi0: float, d_values: np.ndarray):
    """Profile samples f(xi0 - d) at prescribed distances from the interface.

    Integrates in the shifted variable s = xi0 - xi, which keeps the step
    size resolvable in floating point arbitrarily close to the interface,
    and with a stiff solver: the mode that separates forward trajectories
    decays in this direction, but its rate ~ s^{-3/2} still caps explicit
    steps.  Samples are taken on the way out, so they are produced by the
    equation rather than by the launch series: the launch sits at
    f = min(1e-13, 0.01 A d_min^theta), a hundredth of the leading term
    at the smallest requested distance d_min, and its state is the
    interface series truncated as for the backward leg.

    Returns (d, f, fprime_wrt_xi) restricted to 2 d_launch < d < xi0.
    """
    series = InterfaceSeries(p, beta, xi0, LAUNCH_F)
    d_values = np.sort(np.asarray(d_values, dtype=float))
    launch_f = min(
        1e-13, 0.01 * series.amplitude * d_values[0] ** series.theta
    )
    d0 = launch_distance(series, launch_f)
    keep = (d_values > 2.0 * d0) & (d_values < xi0)
    d_eval = d_values[keep]
    if d_eval.size == 0:
        raise BracketFailure(
            f"no sample distance inside ({2.0 * d0:.3e}, {xi0!r})"
        )
    rhs_xi = profile_rhs(p, beta, _F_FLOOR)

    def rhs_s(s, y):
        Fp, Fpp = rhs_xi(xi0 - s, y)
        return (-Fp, -Fpp)

    y0 = series(d0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_ivp(
            rhs_s,
            (d0, float(d_eval[-1])),
            y0,
            method="LSODA",
            rtol=RTOL,
            atol=0.0,
            t_eval=d_eval,
        )
    if not sol.success:
        raise StepFailureError(
            f"interface sampling failed at beta={beta!r}, xi0={xi0!r}: "
            f"{sol.message}"
        )
    return sol.t, *f_from_F(p.m, sol.y[0], sol.y[1])


def _residuals(p: Params, x, rtol=RTOL):
    """Continuity residual r, its exact xi0-column dr/dxi0 and the legs
    of ``_legs``, or None when a leg fails.

    Because sigma = sigma_c, the rescaling family
    f_A(xi) = A f_1(A^{-(m-1)/2} xi) maps the backward leg with its
    interface at xi0 onto the one with its interface at 1:
    F_b(xi; xi0) = xi0^P F_b(xi / xi0; 1) with P = 2m / (m - 1).  At
    xi_mid = MID_FRAC xi0 this gives dF_b/dxi0 = P F_b / xi0 and
    dF'_b/dxi0 = (P - 1) F'_b / xi0, while the forward end state moves
    along its own trajectory at rate MID_FRAC.  The backward launch sits
    at a fixed u0 = d0 / xi0 with a series exact to ~1e-14, so the leg
    follows the family and the column agrees with a central difference
    to the latter's own error.  Where the launch rests on its floor
    (A d^theta = LAUNCH_F, super-critical with gamma below ~0.5), the
    truncation error of the series breaks the symmetry instead.
    """
    beta, xi0 = float(x[0]), float(x[1])
    if beta <= 0.0 or xi0 <= 0.0:
        return None
    try:
        fwd, bwd, _, rhs = legs = _legs(p, beta, xi0, rtol)
    except (BracketFailure, StepFailureError):
        return None
    F_f, Fp_f = float(fwd.y[0, -1]), float(fwd.y[1, -1])
    F_b, Fp_b = float(bwd.y[0, -1]), float(bwd.y[1, -1])
    Fpp_f = rhs(MID_FRAC * xi0, (F_f, Fp_f))[1]
    P = 2.0 * p.m / (p.m - 1.0)
    r = np.array([F_f - F_b, Fp_f - Fp_b])
    dr_dxi0 = np.array([
        MID_FRAC * Fp_f - P * F_b / xi0,
        MID_FRAC * Fpp_f - (P - 1.0) * Fp_b / xi0,
    ])
    return r, dr_dxi0, legs


def _solve_2x2(a, b, r):
    """x with a x[0] + b x[1] = r by Gaussian elimination with partial
    pivoting (the first row on a tie), or None when a pivot is zero or
    not finite.  Plain float arithmetic, so no BLAS or LAPACK kernel
    picks its bits.
    """
    (a0, a1), (b0, b1), (r0, r1) = a.tolist(), b.tolist(), r.tolist()
    if abs(a1) > abs(a0):
        a0, a1, b0, b1, r0, r1 = a1, a0, b1, b0, r1, r0
    if a0 == 0 or not math.isfinite(a0):
        return None
    lower = a1 / a0
    u11 = b1 - lower * b0
    if u11 == 0 or not math.isfinite(u11):
        return None
    x1 = (r1 - lower * r0) / u11
    return np.array([(r0 - x1 * b0) / a0, x1])


def _newton(p: Params, beta: float, xi0: float):
    """Damped Newton iteration on (beta, xi0) for the continuity residual.

    The xi0-column of the Jacobian is the closed form of ``_residuals``.
    The beta-column starts as one forward difference over
    LOOSE_FD_REL_STEP * beta and is then updated by a secant rule on each
    accepted step that moves beta enough to carry information about it
    (Dennis & Schnabel 1996, ch. 6 and 8).  A trial that fails or does
    not lower max|r| halves the step.  Both legs run at LOOSE_RTOL until
    a step is <= LOOSE_XTOL |x|; the residual is then re-evaluated at the
    same x at RTOL, the beta-column is kept, and the iteration converges
    once a step is <= XTOL |x|.  Any failure ends it, and MAX_NFEV
    bounds the residual evaluations.

    Returns (x, r, nfev, legs), legs those of the converged x at RTOL,
    or None when the iteration fails.
    """
    x = np.array([beta, xi0])
    rtol, xtol = LOOSE_RTOL, LOOSE_XTOL
    nfev = 1
    out = _residuals(p, x, rtol)
    if out is None:
        return x, None, nfev, None
    r, j_xi0, legs = out
    h = LOOSE_FD_REL_STEP * beta
    nfev += 1
    out_h = _residuals(p, (beta + h, xi0), rtol)
    if out_h is None:
        return x, r, nfev, None
    j_beta = (out_h[0] - r) / h
    while True:
        step = _solve_2x2(j_beta, j_xi0, -r)
        if step is None:
            return x, r, nfev, None
        norm = np.max(np.abs(r))
        t = 1.0
        while True:
            dx = t * step
            if np.all(np.abs(dx) <= xtol * np.abs(x)):
                if rtol == RTOL:
                    return x, r, nfev, legs
                if nfev >= MAX_NFEV:
                    return x, r, nfev, None
                # tighten the legs in place, keeping the beta-column
                rtol, xtol = RTOL, XTOL
                nfev += 1
                out = _residuals(p, x, rtol)
                if out is None:
                    return x, None, nfev, None
                r, j_xi0, legs = out
                break
            if t < MIN_STEP_FACTOR or nfev >= MAX_NFEV:
                return x, r, nfev, None
            x_new = x + dx
            nfev += 1
            out = _residuals(p, x_new, rtol)
            if out is not None and np.max(np.abs(out[0])) < norm:
                r_new, j_xi0_new, legs_new = out
                d_beta, d_xi0 = dx
                # a step that hardly moves beta says little about dr/dbeta
                if (
                    abs(d_beta / x[0]) >= 0.1 * abs(d_xi0 / x[1])
                    and abs(d_beta) > 1e-11 * x[0]
                ):
                    j_beta = (
                        r_new - r - 0.5 * (j_xi0 + j_xi0_new) * d_xi0
                    ) / d_beta
                x, r, j_xi0, legs = x_new, r_new, j_xi0_new, legs_new
                break
            t *= 0.5


def match_profile(p: Params, beta_guess: float, xi0_guess: float) -> MatchResult:
    """Solve the continuity conditions for (beta, xi0) and build the profile.

    ``beta_guess`` and ``xi0_guess`` come from the forward bisection
    stage; convergence is quadratic from any reasonable neighbourhood.
    """
    x, r, nfev, legs = _newton(p, float(beta_guess), float(xi0_guess))
    beta_star, xi0 = float(x[0]), float(x[1])
    residual = float(np.max(np.abs(r))) if r is not None else np.inf
    success = legs is not None and residual < 1e-6
    result = MatchResult(beta_star=beta_star, xi0=xi0, residual=residual,
                         nfev=nfev, success=success)
    if success:
        result.profile = _assemble_profile(p, beta_star, xi0, legs)
    return result


def _assemble_profile(p: Params, beta: float, xi0: float, legs) -> ProfileSolution:
    """Dense profile at the matched parameters, tangential at xi0, from
    the dense ``legs`` of Newton's last tight evaluation.  Over their long
    steps the order-7 interpolant loses two digits, so each step longer
    than the grid spacing (MAX_STEP_FRAC of xi_mid forward, of xi0
    backward) is halved, and the grid samples the interpolants at it.
    The dense evaluator is the origin series below DELTA0, the forward
    leg up to and including xi_mid, the backward leg up to and including
    its launch, the interface series below xi0 and zero from xi0 on."""
    xi_mid = MID_FRAC * xi0
    fwd, bwd, series, _ = legs
    ode_f = halve_long_steps(fwd.sol, xi_mid * MAX_STEP_FRAC)
    ode_b = halve_long_steps(bwd.sol, xi0 * MAX_STEP_FRAC)

    # stitch: forward samples and the matched end state, backward samples
    # reversed, then interface-series samples inside the launch down to
    # TAIL_F, log-spaced and no sparser than the legs' samples
    grid_f, F_f, Fp_f = sample(ode_f, xi_mid * MAX_STEP_FRAC)
    grid_b, F_b, Fp_b = (a[::-1] for a in sample(ode_b, xi0 * MAX_STEP_FRAC))
    d_tail = launch_distance(series, TAIL_F)
    d_lin = series.d0 - xi0 * MAX_STEP_FRAC * np.arange(1.0, 256.0)
    d_ext = np.append(log_grid(series.d0, d_tail, 40), d_lin[d_lin > d_tail])
    d_ext = np.unique(d_ext[d_ext < series.d0])[::-1]
    F_ext, Fp_ext = series(d_ext)
    grid = np.concatenate([grid_f, fwd.t[-1:], grid_b, xi0 - d_ext])
    F_values = np.concatenate([F_f, fwd.y[0, -1:], F_b, F_ext])
    Fp_values = np.concatenate([Fp_f, fwd.y[1, -1:], Fp_b, Fp_ext])

    return ProfileSolution(
        params=p,
        exps=exponents_from_beta(p, beta),
        grid=grid,
        F_values=F_values,
        Fprime_values=Fp_values,
        xi0=xi0,
        xi1=xi0,
        classification=Classification.CANDIDATE_B,
        stop_reason=StopReason.CONTACT_ZERO,
        dense=piecewise(
            [DELTA0, *np.nextafter([xi_mid, bwd.t[0]], np.inf), xi0],
            [functools.partial(origin_series, p, beta), ode_f, ode_b,
             lambda xi: series(xi0 - xi)],
        ),
    )
