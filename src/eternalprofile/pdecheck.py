"""Assembly of the eternal solution and independent residual oracles.

A converged profile f generates the solution
u(t, x) = exp(-alpha t) f(|x| exp(beta t)), positive for all times with
support shrinking exponentially.  The checks here never reuse the
integrator's right-hand side: the profile ODE residual is formed from
finite differences of the dense output, the interface slope from an
integral identity over f, and the PDE residual from finite differences
of u itself in t and r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DomainError, ProfileError, RegionError
from .solution import ProfileSolution


@dataclass(frozen=True)
class SolutionSample:
    """Radial snapshot of the eternal solution at one time."""

    t: float
    x_radii: np.ndarray
    u_values: np.ndarray
    support_radius: float


@dataclass(frozen=True)
class ResidualReport:
    """Finite-difference PDE residual and its refinement behaviour."""

    h: float
    max_residual: float
    rms_residual: float
    max_relative: float
    orders: Tuple[float, ...]


def eval_solution(profile: ProfileSolution, t: float, r) -> np.ndarray:
    """u(t, r) = exp(-alpha t) f(r exp(beta t)); zero outside the support."""
    e = profile.exps
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    u = math.exp(-e.alpha * t) * profile.eval_f(np.atleast_1d(r) * math.exp(e.beta * t))
    return float(u[0]) if scalar else u


def support_radius(profile: ProfileSolution, t: float) -> float:
    """Radius xi0 exp(-beta t) of the positivity set at time t."""
    if profile.xi0 is None:
        raise DomainError("profile has no finite support endpoint")
    return profile.xi0 * math.exp(-profile.exps.beta * t)


def profile_ode_residual(
    sol: ProfileSolution, xi: np.ndarray, delta: float = 1e-4
) -> np.ndarray:
    """Relative residual of the profile ODE from the dense output.

    F'' is recovered by a central difference of the dense F' so the
    check is independent of the integrator's internal right-hand side.
    The residual is normalized pointwise by the largest term magnitude.
    The default step balances the O(delta^2) truncation error against
    interpolation noise in the dense output.
    """
    p, e = sol.params, sol.exps
    xi = np.asarray(xi, dtype=float)
    F, Fp = sol.eval_F(xi)
    _, Fp_hi = sol.eval_F(xi + delta)
    _, Fp_lo = sol.eval_F(xi - delta)
    Fpp = (Fp_hi - Fp_lo) / (2.0 * delta)
    f = np.clip(F, 0.0, None) ** (1.0 / p.m)
    fp = np.where(F > 0, Fp * np.where(f > 0, f, 1.0) ** (1.0 - p.m) / p.m, 0.0)
    terms = np.stack(
        [
            Fpp,
            (p.N - 1) / xi * Fp,
            e.alpha * f,
            -e.beta * xi * fp,
            -(xi**p.sigma) * f**p.q,
        ]
    )
    residual = terms.sum(axis=0)
    scale = np.maximum(np.abs(terms).max(axis=0), 1e-30)
    return np.abs(residual) / scale


def launch_curvature(sol: ProfileSolution) -> float:
    """Measured F''(0) from the dense output above the launch offset.

    Near the origin F = 1 + (F''(0)/2) xi^2 plus corrections.  The
    first correction, xi^{sigma+2} / ((sigma+2)(sigma+N)) from the
    absorption term, can sit arbitrarily close to the quadratic power
    when sigma is small, so it is subtracted in closed form; the
    remaining corrections (powers 4, sigma+4, 2 sigma+2) are separated
    from xi^2 by at least min(2, sigma+2) and enter a least-squares fit
    on 64 log-spaced points of the window [2e-6, 1e-3].  The window
    starts at or above the launch offset delta0 so the fit sees the
    integrated solution, not the launch series itself.
    """
    sigma, N = sol.params.sigma, sol.params.N
    lo, hi = max(2e-6, sol.delta0), 1e-3
    if not lo < hi:
        raise DomainError(f"empty curvature window ({lo}, {hi})")
    xi = np.exp(np.linspace(math.log(lo), math.log(hi), 64))
    F, _ = sol.eval_F(xi)
    dev = F - 1.0 - xi ** (sigma + 2.0) / ((sigma + 2.0) * (sigma + N))
    powers = [2.0, 4.0, sigma + 4.0, 2.0 * sigma + 2.0]
    basis = np.column_stack([xi**p for p in powers])
    scale = np.abs(basis).max(axis=0)
    coef, *_ = np.linalg.lstsq(basis / scale, dev, rcond=None)
    return float(2.0 * coef[0] / scale[0])


def interface_slope_integral(sol: ProfileSolution) -> float:
    """F'(xi0) from the integral identity

        F'(xi0) = xi0^{1-N} int_0^{xi0} s^{N-1} [s^sigma f^q - (alpha+N beta) f] ds,

    evaluated by composite Simpson quadrature on 4097 nodes of the dense
    output plus the closed-form contribution of the series launch segment
    [0, delta0].
    """
    from scipy.integrate import simpson

    if sol.xi0 is None:
        raise ProfileError("interface_slope_integral requires a finite xi0")
    p, e = sol.params, sol.exps
    N, sigma = p.N, p.sigma
    coef = e.alpha + N * e.beta
    end = float(sol.grid[-1])
    xi = np.linspace(sol.delta0, end, 4097)
    f = sol.eval_f(xi)
    integrand = xi ** (N - 1) * (xi**sigma * f**p.q - coef * f)
    total = simpson(integrand, x=xi)
    # launch segment with f ~ f0
    d0 = sol.delta0
    total += sol.f0**p.q * d0 ** (N + sigma) / (N + sigma)
    total -= coef * sol.f0 * d0**N / N
    return float(sol.xi0 ** (1 - N) * total)


def pde_residual(
    profile: ProfileSolution,
    t_grid: Sequence[float],
    r_grid: Sequence[float],
    h: float,
) -> ResidualReport:
    """Finite-difference residual of the PDE at the given space-time grid.

    Approximates d_t u - Lap(u^m) + r^sigma u^q with second-order central
    differences, the radial Laplacian at r = 0 by 2N (u^m(h) - u^m(0)) / h^2;
    also reruns at h/2 and h/4 to estimate the empirical convergence
    order of the maximum residual.  Every point must keep five stencil
    widths from the interface.  At each time, each stencil node
    (t +- h, r +- h and r itself) is evaluated over the whole radial
    grid at once.
    """
    if profile.xi0 is None:
        raise DomainError("pde_residual requires a compactly supported profile")
    p = profile.params
    radii = np.asarray(r_grid, dtype=float)
    axis = radii == 0.0
    curvature = (p.N - 1) / np.where(axis, 1.0, radii)

    def sweep(step: float) -> Tuple[float, float, float]:
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
            u_t = (
                eval_solution(profile, t + step, radii)
                - eval_solution(profile, t - step, radii)
            ) / (2.0 * step)
            u = eval_solution(profile, t, radii)
            um_c = u**p.m
            um_hi = eval_solution(profile, t, radii + step) ** p.m
            um_lo = eval_solution(profile, t, radii - step) ** p.m
            lap = (um_hi - 2.0 * um_c + um_lo) / step**2
            if p.N > 1:
                lap += curvature * (um_hi - um_lo) / (2.0 * step)
            lap = np.where(axis, 2.0 * p.N * (um_hi - um_c) / step**2, lap)
            absorb = radii**p.sigma * u**p.q
            value = u_t - lap + absorb
            scale = np.maximum(np.abs([u_t, lap, absorb]).max(axis=0), 1e-30)
            res.append(value)
            rel.append(np.abs(value) / scale)
        res = np.concatenate(res)
        return (
            float(np.max(np.abs(res))),
            float(np.sqrt(np.mean(res**2))),
            float(np.max(np.concatenate(rel))),
        )

    max0, rms0, rel0 = sweep(h)
    orders = []
    prev = max0
    step = h
    for _ in range(2):
        step /= 2.0
        cur, _, _ = sweep(step)
        orders.append(math.log2(prev / cur) if cur > 0 else float("inf"))
        prev = cur
    return ResidualReport(
        h=h,
        max_residual=max0,
        rms_residual=rms0,
        max_relative=rel0,
        orders=tuple(orders),
    )


def eternal_trace(
    profile: ProfileSolution,
    t_range: Tuple[float, float],
    n: int,
) -> List[SolutionSample]:
    """Radial snapshots of the eternal solution across ``t_range``.

    The radial grid of 201 points spans slightly past the support at
    each time so the vanishing beyond the interface is part of the record.
    """
    if n < 2:
        raise DomainError(f"need at least 2 samples, got {n}")
    samples = []
    for t in np.linspace(t_range[0], t_range[1], n):
        sr = support_radius(profile, float(t))
        radii = np.linspace(0.0, 1.05 * sr, 201)
        u = eval_solution(profile, float(t), radii)
        samples.append(
            SolutionSample(
                t=float(t),
                x_radii=radii,
                u_values=np.asarray(u),
                support_radius=sr,
            )
        )
    return samples


def radial_mass(sample: SolutionSample, N: int) -> float:
    """Quadrature of r^{N-1} u(t, r) over the radial grid in dimension N."""
    weight = sample.x_radii ** (N - 1) if N > 1 else np.ones_like(sample.x_radii)
    return float(np.trapezoid(weight * sample.u_values, sample.x_radii))
