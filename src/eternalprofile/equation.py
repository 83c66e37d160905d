"""The profile equation and its launch series, in F = f^m form.

For u(t, x) = exp(-alpha t) f(|x| exp(beta t)) with alpha = 2 beta / (m-1),
the radial profile solves

    F'' = -(N-1)/xi F' - alpha f + beta xi f' + xi^sigma f^q,    F = f^m,

with F(0) = 1, F'(0) = 0, and ends tangentially at xi0 where
f ~ A (xi0 - xi)^theta.  The integrators in ``integrate`` and ``matching``
take their right-hand side and launch states from here; only
``pdecheck`` keeps its own, deliberately independent, residual.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .model import Params


def profile_rhs(p: Params, beta: float, F_floor: float):
    """Right-hand side (F', F'') of the profile equation at exponent beta.

    F is clamped below at ``F_floor`` inside the nonlinear terms.  The
    clamp keeps the field finite when trial stages overshoot below the
    contact threshold; the clamped region is never part of an accepted
    solution.  beta = 0 with F_floor = 0 gives the limit problem
    H'' + (N-1)/xi H' = xi^sigma H^{q/m}.
    """
    m, q, N, sigma = p.m, p.q, p.N, p.sigma
    alpha = 2.0 * beta / (m - 1.0)
    inv_m = 1.0 / m
    Nm1 = N - 1

    def rhs(xi, y):
        F, Fp = y
        Fc = F if F > F_floor else F_floor
        f = Fc**inv_m
        fp = Fp * f / (m * Fc)    # f' = F' F^{(1-m)/m} / m
        Fpp = -alpha * f + beta * xi * fp + xi**sigma * f**q
        if Nm1:
            Fpp -= Nm1 / xi * Fp
        return (Fp, Fpp)

    return rhs


def origin_series(p: Params, beta: float, xi):
    """(F, F') of the origin launch series at xi (scalar or array).

    F = 1 + c2 xi^2 + cs xi^{sigma+2} with c2 = -beta / ((m-1) N) and
    cs = 1 / ((sigma+2)(sigma+N)).  The absorption term is kept because
    its derivative decays only like xi^{sigma+1} and would otherwise
    dominate the launch error whenever sigma is small.
    """
    sg = p.sigma
    c2 = -beta / ((p.m - 1.0) * p.N)
    cs = 1.0 / ((sg + 2.0) * (sg + p.N))
    F = 1.0 + c2 * xi**2 + cs * xi ** (sg + 2.0)
    Fp = 2.0 * c2 * xi + (sg + 2.0) * cs * xi ** (sg + 1.0)
    return F, Fp


def interface_series(p: Params, expansion, d):
    """(F, F') of the tangential expansion a distance d (scalar or array)
    inside the interface.

    Powers use ``np.float_power``, which rounds like the scalar ``**``
    (numpy's vectorised ``**`` can differ in the last bit), so an array of
    distances gives the same bits as one distance at a time.
    """
    m = p.m
    pw = np.float_power
    A, theta = expansion.amplitude, expansion.theta
    f = A * pw(d, theta)
    fd = A * theta * pw(d, theta - 1.0)
    if expansion.second_order_coeff is not None:
        omega = (4.0 - m - p.q) / (m - p.q)
        f -= expansion.second_order_coeff * pw(d, omega)
        fd -= expansion.second_order_coeff * omega * pw(d, omega - 1.0)
    # d increases inward, so f'(xi) = -df/dd
    return pw(f, m), -m * pw(f, m - 1.0) * fd


def f_from_F(m: float, F, Fp):
    """(f, f') from (F, F') arrays: f = F^{1/m} and f' = F' f^{1-m} / m,
    with F clipped at zero and f' = F' / m where f = 0."""
    f = np.clip(F, 0.0, None) ** (1.0 / m)
    return f, Fp * np.where(f > 0.0, f, 1.0) ** (1.0 - m) / m


def launch_distance(expansion, f: float) -> float:
    """Distance inside the interface at which the leading term A d^theta is f."""
    return (f / expansion.amplitude) ** (1.0 / expansion.theta)


def dense_from_origin(p: Params, beta: float, delta0: float, odesol):
    """Dense (F, F') evaluator: the origin series below delta0, ``odesol`` above."""

    def dense(xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        F = np.empty_like(xi)
        Fp = np.empty_like(xi)
        small = xi < delta0
        F[small], Fp[small] = origin_series(p, beta, xi[small])
        if (~small).any():
            F[~small], Fp[~small] = odesol(xi[~small])
        return F, Fp

    return dense
