"""Interface expansions: predicted constants and least-squares checks.

Near the support endpoint xi0 the profile behaves like
f ~ A (xi0 - xi)^theta, with theta and A determined by the sign of
m + q - 2.  In the sub-critical range m + q < 2 a second-order term
-K0 xi0^{(sigma+m+q-2)/(m-q)} (xi0 - xi)^{(4-m-q)/(m-q)} is also known.
This module evaluates the closed forms and fits the computed profile
against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .equation import _dot, log_grid
from .errors import ProfileError, WindowError
from .model import Exponents, InterfaceCase, Params, interface_case
from .solution import ProfileSolution


@dataclass(frozen=True)
class InterfaceExpansion:
    """Predicted leading (and second) order interface behaviour."""

    case: InterfaceCase
    theta: float
    amplitude: float
    second_order_coeff: Optional[float] = None
    K1: Optional[float] = None
    K2: Optional[float] = None
    K3: Optional[float] = None
    K0: Optional[float] = None


@dataclass(frozen=True)
class InterfaceFit:
    """Least-squares estimates of the interface expansion."""

    theta_hat: float
    amplitude_hat: float
    second_order_hat: Optional[float]
    fit_window: Tuple[float, float]
    residual: float


@dataclass(frozen=True)
class InterfaceBoundsReport:
    """Worst margins of the two general interface upper bounds."""

    gradient_margin: float      # min over window of (bound - |(f^{m-q})'|)
    height_margin: float        # min over window of (bound - f)
    n_points: int
    passed: bool


def K1_constant(p: Params) -> float:
    """K1 = [(m-q)/sqrt(2m(m+q))]^{2/(m-q)}."""
    m, q = p.m, p.q
    return ((m - q) / math.sqrt(2.0 * m * (m + q))) ** (2.0 / (m - q))


def K2_constant(p: Params, beta: float) -> float:
    """K2(beta) = [sqrt(1+beta^2/4m) - beta/(2 sqrt m)]^{2/(m-q)}."""
    m, q = p.m, p.q
    t = beta / (2.0 * math.sqrt(m))
    return (math.sqrt(1.0 + t * t) - t) ** (2.0 / (m - q))


def K3_constant(p: Params, beta: float) -> float:
    """K3(beta) = [(1-q)/beta]^{1/(1-q)}."""
    return ((1.0 - p.q) / beta) ** (1.0 / (1.0 - p.q))


def K0_constant(p: Params, beta: float) -> float:
    """K0(beta) = (m-q) beta K1^{2-m} / (m (1-q)(m+q+2))."""
    m, q = p.m, p.q
    K1 = K1_constant(p)
    return (m - q) * beta * K1 ** (2.0 - m) / (m * (1.0 - q) * (m + q + 2.0))


def predict_expansion(p: Params, e: Exponents, xi0: float) -> InterfaceExpansion:
    """Closed-form contact exponent and amplitude at the interface xi0."""
    if not xi0 > 0:
        raise ProfileError(f"xi0 must be > 0, got {xi0}")
    m, q, sigma = p.m, p.q, p.sigma
    case = interface_case(p)
    if case is InterfaceCase.SUB_CRITICAL:
        theta = 2.0 / (m - q)
        K1, K0 = K1_constant(p), K0_constant(p, e.beta)
        return InterfaceExpansion(
            case=case,
            theta=theta,
            amplitude=K1 * xi0 ** (sigma / (m - q)),
            second_order_coeff=K0 * xi0 ** ((sigma + m + q - 2.0) / (m - q)),
            K1=K1,
            K0=K0,
        )
    if case is InterfaceCase.CRITICAL:
        theta = 2.0 / (m - q)
        K1, K2 = K1_constant(p), K2_constant(p, e.beta)
        return InterfaceExpansion(
            case=case,
            theta=theta,
            amplitude=K1 * K2 * xi0 ** (2.0 / (m - q)),
            K1=K1,
            K2=K2,
        )
    theta = 1.0 / (1.0 - q)
    K3 = K3_constant(p, e.beta)
    return InterfaceExpansion(
        case=case,
        theta=theta,
        amplitude=K3 * xi0 ** ((sigma - 1.0) / (1.0 - q)),
        K3=K3,
    )


#: Fit depths as fractions of xi0.  The leading-order window sits
#: where the analytic corrections (linear and higher in xi0 - xi) are
#: negligible; the second-order window is wider so the two correction
#: powers can be separated.
LEAD_WINDOW = (1e-5, 1e-4)
SECOND_WINDOW = (3e-6, 1e-3)

#: Log-spaced sample distances per fit window.
FIT_POINTS = 80


def _lstsq2(a, b, y):
    """(c0, c1) minimising |c0 a + c1 b - y|: modified Gram-Schmidt with
    fixed-order sums (``equation._dot``), so no LAPACK kernel picks bits."""
    r00 = math.sqrt(_dot(a, a))
    q0 = a / r00
    r01 = _dot(q0, b)
    b1 = b - r01 * q0
    r11 = math.sqrt(_dot(b1, b1))
    y0 = _dot(q0, y)
    c1 = _dot(b1 / r11, y - y0 * q0) / r11
    return (y0 - r01 * c1) / r00, c1


def fit_interface(sol: ProfileSolution) -> InterfaceFit:
    """Fit the interface expansion against fresh near-contact samples.

    The profile must be matched, as ``solve`` returns it: its ``xi0``
    lies beyond the stored grid (``ProfileError`` otherwise).
    FIT_POINTS log-spaced samples span LEAD_WINDOW below xi0; on a
    sub-critical profile (m + q < 2), the only case with a known
    second-order term, the second-order fit adds as many across
    SECOND_WINDOW, and ``second_order_hat`` is None otherwise.
    The samples are produced by re-integrating the equation outward from
    a launch point far below the fit window (see
    ``matching.interface_samples``), anchored at the profile's (beta,
    xi0); stored grids cannot reach these depths.  The leading order is
    a linear least-squares fit of log f against log(xi0 - xi), with logs
    by ``math.log`` and powers by ``np.float_power``.  The second-order
    coefficient is fit jointly with a linear analytic correction, with
    theta and amplitude frozen at their predicted values: the correction
    powers differ by less than one from each other, so a fully free fit
    is ill-conditioned.
    """
    from .matching import interface_samples

    if sol.xi0 is None or not sol.xi0 > sol.grid[-1]:
        raise ProfileError("fit_interface requires a matched profile")
    xi0 = float(sol.xi0)
    expansion = predict_expansion(sol.params, sol.exps, xi0)
    with_second_order = expansion.case is InterfaceCase.SUB_CRITICAL
    lo, hi = xi0 * (1.0 - LEAD_WINDOW[1]), xi0 * (1.0 - LEAD_WINDOW[0])
    d_hi, d_lo = xi0 - lo, xi0 - hi
    beta = sol.exps.beta
    d_grid = log_grid(d_lo, d_hi, FIT_POINTS)
    if with_second_order:
        s_lo, s_hi = SECOND_WINDOW
        d_second = log_grid(s_lo * xi0, s_hi * xi0, FIT_POINTS)
        d_grid = np.unique(np.concatenate([d_grid, d_second]))
    d, f, _ = interface_samples(sol.params, beta, xi0, d_grid)
    good = f > 0.0
    d, f = d[good], f[good]
    lead = (d >= d_lo) & (d <= d_hi)
    if int(lead.sum()) < 20:
        raise WindowError(
            f"only {int(lead.sum())} usable samples in window ({lo}, {hi})"
        )
    logd = np.array([math.log(x) for x in d[lead]])
    logf = np.array([math.log(x) for x in f[lead]])
    intercept, slope = _lstsq2(np.ones_like(logd), logd, logf)
    res = logf - (slope * logd + intercept)
    rms = math.sqrt(_dot(res, res) / res.size)
    second_hat = None
    if with_second_order:
        # relative deviation from the predicted leading term, decomposed
        # over the known second-order power and a linear analytic
        # correction
        m, q = sol.params.m, sol.params.q
        omega = (4.0 - m - q) / (m - q)
        dev = f / (expansion.amplitude * np.float_power(d, expansion.theta)) - 1.0
        coef, _ = _lstsq2(np.float_power(d, omega - expansion.theta), d, dev)
        second_hat = float(-coef * expansion.amplitude)
    return InterfaceFit(
        theta_hat=float(slope),
        amplitude_hat=math.exp(intercept),
        second_order_hat=second_hat,
        fit_window=(float(lo), float(hi)),
        residual=rms,
    )


def upper_bounds_check(sol: ProfileSolution) -> InterfaceBoundsReport:
    """General interface upper bounds on (xi0/2, xi0).

    Checks |(f^{m-q})'| <= 2^{N-1} xi0^sigma (xi0 - xi) and
    f <= beta^{q-1} xi0^{(sigma-1)/(1-q)} (xi0 - xi)^{1/(1-q)}.
    """
    if sol.xi0 is None:
        raise ProfileError("upper_bounds_check requires a finite xi0")
    p, e = sol.params, sol.exps
    m, q, sigma = p.m, p.q, p.sigma
    xi0 = float(sol.xi0)
    mask = (sol.grid > xi0 / 2.0) & (sol.grid < xi0) & (sol.F_values > 0)
    xi = sol.grid[mask]
    f = sol.f_values[mask]
    fp = sol.fprime_values[mask]
    d = xi0 - xi
    grad = np.abs((m - q) * np.float_power(f, m - q - 1.0) * fp)
    grad_bound = 2.0 ** (p.N - 1) * xi0**sigma * d
    height_bound = (
        e.beta ** (q - 1.0)
        * xi0 ** ((sigma - 1.0) / (1.0 - q))
        * np.float_power(d, 1.0 / (1.0 - q))
    )
    g_margin = float(np.min(grad_bound - grad))
    h_margin = float(np.min(height_bound - f))
    return InterfaceBoundsReport(
        gradient_margin=g_margin,
        height_margin=h_margin,
        n_points=int(mask.sum()),
        passed=g_margin >= 0.0 and h_margin >= 0.0,
    )
