"""Phase-space analysis of the interface (sub-critical range m + q < 2).

The change of variables

    X = sqrt(m) xi^{-(sigma+2)/2} f^{(m-q)/2},
    Y = sqrt(m) xi^{-sigma/2} f^{(m-q-2)/2} f',
    Z = (alpha/sqrt(m)) xi^{(2-sigma)/2} f^{(2-m-q)/2},

together with the arclength-like variable
eta(xi) = m^{-1/2} int_0^xi f^{(q-m)/2} s^{sigma/2} ds turns the profile
ODE into a quadratic autonomous system whose critical point
(0, -sqrt(2/(m+q)), 0) encodes the interface expansion.  After the
translation W = Y + sqrt(2/(m+q)) the linearization at the origin has a
closed-form eigenstructure, and the trajectory approaches the origin
along the stable manifold with W/Z -> (m-1)/(2+m+q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .equation import log_grid
from .errors import CaseError, ProfileError, TailError
from .model import Exponents, InterfaceCase, Params, interface_case
from .solution import ProfileSolution

#: Fraction of xi0 below which phase points are trimmed; the negative
#: powers of xi amplify roundoff near the origin and the asymptotics of
#: interest live at the other end.
START_CUTOFF = 0.01

#: Depth window (as fractions of xi0) for the stable-manifold ratio.
#: W/Z approaches its limit only once xi0 - xi is many orders below the
#: stored grid resolution, so the ratio is measured on fresh samples.
TAIL_DEPTHS = (1e-9, 1e-7)

#: Log-spaced sample depths across TAIL_DEPTHS.
TAIL_POINTS = 17


@dataclass
class PhasePortrait:
    """Profile trajectory in the translated phase variables."""

    params: Params
    exps: Exponents
    eta_values: np.ndarray
    X_values: np.ndarray
    Y_values: np.ndarray
    Z_values: np.ndarray


@dataclass(frozen=True)
class Linearization:
    """Linearization matrix at the origin with its closed-form eigenpairs."""

    matrix: np.ndarray
    eigenvalues: Tuple[float, float, float]
    eigenvectors: Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class TailReport:
    """Stable-manifold ratio estimates near the interface."""

    W_over_Z: float
    W_over_Z_predicted: float
    W_over_Z_deviation: float
    X_over_Z_start: float
    X_over_Z_end: float
    depth_window: Tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class LimitPointReport:
    """Distance of the trajectory endpoint from the critical point."""

    distance: float
    X_end: float
    Y_end: float
    Z_end: float
    Y_target: float
    signs_ok: bool


def _require_subcritical(p: Params) -> None:
    if interface_case(p) is not InterfaceCase.SUB_CRITICAL:
        raise CaseError(
            f"phase-space analysis requires m + q < 2, got m={p.m}, q={p.q}"
        )


def _phase_coords(p: Params, e: Exponents, xi, f, fp):
    """(X, Y, Z, W) of the profile points (xi, f, f')."""
    m, q, sigma = p.m, p.q, p.sigma
    sqm, pw = math.sqrt(m), np.float_power
    X = sqm * pw(xi, -(sigma + 2.0) / 2.0) * pw(f, (m - q) / 2.0)
    Y = sqm * pw(xi, -sigma / 2.0) * pw(f, (m - q - 2.0) / 2.0) * fp
    Z = (e.alpha / sqm) * pw(xi, (2.0 - sigma) / 2.0) * pw(f, (2.0 - m - q) / 2.0)
    W = Y + math.sqrt(2.0 / (m + q))
    return X, Y, Z, W


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x from x[0]: scipy's
    ``cumulative_trapezoid(y, x, initial=0.0)``, in its own expression."""
    steps = np.diff(x) * (y[1:] + y[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


def to_phase_coords(sol: ProfileSolution) -> PhasePortrait:
    """Map a contacting profile onto its phase trajectory.

    eta is accumulated by trapezoidal quadrature over the stored grid,
    anchored at the closed-form contribution of the series launch
    segment [0, grid[0]] where f is indistinguishable from f(0).
    """
    p, e = sol.params, sol.exps
    _require_subcritical(p)
    if sol.xi0 is None:
        raise ProfileError("to_phase_coords requires a profile with contact")
    m, q, sigma = p.m, p.q, p.sigma
    sqm, pw = math.sqrt(m), np.float_power
    pos = sol.F_values > 0
    xi_all = sol.grid[pos]
    f_all = sol.f_values[pos]
    fp_all = sol.fprime_values[pos]
    # eta over the whole stored range, then trimmed
    integrand = pw(f_all, (q - m) / 2.0) * pw(xi_all, sigma / 2.0) / sqm
    launch = (
        sol.f0 ** ((q - m) / 2.0)
        * xi_all[0] ** (sigma / 2.0 + 1.0)
        / ((sigma / 2.0 + 1.0) * sqm)
    )
    eta = launch + _cumulative_trapezoid(integrand, xi_all)
    keep = xi_all >= START_CUTOFF * float(sol.xi0)
    X, Y, Z, _ = _phase_coords(p, e, xi_all[keep], f_all[keep], fp_all[keep])
    return PhasePortrait(
        params=p,
        exps=e,
        eta_values=eta[keep],
        X_values=X,
        Y_values=Y,
        Z_values=Z,
    )


def vector_field(V, p: Params) -> Tuple[float, float, float]:
    """Translated quadratic field in the (X, W, Z) coordinates."""
    _require_subcritical(p)
    m, q, sigma = p.m, p.q, p.sigma
    V1, V2, V3 = V
    r = math.sqrt(2.0 * (m + q))
    s = math.sqrt(2.0 / (m + q))
    c = p.N - 1 + sigma / 2.0
    F1 = -(m - q) / r * V1 + (m - q) / 2.0 * V1 * V2 - (sigma + 2.0) / 2.0 * V1**2
    F2 = (
        c * s * V1
        + r * V2
        - (m - 1.0) / r * V3
        - c * V1 * V2
        - V1 * V3
        - (m + q) / 2.0 * V2**2
        + (m - 1.0) / 2.0 * V2 * V3
    )
    F3 = (
        -(2.0 - m - q) / r * V3
        + (2.0 - m - q) / 2.0 * V2 * V3
        + (2.0 - sigma) / 2.0 * V1 * V3
    )
    return F1, F2, F3


def linearize_at_origin(p: Params) -> Linearization:
    """Linearization matrix at the origin with closed-form eigenpairs."""
    _require_subcritical(p)
    m, q, sigma = p.m, p.q, p.sigma
    s = math.sqrt(2.0 / (m + q))
    M = s * np.array(
        [
            [-(m - q) / 2.0, 0.0, 0.0],
            [p.N - 1 + sigma / 2.0, m + q, -(m - 1.0) / 2.0],
            [0.0, 0.0, -(2.0 - m - q) / 2.0],
        ]
    )
    r = math.sqrt(2.0 * (m + q))
    lam = (-(m - q) / r, r, -(2.0 - m - q) / r)
    E1 = np.array([1.0, -(2.0 * (p.N - 1) + sigma) / (3.0 * m + q), 0.0])
    E2 = np.array([0.0, 1.0, 0.0])
    E3 = np.array([0.0, (m - 1.0) / (2.0 + m + q), 1.0])
    return Linearization(matrix=M, eigenvalues=lam, eigenvectors=(E1, E2, E3))


def stable_manifold_ratio(sol: ProfileSolution) -> TailReport:
    """Estimate of W/Z near the interface against (m-1)/(2+m+q).

    W is the small translated coordinate Y + sqrt(2/(m+q)); its ratio to
    Z converges only at depths xi0 - xi far below the stored grid (the
    correction decays like a sub-unit power of the depth).  The profile
    is therefore re-integrated outward from deep inside the contact
    region (see ``matching.interface_samples``), anchored at the
    profile's (beta, xi0), and the ratio is averaged over TAIL_POINTS
    log-spaced depths d = xi0 - xi in TAIL_DEPTHS (fractions of xi0).
    X/Z is reported at both ends of the window: X is a higher-order term
    and must fade relative to Z.
    """
    from .matching import interface_samples

    p, e = sol.params, sol.exps
    _require_subcritical(p)
    if sol.xi0 is None:
        raise ProfileError("stable_manifold_ratio requires contact")
    m, q = p.m, p.q
    xi0 = float(sol.xi0)
    lo, hi = TAIL_DEPTHS
    d_grid = log_grid(lo * xi0, hi * xi0, TAIL_POINTS)
    d, f, fp = interface_samples(p, e.beta, xi0, d_grid)
    good = f > 0.0
    d, f, fp = d[good], f[good], fp[good]
    if len(d) < 3:
        raise TailError("too few positive samples in the depth window")
    X, _, Z, W = _phase_coords(p, e, xi0 - d, f, fp)
    ratio = W / Z
    predicted = (m - 1.0) / (2.0 + m + q)
    estimate = float(np.mean(ratio))
    xz = X / Z
    return TailReport(
        W_over_Z=estimate,
        W_over_Z_predicted=predicted,
        W_over_Z_deviation=abs(estimate - predicted) / abs(predicted),
        X_over_Z_start=float(xz[-1]),
        X_over_Z_end=float(xz[0]),
        depth_window=(float(lo), float(hi)),
        n_points=int(len(d)),
    )


def limit_point_check(portrait: PhasePortrait) -> LimitPointReport:
    """Deviation of the trajectory endpoint from (0, -sqrt(2/(m+q)), 0)."""
    p = portrait.params
    y_target = -math.sqrt(2.0 / (p.m + p.q))
    Xe = float(portrait.X_values[-1])
    Ye = float(portrait.Y_values[-1])
    Ze = float(portrait.Z_values[-1])
    dist = math.sqrt(Xe**2 + (Ye - y_target) ** 2 + Ze**2)
    signs_ok = bool(
        (portrait.X_values > 0).all()
        and (portrait.Y_values < 0).all()
        and (portrait.Z_values > 0).all()
    )
    return LimitPointReport(
        distance=dist,
        X_end=Xe,
        Y_end=Ye,
        Z_end=Ze,
        Y_target=y_target,
        signs_ok=signs_ok,
    )


def coordinate_identity_residual(portrait: PhasePortrait) -> float:
    """Max relative residual of Z = alpha m^{(q-1)/(m-q)} X^{(2-m-q)/(m-q)}.

    The identity is algebraic in the change of variables and holds
    pointwise along any trajectory.
    """
    p, e = portrait.params, portrait.exps
    m, q = p.m, p.q
    pred = (
        e.alpha
        * m ** ((q - 1.0) / (m - q))
        * np.float_power(portrait.X_values, (2.0 - m - q) / (m - q))
    )
    return float(np.max(np.abs(pred - portrait.Z_values) / pred))
