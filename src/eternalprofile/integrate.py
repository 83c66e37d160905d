"""Cauchy-problem integrator for the profile ODE in F = f^m form.

The profile equation of ``equation`` is integrated from its origin
series launch at xi = delta0, with F(0) = 1 and F'(0) = 0.  Integration
stops at one of three events: f = F^{1/m} falls to the contact threshold,
f' turns non-negative, or the horizon cap is reached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._dop853 import solve_ivp
from .equation import dense_from_origin, origin_series, profile_rhs
from .errors import DomainError, ProfileError
from .model import Exponents, Params
from .solution import Classification, LimitProfile, ProfileSolution, StopReason


#: Horizon cap, in units of ``absorption_scale``, when none is given.
HORIZON_FACTOR = 50.0

#: A slope event with f within this many ``contact_eps`` of zero is a
#: tangential (CandidateB) contact.
GRAZE_FACTOR = 10.0


@dataclass(frozen=True)
class IntegratorOptions:
    """Tolerances, launch/stop configuration and the tangency threshold.

    ``contact_eps`` is the stopping threshold in f units.  ``atol`` is
    meant to lie far below the contact level ``contact_eps ** m``, so
    that the contact event is resolved in relative terms.  With the
    defaults (``atol`` = 1e-16, ``contact_eps`` = 1e-7) that holds only
    for m < 16/7; for larger m the contact level falls below ``atol``.
    ``slope_tol`` is in F' units and is rescaled by xi0^sigma at
    contact; a slope event within ``GRAZE_FACTOR * contact_eps`` of zero
    also counts as tangential.
    """

    rtol: float = 1e-10
    atol: float = 1e-16
    delta0: float = 1e-6
    contact_eps: float = 1e-7
    horizon: Optional[float] = None     # None: derived from the limit profile
    #: stop when f' turns non-negative; disable to follow growing
    #: solutions (e.g. the small-beta regime) out to the horizon
    slope_event: bool = True
    slope_tol: float = 1e-4


def integrate_profile(
    p: Params,
    e: Exponents,
    opts: IntegratorOptions = IntegratorOptions(),
) -> ProfileSolution:
    """Integrate the profile Cauchy problem and classify the stop event."""
    delta0 = opts.delta0
    F0, Fp0 = origin_series(p, e.beta, delta0)
    horizon = opts.horizon
    if horizon is None:
        horizon = HORIZON_FACTOR * absorption_scale(p)
    elif not horizon > delta0:
        raise DomainError(
            f"horizon must be > delta0 = {delta0!r}, got {horizon!r}"
        )
    F_contact = opts.contact_eps**p.m

    def ev_contact(xi, y):
        return y[0] - F_contact

    ev_contact.terminal = True
    ev_contact.direction = -1

    def ev_slope(xi, y):
        return y[1]

    ev_slope.terminal = True
    ev_slope.direction = 1

    sol = solve_ivp(
        profile_rhs(p, e.beta, (0.1 * opts.contact_eps) ** p.m),
        (delta0, horizon),
        [F0, Fp0],
        method="DOP853",
        rtol=opts.rtol,
        atol=opts.atol,
        events=(
            [ev_contact, ev_slope]
            if opts.slope_event
            else [ev_contact]
        ),
        dense_output=True,
    )

    if sol.status == 1:
        stop = (
            StopReason.CONTACT_ZERO
            if len(sol.t_events[0])
            else StopReason.SLOPE_SIGN_CHANGE
        )
    elif sol.status == 0:
        stop = StopReason.HORIZON_REACHED
    else:
        stop = StopReason.STEP_FAILURE

    prof = ProfileSolution(
        params=p,
        exps=e,
        grid=sol.t,
        F_values=sol.y[0],
        Fprime_values=sol.y[1],
        xi0=None,
        xi1=None,
        classification=Classification.UNDETERMINED,
        stop_reason=stop,
        contact_eps=opts.contact_eps,
        delta0=delta0,
        dense=dense_from_origin(p, e.beta, delta0, sol.sol),
    )
    return _attach_events(prof, opts)


def _attach_events(
    prof: ProfileSolution, opts: IntegratorOptions
) -> ProfileSolution:
    """Fill xi0/xi1 and the classification from the stop event."""
    cls = classify_beta(prof, opts)
    end = float(prof.grid[-1])
    xi0 = xi1 = None
    if prof.stop_reason is StopReason.CONTACT_ZERO:
        xi0 = xi1 = end
    elif prof.stop_reason is StopReason.SLOPE_SIGN_CHANGE:
        xi1 = end
        if cls is Classification.CANDIDATE_B:
            xi0 = end
    return replace(prof, xi0=xi0, xi1=xi1, classification=cls)


def classify_beta(
    sol: ProfileSolution, opts: IntegratorOptions = IntegratorOptions()
) -> Classification:
    """Map the stop event of ``sol`` to ClassA / ClassC / CandidateB."""
    sigma = sol.params.sigma
    if sol.stop_reason is StopReason.CONTACT_ZERO:
        xi0 = float(sol.grid[-1])
        bound = opts.slope_tol * xi0**sigma
        Fp = float(sol.Fprime_values[-1])
        if Fp < -bound:
            return Classification.CLASS_A
        if abs(Fp) <= bound:
            return Classification.CANDIDATE_B
        return Classification.UNDETERMINED
    if sol.stop_reason is StopReason.SLOPE_SIGN_CHANGE:
        f_end = float(sol.f_values[-1])
        if f_end <= GRAZE_FACTOR * sol.contact_eps:
            return Classification.CANDIDATE_B
        return Classification.CLASS_C
    return Classification.UNDETERMINED


def interface_slope_integral(sol: ProfileSolution) -> float:
    """F'(xi0) from the integral identity

        F'(xi0) = xi0^{1-N} int_0^{xi0} s^{N-1} [s^sigma f^q - (alpha+N beta) f] ds,

    evaluated by composite Simpson quadrature on 4097 nodes of the dense
    output plus the closed-form contribution of the series launch segment
    [0, delta0].
    """
    if sol.xi0 is None:
        raise ProfileError("interface_slope_integral requires a finite xi0")
    p, e = sol.params, sol.exps
    N, sigma = p.N, p.sigma
    coef = e.alpha + N * e.beta
    end = float(sol.grid[-1])
    xi = np.linspace(sol.delta0, end, 4097)
    f = sol.eval_f(xi)
    integrand = xi ** (N - 1) * (xi**sigma * f**p.q - coef * f)
    from scipy.integrate import simpson

    total = simpson(integrand, x=xi)
    # launch segment with f ~ f0
    d0 = sol.delta0
    total += sol.f0**p.q * d0 ** (N + sigma) / (N + sigma)
    total -= coef * sol.f0 * d0**N / N
    return float(sol.xi0 ** (1 - N) * total)


def integrate_limit_profile(
    p: Params,
    horizon: float,
    guard: float = 1e12,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> LimitProfile:
    """Solve the beta -> 0 limit problem H'' + (N-1)/xi H' = xi^sigma H^{q/m}.

    H is strictly increasing; integration stops early if H reaches the
    overflow ``guard``.
    """
    delta0 = 1e-8
    if not horizon > delta0:
        raise DomainError(
            f"horizon must be > delta0 = {delta0!r}, got {horizon!r}"
        )
    H0, Hp0 = origin_series(p, 0.0, delta0)

    def ev_guard(xi, y):
        return y[0] - guard

    ev_guard.terminal = True
    ev_guard.direction = 1

    sol = solve_ivp(
        profile_rhs(p, 0.0, 0.0),
        (delta0, horizon),
        [H0, Hp0],
        method="DOP853",
        rtol=rtol,
        atol=atol,
        events=[ev_guard],
        dense_output=True,
    )
    return LimitProfile(
        params=p,
        grid=sol.t,
        H_values=sol.y[0],
        Hprime_values=sol.y[1],
        dense=dense_from_origin(p, 0.0, delta0, sol.sol),
    )


@functools.lru_cache(maxsize=64)
def _absorption_scale(m: float, q: float, N: int) -> float:
    from .model import make_params

    p = make_params(m, q, N)
    prof = integrate_limit_profile(p, horizon=1e4, guard=2.0, rtol=1e-8, atol=1e-10)
    return prof.horizon


def absorption_scale(p: Params) -> float:
    """Length scale at which absorption doubles the limit profile.

    Used as the unit for the integration horizon cap: far from beta*,
    profiles resolve their fate within a few of these lengths.
    """
    return _absorption_scale(p.m, p.q, p.N)
