"""Cauchy-problem integrator for the profile ODE in F = f^m form.

The profile equation of ``equation`` is integrated from its origin
series launch at xi = delta0, with F(0) = 1 and F'(0) = 0.  Integration
stops at one of three events: f = F^{1/m} falls to the contact threshold,
f' turns non-negative, or the horizon cap is reached.  ``integrate_profile``
alone classifies the run, from its end state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._dop853 import solve_ivp
from .equation import f_from_F, origin_series, piecewise, profile_rhs
from .errors import DomainError
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
    also counts as tangential.  ``shooting.solve`` runs its bracket scan
    and bisections at max(``rtol``, COARSE_TOL**2) and only its
    certification samples at ``rtol``.
    """

    rtol: float = 1e-10
    atol: float = 1e-16
    delta0: float = 1e-6
    contact_eps: float = 1e-7
    horizon: Optional[float] = None  # None: HORIZON_FACTOR * absorption_scale
    #: stop when f' turns non-negative; disable to follow growing
    #: solutions (e.g. the small-beta regime) out to the horizon
    slope_event: bool = True
    slope_tol: float = 1e-4


def integrate_profile(
    p: Params,
    e: Exponents,
    opts: IntegratorOptions = IntegratorOptions(),
) -> ProfileSolution:
    """Integrate the profile Cauchy problem and classify it where it stops.

    A contact at xi0 is ClassA if F' < -slope_tol xi0^sigma, CandidateB
    if |F'| is within that bound, else Undetermined.  A slope event is
    ClassC, or CandidateB at xi0 = xi1 if f <= GRAZE_FACTOR * contact_eps
    there.  Any other stop is Undetermined.
    """
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

    end = float(sol.t[-1])
    xi0 = xi1 = None
    cls = Classification.UNDETERMINED
    if sol.status == 1 and len(sol.t_events[0]):
        stop = StopReason.CONTACT_ZERO
        xi0 = xi1 = end
        bound = opts.slope_tol * end**p.sigma
        Fp = float(sol.y[1, -1])
        if Fp < -bound:
            cls = Classification.CLASS_A
        elif abs(Fp) <= bound:
            cls = Classification.CANDIDATE_B
    elif sol.status == 1:
        stop = StopReason.SLOPE_SIGN_CHANGE
        xi1 = end
        f_end = f_from_F(p.m, sol.y[0, -1:], sol.y[1, -1:])[0][0]
        if f_end <= GRAZE_FACTOR * opts.contact_eps:
            cls, xi0 = Classification.CANDIDATE_B, end
        else:
            cls = Classification.CLASS_C
    elif sol.status == 0:
        stop = StopReason.HORIZON_REACHED
    else:
        stop = StopReason.STEP_FAILURE

    return ProfileSolution(
        params=p,
        exps=e,
        grid=sol.t,
        F_values=sol.y[0],
        Fprime_values=sol.y[1],
        xi0=xi0,
        xi1=xi1,
        classification=cls,
        stop_reason=stop,
        delta0=delta0,
        dense=piecewise(
            [delta0, np.nextafter(end, np.inf)],
            [functools.partial(origin_series, p, e.beta), sol.sol],
        ),
    )


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
        dense=piecewise(
            [delta0, np.inf], [functools.partial(origin_series, p, 0.0), sol.sol]
        ),
    )


def absorption_scale(p: Params) -> float:
    """Length scale at which absorption becomes of order one.

    The absorption term xi^{sigma+2} / ((sigma+2)(sigma+N)) of
    ``equation.origin_series`` reaches 1 at this xi.  Used as the unit
    for the integration horizon cap: far from beta*, profiles resolve
    their fate within a few of these lengths.
    """
    sigma = p.sigma
    return ((sigma + 2.0) * (sigma + p.N)) ** (1.0 / (sigma + 2.0))
