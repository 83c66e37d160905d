"""Cauchy-problem integrator for the profile ODE in F = f^m form.

The profile equation of ``equation`` is integrated from its origin
series launch at xi = DELTA0, with F(0) = 1 and F'(0) = 0, at a relative
tolerance ``rtol`` (default CLASSIFY_RTOL).  Integration stops at one of
three events: f = F^{1/m} falls to the contact threshold, f' turns
non-negative, or the horizon cap HORIZON_FACTOR * ``absorption_scale``
is reached.  ``integrate_profile`` alone classifies the run, from its
end state.
"""

from __future__ import annotations

import functools

import numpy as np

from ._dop853 import solve_ivp
from .equation import f_from_F, origin_series, piecewise, profile_rhs
from .errors import DomainError
from .model import Exponents, Params
from .solution import Classification, LimitProfile, ProfileSolution, StopReason


#: DOP853 rtol of a forward run when none is given; ``shooting.solve``
#: runs only its certification samples at the caller's rtol.
CLASSIFY_RTOL = 1e-10

#: Horizon cap of every forward run, in units of ``absorption_scale``.
HORIZON_FACTOR = 50.0

#: Origin launch offset (also of the matching's forward leg), contact
#: threshold in f units, and tangency tolerance in F' units, rescaled by
#: xi0^sigma at contact.
DELTA0 = 1e-6
CONTACT_EPS = 1e-7
SLOPE_TOL = 1e-4

#: DOP853 atol of every forward run and both matching legs, in F units.
#: It is meant to lie far below the contact level CONTACT_EPS ** m, so
#: that contact is resolved in relative terms; that holds only for
#: m < 16/7, and for larger m the contact level falls below ATOL.
ATOL = 1e-16

#: A slope event with f within this many CONTACT_EPS of zero is a
#: tangential (CandidateB) contact.
GRAZE_FACTOR = 10.0


def integrate_profile(
    p: Params,
    e: Exponents,
    rtol: float = CLASSIFY_RTOL,
) -> ProfileSolution:
    """Integrate the profile Cauchy problem and classify it where it stops.

    A contact at xi0 is ClassA if F' < -SLOPE_TOL xi0^sigma, CandidateB
    if |F'| is within that bound, else Undetermined.  A slope event is
    ClassC, or CandidateB at xi0 = xi1 if f <= GRAZE_FACTOR * CONTACT_EPS
    there.  Any other stop is Undetermined.
    """
    F0, Fp0 = origin_series(p, e.beta, DELTA0)
    F_contact = CONTACT_EPS**p.m

    def ev_contact(xi, y):
        return y[0] - F_contact

    ev_contact.terminal = True
    ev_contact.direction = -1

    def ev_slope(xi, y):
        return y[1]

    ev_slope.terminal = True
    ev_slope.direction = 1

    sol = solve_ivp(
        profile_rhs(p, e.beta, (0.1 * CONTACT_EPS) ** p.m),
        (DELTA0, HORIZON_FACTOR * absorption_scale(p)),
        [F0, Fp0],
        method="DOP853",
        rtol=rtol,
        atol=ATOL,
        events=[ev_contact, ev_slope],
        dense_output=True,
    )

    end = float(sol.t[-1])
    xi0 = xi1 = None
    cls = Classification.UNDETERMINED
    if sol.status == 1 and len(sol.t_events[0]):
        stop = StopReason.CONTACT_ZERO
        xi0 = xi1 = end
        bound = SLOPE_TOL * end**p.sigma
        Fp = float(sol.y[1, -1])
        if Fp < -bound:
            cls = Classification.CLASS_A
        elif abs(Fp) <= bound:
            cls = Classification.CANDIDATE_B
    elif sol.status == 1:
        stop = StopReason.SLOPE_SIGN_CHANGE
        xi1 = end
        f_end = f_from_F(p.m, sol.y[0, -1:], sol.y[1, -1:])[0][0]
        if f_end <= GRAZE_FACTOR * CONTACT_EPS:
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
        dense=piecewise(
            [DELTA0, np.nextafter(end, np.inf)],
            [functools.partial(origin_series, p, e.beta), sol.sol],
        ),
    )


def integrate_limit_profile(p: Params, horizon: float) -> LimitProfile:
    """Solve the beta -> 0 limit problem H'' + (N-1)/xi H' = xi^sigma H^{q/m}.

    H is strictly increasing; integration stops early if H reaches the
    overflow guard 1e12.
    """
    delta0 = 1e-8
    guard = 1e12
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
        rtol=1e-10,
        atol=1e-12,
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
