"""Parameters, derived exponents and the profile-family rescaling.

The solver works in the critical-weight regime: diffusion exponent m > 1,
absorption exponent 0 < q < 1, and spatial weight exponent fixed at
sigma = 2(1-q)/(m-1).  All downstream modules consume the immutable
``Params`` / ``Exponents`` pair defined here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .equation import piecewise
from .errors import DomainError
from .solution import ProfileSolution

#: Tolerance for detecting the algebraic identity m + q = 2.
CASE_EPS = 1e-12


@dataclass(frozen=True)
class Params:
    """Validated problem parameters.

    ``sigma`` is always the critical value 2(1-q)/(m-1); it is derived,
    never user-set.
    """

    m: float
    q: float
    N: int
    sigma: float

    def __post_init__(self) -> None:
        if not self.m > 1:
            raise DomainError(f"m must be > 1, got {self.m}")
        if not 0 < self.q < 1:
            raise DomainError(f"q must be in (0, 1), got {self.q}")
        if not (isinstance(self.N, int) and self.N >= 1):
            raise DomainError(f"N must be an integer >= 1, got {self.N!r}")
        sigma_c = 2.0 * (1.0 - self.q) / (self.m - 1.0)
        if self.sigma != sigma_c:
            raise DomainError(
                f"sigma must equal the critical value {sigma_c}, got {self.sigma}"
            )
        if abs(self.m + self.q - 2.0) <= CASE_EPS:
            assert abs(self.sigma - 2.0) <= 1e-9, "m+q=2 must imply sigma=2"


class InterfaceCase(enum.Enum):
    """Sign of m + q - 2, which selects the interface expansion."""

    SUB_CRITICAL = "sub_critical"      # m + q < 2
    CRITICAL = "critical"              # m + q = 2
    SUPER_CRITICAL = "super_critical"  # m + q > 2


@dataclass(frozen=True)
class Exponents:
    """Self-similar exponent pair; alpha is slaved to beta."""

    beta: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise DomainError(f"beta must be > 0, got {self.beta}")


def make_params(m: float, q: float, N: int) -> Params:
    """Validate (m, q, N) and attach the critical weight exponent."""
    if isinstance(N, float):
        if not N.is_integer():
            raise DomainError(f"N must be an integer, got {N}")
        N = int(N)
    m, q = float(m), float(q)
    if not m > 1:
        raise DomainError(f"m must be > 1, got {m}")
    return Params(m=m, q=q, N=N, sigma=2.0 * (1.0 - q) / (m - 1.0))


def exponents_from_beta(p: Params, beta: float) -> Exponents:
    """Return (beta, alpha) with alpha = 2 beta / (m - 1); ``Exponents``
    rejects beta <= 0."""
    beta = float(beta)
    return Exponents(beta=beta, alpha=2.0 * beta / (p.m - 1.0))


def interface_case(p: Params) -> InterfaceCase:
    """Branch on the sign of m + q - 2 with tolerance CASE_EPS."""
    s = p.m + p.q - 2.0
    if abs(s) <= CASE_EPS:
        return InterfaceCase.CRITICAL
    return InterfaceCase.SUPER_CRITICAL if s > 0 else InterfaceCase.SUB_CRITICAL


def rescale_profile(profile: ProfileSolution, a: float) -> ProfileSolution:
    """Map f onto the family member g(xi) = a f(a^{-(m-1)/2} xi).

    The stretched profile solves the same ODE with the same exponents and
    satisfies g(0) = a, g'(0) = 0.  Grid, values and events are stretched
    accordingly; the dense evaluator wraps the original one up to and
    including the stretched support end, and is zero beyond.
    """
    a = float(a)
    if not a > 0:
        raise DomainError(f"rescaling amplitude must be > 0, got {a}")
    m = profile.params.m
    s = a ** (-(m - 1.0) / 2.0)   # argument scaling: g(xi) = a f(s xi)
    am = a ** m
    base_eval = profile.eval_F
    end = profile.grid[-1] if profile.xi0 is None else profile.xi0

    def stretched(xi):
        F, Fp = base_eval(xi * s)
        return am * F, am * s * Fp

    return replace(
        profile,
        grid=profile.grid / s,
        F_values=am * profile.F_values,
        Fprime_values=am * s * profile.Fprime_values,
        xi0=None if profile.xi0 is None else profile.xi0 / s,
        xi1=None if profile.xi1 is None else profile.xi1 / s,
        f0=a * profile.f0,
        dense=piecewise([np.nextafter(end / s, np.inf)], [stretched]),
        odesol=None,
    )
