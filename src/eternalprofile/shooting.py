"""Shooting over the self-similarity exponent beta.

For small beta the slope of the profile turns upward before the profile
reaches zero (set C); for large beta the profile crosses zero with a
strictly negative slope (set A).  The boundary value beta* carries the
tangential contact.  This module brackets beta* by a geometric scan,
bisects down to beta_tol in double precision, and hands the resulting
estimates to the two-sided matching stage, which pins down (beta*, xi0)
to near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketFailure, DomainError, ProfileError
from .integrate import ClassifyTolerances, IntegratorOptions, integrate_profile
from .matching import MatchOptions, MatchResult, match_profile
from .model import Params, exponents_from_beta
from .solution import Classification, ProfileSolution

#: Geometric scan range for the initial bracket, in powers of two.
SCAN_EXP_LIMIT = 40

#: Tolerance-tightening tiers applied when a midpoint classifies
#: Undetermined.
TIGHTEN_FACTOR = 1e-2
TIGHTEN_TIERS = 3

@dataclass
class ShootingResult:
    """Converged shooting run: bracket, exponent pair and final profile."""

    beta_star: float
    alpha_star: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    final_profile: ProfileSolution
    history: List[Tuple[float, Classification]] = field(default_factory=list)
    match: Optional[MatchResult] = None

    @property
    def beta_star_str(self) -> str:
        """Shortest decimal string that round-trips to beta*."""
        return repr(self.beta_star)


@dataclass
class MonotonicityReport:
    """Pointwise comparison of two profiles with ordered beta."""

    beta1: float
    beta2: float
    xi_grid: np.ndarray
    gap: np.ndarray
    min_gap: float
    passed: bool


def _classify_at(
    p: Params,
    beta: float,
    opts: IntegratorOptions,
    tol: ClassifyTolerances,
) -> ProfileSolution:
    """Integrate at beta, tightening tolerances while Undetermined."""
    cur = opts
    e = exponents_from_beta(p, beta)
    sol = integrate_profile(p, e, cur, tol)
    for _ in range(TIGHTEN_TIERS):
        if sol.classification is not Classification.UNDETERMINED:
            break
        cur = cur.tightened(TIGHTEN_FACTOR)
        sol = integrate_profile(p, e, cur, tol)
    return sol


def bracket_beta(
    p: Params,
    opts: IntegratorOptions = IntegratorOptions(),
    tol: ClassifyTolerances = ClassifyTolerances(),
) -> Tuple[float, float]:
    """Geometric scan for a (ClassC, ClassA) bracket around beta*.

    Scans up by factors of two from beta = 1 until a ClassA sample is
    found and down until a ClassC sample is found.
    """
    hi = None
    beta = 1.0
    for _ in range(SCAN_EXP_LIMIT + 1):
        sol = _classify_at(p, beta, opts, tol)
        if sol.classification in (Classification.CLASS_A, Classification.CANDIDATE_B):
            hi = beta
            break
        beta *= 2.0
    if hi is None:
        raise BracketFailure(
            f"no ClassA sample up to beta = 2^{SCAN_EXP_LIMIT} for {p}"
        )
    lo = None
    beta = min(1.0, hi / 2.0)
    for _ in range(SCAN_EXP_LIMIT + 1):
        sol = _classify_at(p, beta, opts, tol)
        if sol.classification is Classification.CLASS_C:
            lo = beta
            break
        beta /= 2.0
    if lo is None:
        raise BracketFailure(
            f"no ClassC sample down to beta = 2^-{SCAN_EXP_LIMIT} for {p}"
        )
    return lo, hi


def bisect_beta(
    p: Params,
    bracket: Tuple[float, float],
    beta_tol: float = 1e-8,
    opts: IntegratorOptions = IntegratorOptions(),
    tol: ClassifyTolerances = ClassifyTolerances(),
) -> ShootingResult:
    """Bisect the (ClassC, ClassA) bracket down to relative width beta_tol.

    CandidateB midpoints (grazing contact, which forward integration
    cannot split further) are treated as the A side so the bracket keeps
    narrowing to the requested width.  The returned final_profile is
    re-integrated at the terminal midpoint.
    """
    lo, hi = bracket
    if not 0 < lo < hi:
        raise DomainError(f"invalid bracket {bracket}")
    history: List[Tuple[float, Classification]] = []
    iterations = 0
    beta_star = 0.5 * (lo + hi)
    while hi - lo > beta_tol * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        sol = _classify_at(p, mid, opts, tol)
        cls = sol.classification
        history.append((mid, cls))
        iterations += 1
        if cls is Classification.CLASS_C:
            lo = mid
        elif cls in (Classification.CLASS_A, Classification.CANDIDATE_B):
            hi = mid
        else:
            raise ProfileError(
                f"classification stayed Undetermined at beta={mid!r} "
                f"after {TIGHTEN_TIERS} tolerance tiers"
            )
        beta_star = 0.5 * (lo + hi)
    final = _classify_at(p, beta_star, opts, tol)
    return ShootingResult(
        beta_star=beta_star,
        alpha_star=2.0 * beta_star / (p.m - 1.0),
        bracket_lo=lo,
        bracket_hi=hi,
        iterations=iterations,
        final_profile=final,
        history=history,
    )


def solve(
    p: Params,
    beta_tol: float = 1e-8,
    opts: IntegratorOptions = IntegratorOptions(),
    tol: ClassifyTolerances = ClassifyTolerances(),
    match_opts: MatchOptions = MatchOptions(),
) -> ShootingResult:
    """Full pipeline: bracket, bisect, and match to tangential contact.

    The double-precision bisection localizes beta* to the forward noise
    floor; the two-sided matching stage then solves for (beta*, xi0)
    exactly, so the final profile is tangential at the interface by
    construction.
    """
    bracket = bracket_beta(p, opts, tol)
    result = bisect_beta(p, bracket, beta_tol, opts, tol)
    prof = result.final_profile
    stop = prof.xi1 if prof.xi1 is not None else float(prof.grid[-1])
    # the forward stop point undershoots the interface by a few percent
    matched = match_profile(p, result.beta_star, stop * 1.02, match_opts)
    if not matched.success or matched.profile is None:
        raise BracketFailure(
            f"matching stage failed for {p}: residual {matched.residual:.3e} "
            f"after {matched.nfev} evaluations"
        )
    beta_star = matched.beta_star
    return ShootingResult(
        beta_star=beta_star,
        alpha_star=2.0 * beta_star / (p.m - 1.0),
        bracket_lo=result.bracket_lo,
        bracket_hi=result.bracket_hi,
        iterations=result.iterations,
        final_profile=matched.profile,
        history=result.history,
        match=matched,
    )


def monotonicity_check(
    p: Params,
    beta1: float,
    beta2: float,
    grid_points: int = 200,
    interp_tol: float = 1e-9,
    opts: IntegratorOptions = IntegratorOptions(),
) -> MonotonicityReport:
    """Verify that profiles decrease pointwise as beta increases.

    Integrates both profiles and compares f on a shared grid over
    (0, min of the two slope-breakdown points); the smaller beta must
    dominate up to the interpolation tolerance.
    """
    if not 0 < beta1 < beta2:
        raise DomainError(
            f"need 0 < beta1 < beta2, got ({beta1}, {beta2})"
        )
    sol1 = integrate_profile(p, exponents_from_beta(p, beta1), opts)
    sol2 = integrate_profile(p, exponents_from_beta(p, beta2), opts)
    end = min(
        sol1.xi1 if sol1.xi1 is not None else float(sol1.grid[-1]),
        sol2.xi1 if sol2.xi1 is not None else float(sol2.grid[-1]),
    )
    xi = np.linspace(0.0, end, grid_points + 1)[1:]
    gap = sol1.eval_f(xi) - sol2.eval_f(xi)
    min_gap = float(gap.min())
    return MonotonicityReport(
        beta1=beta1,
        beta2=beta2,
        xi_grid=xi,
        gap=gap,
        min_gap=min_gap,
        passed=min_gap >= -interp_tol,
    )
