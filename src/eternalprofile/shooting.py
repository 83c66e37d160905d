"""Shooting over the self-similarity exponent beta.

For small beta the slope of the profile turns upward before the profile
reaches zero (set C); for large beta the profile crosses zero with a
strictly negative slope (set A).  The boundary value beta* carries the
tangential contact.  This module brackets beta* by a geometric scan,
bisects only to SEED_TOL, and hands the resulting estimates to the
two-sided matching stage, which pins down (beta*, xi0) to near machine
precision.  The scan and the bisection only have to seed Newton, so
they run at rtol = max(rtol, COARSE_TOL**2), and xi0 is seeded from the
last midpoint's run through the rescaling family
(``matching.seed_xi0``).  Two forward classifications at the
caller's rtol just below and just above the matched beta* then certify
a bracket of relative width beta_tol around it; an end that disagrees
doubles its offset from beta* until it agrees or reaches the end of the
coarse bracket, the seed bracket bisected on to COARSE_TOL, which only
such an end pays for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketFailure, DomainError
from .integrate import CLASSIFY_RTOL, integrate_profile
from .matching import RTOL as MATCH_RTOL, MatchResult, match_profile, seed_xi0
from .model import Params, exponents_from_beta
from .solution import Classification, ProfileSolution

#: Geometric scan range for the initial bracket, in powers of two.
SCAN_EXP_LIMIT = 40

#: Relative width of the reported bracket around beta*, when none is given.
BETA_TOL = 1e-8

#: Smallest beta_tol: four spacings of doubles keep the certified bracket
#: ends strictly inside it, and bisection stops at adjacent floats.
MIN_BETA_TOL = 4 * float(np.finfo(float).eps)

#: Relative width of the bisection bracket that seeds the matching stage.
SEED_TOL = 1e-2

#: Relative width of the coarse bracket that caps a widening certification
#: end; its square is the rtol of every forward run before matching.
COARSE_TOL = 1e-3

#: Classes on the A side of beta*; CandidateB grazing counts with them.
_A_SIDE = (Classification.CLASS_A, Classification.CANDIDATE_B)


@dataclass
class ShootingResult:
    """Converged shooting run: bracket, exponent pair and final profile."""

    beta_star: float
    bracket_lo: float
    bracket_hi: float
    final_profile: ProfileSolution
    history: List[Tuple[float, Classification]] = field(default_factory=list)
    match: Optional[MatchResult] = None

    @property
    def alpha_star(self) -> float:
        """alpha* = 2 beta* / (m - 1)."""
        return 2.0 * self.beta_star / (self.final_profile.params.m - 1.0)

    @property
    def iterations(self) -> int:
        """Number of classifications recorded in ``history``."""
        return len(self.history)

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


def _check_beta_tol(beta_tol: float) -> None:
    if not beta_tol >= MIN_BETA_TOL:
        raise DomainError(
            f"beta_tol must be >= {MIN_BETA_TOL!r} (4 eps), got {beta_tol!r}"
        )


def _classify_at(p: Params, beta: float, rtol: float) -> ProfileSolution:
    """One forward integration at beta, classified by its stop event."""
    return integrate_profile(p, exponents_from_beta(p, beta), rtol)


def bracket_beta(
    p: Params,
    rtol: float = CLASSIFY_RTOL,
) -> Tuple[float, float]:
    """Geometric scan for a (ClassC, ClassA) bracket around beta*.

    Scans up by factors of two from beta = 1 until a ClassA sample is
    found, keeping the last ClassC sample on the way as the C end.  Only
    when there is none does it scan down from beta = 1/2 until a ClassC
    sample is found, lowering the A end at every ClassA sample on the way
    down.  Each beta is classified once, by a forward run at ``rtol``.
    """
    lo = hi = None
    beta = 1.0
    for _ in range(SCAN_EXP_LIMIT + 1):
        cls = _classify_at(p, beta, rtol).classification
        if cls in _A_SIDE:
            hi = beta
            break
        if cls is Classification.CLASS_C:
            lo = beta
        beta *= 2.0
    if hi is None:
        raise BracketFailure(
            f"no ClassA sample up to beta = 2^{SCAN_EXP_LIMIT} for {p}"
        )
    if lo is not None:
        return lo, hi
    beta = 0.5
    for _ in range(SCAN_EXP_LIMIT + 1):
        cls = _classify_at(p, beta, rtol).classification
        if cls is Classification.CLASS_C:
            lo = beta
            break
        if cls in _A_SIDE:
            hi = beta
        beta /= 2.0
    if lo is None:
        raise BracketFailure(
            f"no ClassC sample down to beta = 2^-{SCAN_EXP_LIMIT + 1} for {p}"
        )
    return lo, hi


def bisect_beta(
    p: Params,
    bracket: Tuple[float, float],
    beta_tol: float = BETA_TOL,
    rtol: float = CLASSIFY_RTOL,
) -> ShootingResult:
    """Bisect the (ClassC, ClassA) bracket down to relative width beta_tol.

    Each midpoint is classified by one forward run at ``rtol``.

    CandidateB midpoints (grazing contact, which forward integration
    cannot split further) are treated as the A side so the bracket keeps
    narrowing to the requested width; an Undetermined midpoint raises
    BracketFailure.  The returned final_profile is the profile of the
    last midpoint classified, or of beta_star when the bracket needed no
    midpoint.
    """
    _check_beta_tol(beta_tol)
    lo, hi = bracket
    if not 0 < lo < hi:
        raise DomainError(f"invalid bracket {bracket}")
    history: List[Tuple[float, Classification]] = []
    beta_star = 0.5 * (lo + hi)
    final = None
    while hi - lo > beta_tol * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        final = _classify_at(p, mid, rtol)
        cls = final.classification
        history.append((mid, cls))
        if cls is Classification.CLASS_C:
            lo = mid
        elif cls in _A_SIDE:
            hi = mid
        else:
            raise BracketFailure(
                f"bisection of [{lo!r}, {hi!r}] for {p}: classification "
                f"is Undetermined at beta={mid!r}"
            )
        beta_star = 0.5 * (lo + hi)
    if final is None:
        final = _classify_at(p, beta_star, rtol)
    return ShootingResult(
        beta_star=beta_star,
        bracket_lo=lo,
        bracket_hi=hi,
        final_profile=final,
        history=history,
    )


def _certified_bracket(beta_star: float, beta_tol: float) -> Tuple[float, float]:
    """[beta*(1 - beta_tol/2), beta*(1 + beta_tol/2)], pulled in by ulps
    until its computed relative width is at most beta_tol."""
    lo = beta_star * (1.0 - 0.5 * beta_tol)
    hi = beta_star * (1.0 + 0.5 * beta_tol)
    while (hi - lo) / beta_star > beta_tol:
        lo, hi = np.nextafter(lo, beta_star), np.nextafter(hi, beta_star)
    return float(lo), float(hi)


def _bisected(
    bracket: Tuple[float, float], beta_star: float, beta_tol: float
) -> Tuple[float, float]:
    """The bracket that bisecting ``bracket`` to beta_tol leaves when
    every midpoint below beta_star classifies ClassC and every other one
    on the A side; no integration."""
    lo, hi = bracket
    while hi - lo > beta_tol * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        if mid < beta_star:
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve(
    p: Params,
    beta_tol: float = BETA_TOL,
    rtol: float = CLASSIFY_RTOL,
) -> ShootingResult:
    """Full pipeline: bracket, seed bisection, matching, certification.

    The scan and the bisection to SEED_TOL (or beta_tol, when wider)
    only seed the matching stage, so they run at
    rtol = max(rtol, COARSE_TOL**2), and xi0 is seeded from the last
    midpoint's run by ``matching.seed_xi0``, with one backward leg at
    that rtol; a seed that fails raises BracketFailure before Newton
    runs.  The two-sided matching stage then solves for
    (beta*, xi0), so final_profile, the matched profile, is tangential
    at the interface by construction.  Forward classifications at
    beta*(1 -+ beta_tol/2), at the caller's rtol, certify a (ClassC,
    ClassA or CandidateB) bracket around the matched beta*.  An end on
    the wrong side doubles its offset from beta* until it agrees.  Where
    it would pass the coarse bracket's end it takes that end instead,
    and the reported bracket is wider than beta_tol.  The coarse bracket
    is the seed bracket bisected on to COARSE_TOL (or beta_tol, when
    wider) at the same rtol, the bisection a capped end runs first.  A
    bracket that misses beta* by more than matching.RTOL relative, to
    which the matched beta* is resolved, raises BracketFailure.
    ``iterations`` and ``history`` count every classification after the
    scan, in the order made.
    """
    _check_beta_tol(beta_tol)
    coarse_rtol = max(rtol, COARSE_TOL**2)
    coarse_tol = max(COARSE_TOL, beta_tol)
    seed = bisect_beta(
        p, bracket_beta(p, coarse_rtol), max(SEED_TOL, beta_tol), coarse_rtol
    )
    matched = match_profile(
        p, seed.beta_star, seed_xi0(p, seed.final_profile, coarse_rtol)
    )
    if not matched.success:
        raise BracketFailure(
            f"matching stage failed for {p}: residual {matched.residual:.3e} "
            f"after {matched.nfev} evaluations"
        )
    beta_star = matched.beta_star
    # the matched beta* is resolved to about the legs' rtol
    slack = MATCH_RTOL * beta_star
    seed_bracket = (seed.bracket_lo, seed.bracket_hi)
    # where the coarse bracket ends if its midpoints agree with beta*
    caps = _bisected(seed_bracket, beta_star, coarse_tol)
    coarse = seed_bracket if caps == seed_bracket else None
    history = list(seed.history)

    def check_contains(bracket, holds=True):
        if not (holds and bracket[0] - slack < beta_star < bracket[1] + slack):
            raise BracketFailure(
                f"matched beta* = {beta_star!r} lies outside the coarse "
                f"bracket {bracket} for {p}"
            )

    ends = []
    for i, (end, side) in enumerate(zip(
        _certified_bracket(beta_star, beta_tol),
        ((Classification.CLASS_C,), _A_SIDE),
    )):
        offset = end - beta_star
        while True:
            cls = _classify_at(p, end, rtol).classification
            history.append((end, cls))
            if cls in side:
                break
            check_contains(seed_bracket)
            offset *= 2.0
            if abs(offset) >= abs(caps[i] - beta_star):
                if coarse is None:
                    rest = bisect_beta(
                        p, seed_bracket, coarse_tol, coarse_rtol
                    )
                    history.extend(rest.history)
                    coarse = (rest.bracket_lo, rest.bracket_hi)
                end = coarse[i]
                # a cap within the slack but on beta*'s far side is no end
                check_contains(coarse, (end - beta_star) * offset > 0.0)
                break
            end = beta_star + offset
        ends.append(end)
    return ShootingResult(
        beta_star=beta_star,
        bracket_lo=ends[0],
        bracket_hi=ends[1],
        final_profile=matched.profile,
        history=history,
        match=matched,
    )


def monotonicity_check(
    p: Params,
    beta1: float,
    beta2: float,
) -> MonotonicityReport:
    """Verify that profiles decrease pointwise as beta increases.

    Integrates both profiles and compares f on a shared grid of 200
    points over (0, min of the two slope-breakdown points); the smaller
    beta must dominate up to an interpolation tolerance of 1e-9.
    """
    if not 0 < beta1 < beta2:
        raise DomainError(
            f"need 0 < beta1 < beta2, got ({beta1}, {beta2})"
        )
    sol1 = integrate_profile(p, exponents_from_beta(p, beta1))
    sol2 = integrate_profile(p, exponents_from_beta(p, beta2))
    xi = np.linspace(0.0, min(sol1.xi_max, sol2.xi_max), 201)[1:]
    gap = sol1.eval_f(xi) - sol2.eval_f(xi)
    min_gap = float(gap.min())
    return MonotonicityReport(
        beta1=beta1,
        beta2=beta2,
        xi_grid=xi,
        gap=gap,
        min_gap=min_gap,
        passed=min_gap >= -1e-9,
    )
