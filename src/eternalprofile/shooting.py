"""Shooting over the self-similarity exponent beta.

For small beta the slope of the profile turns upward before the profile
reaches zero (set C); for large beta the profile crosses zero with a
strictly negative slope (set A).  The boundary value beta* carries the
tangential contact.  This module brackets beta* by a geometric scan,
bisects only coarsely, and hands the resulting estimates to the
two-sided matching stage, which pins down (beta*, xi0) to near machine
precision.  The scan and the coarse bisection only have to resolve
COARSE_TOL, so they run at rtol = max(rtol, COARSE_TOL**2); the one
integration at the coarse estimate that seeds xi0, and every sample
after matching, keep the caller's rtol.  Two forward classifications
just below and just above the matched beta* then certify a bracket of
relative width beta_tol around it; an end that disagrees doubles its
offset from beta* until it agrees or reaches the coarse bracket's end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import BracketFailure, DomainError, ProfileError
from .integrate import IntegratorOptions, integrate_profile
from .matching import MatchResult, match_profile
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


def _classify_at(
    p: Params, beta: float, opts: IntegratorOptions
) -> ProfileSolution:
    """One forward integration at beta, classified by its stop event."""
    return integrate_profile(p, exponents_from_beta(p, beta), opts)


def bracket_beta(
    p: Params,
    opts: IntegratorOptions = IntegratorOptions(),
) -> Tuple[float, float]:
    """Geometric scan for a (ClassC, ClassA) bracket around beta*.

    Scans up by factors of two from beta = 1 until a ClassA sample is
    found, keeping the last ClassC sample on the way as the C end.  Only
    when there is none does it scan down from beta = 1/2 until a ClassC
    sample is found, lowering the A end at every ClassA sample on the way
    down.  Each beta is classified once.
    """
    lo = hi = None
    beta = 1.0
    for _ in range(SCAN_EXP_LIMIT + 1):
        cls = _classify_at(p, beta, opts).classification
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
        cls = _classify_at(p, beta, opts).classification
        if cls is Classification.CLASS_C:
            lo = beta
            break
        if cls in _A_SIDE:
            hi = beta
        beta /= 2.0
    if lo is None:
        raise BracketFailure(
            f"no ClassC sample down to beta = 2^-{SCAN_EXP_LIMIT} for {p}"
        )
    return lo, hi


def bisect_beta(
    p: Params,
    bracket: Tuple[float, float],
    beta_tol: float = BETA_TOL,
    opts: IntegratorOptions = IntegratorOptions(),
) -> ShootingResult:
    """Bisect the (ClassC, ClassA) bracket down to relative width beta_tol.

    CandidateB midpoints (grazing contact, which forward integration
    cannot split further) are treated as the A side so the bracket keeps
    narrowing to the requested width.  The returned final_profile is
    the profile of the last midpoint classified, or of beta_star when
    the bracket needed no midpoint.
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
        final = _classify_at(p, mid, opts)
        cls = final.classification
        history.append((mid, cls))
        if cls is Classification.CLASS_C:
            lo = mid
        elif cls in _A_SIDE:
            hi = mid
        else:
            raise ProfileError(
                f"classification is Undetermined at beta={mid!r}"
            )
        beta_star = 0.5 * (lo + hi)
    if final is None:
        final = _classify_at(p, beta_star, opts)
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


def solve(
    p: Params,
    beta_tol: float = BETA_TOL,
    opts: IntegratorOptions = IntegratorOptions(),
) -> ShootingResult:
    """Full pipeline: bracket, coarse bisection, matching, certification.

    Bisection to COARSE_TOL (or beta_tol, when wider) only supplies the
    starting guess, so the scan and the coarse bisection run at
    rtol = max(opts.rtol, COARSE_TOL**2).  One integration at the coarse
    estimate with the caller's opts seeds xi0 from its stop point; the
    two-sided matching stage then solves for (beta*, xi0) exactly, so
    final_profile, the matched profile, is tangential at the interface
    by construction.  Forward classifications at beta*(1 -+ beta_tol/2)
    certify a (ClassC, ClassA or CandidateB) bracket around the matched
    beta*.  An end on the wrong side doubles its offset from beta* until
    it agrees, and takes the coarse bracket's end, classified already,
    where it would pass it; the reported bracket is then wider than
    beta_tol.  A coarse bracket without beta* raises BracketFailure.
    ``iterations`` and ``history`` count every classification after the
    scan, the low end's before the high end's.
    """
    _check_beta_tol(beta_tol)
    coarse_opts = replace(opts, rtol=max(opts.rtol, COARSE_TOL**2))
    bracket = bracket_beta(p, coarse_opts)
    coarse = bisect_beta(p, bracket, max(COARSE_TOL, beta_tol), coarse_opts)
    prof = _classify_at(p, coarse.beta_star, opts)
    # the forward stop point undershoots the interface by a few percent
    matched = match_profile(p, coarse.beta_star, prof.xi_max * 1.02)
    if not matched.success:
        raise BracketFailure(
            f"matching stage failed for {p}: residual {matched.residual:.3e} "
            f"after {matched.nfev} evaluations"
        )
    beta_star = matched.beta_star
    history = list(coarse.history)
    ends = []
    for end, cap, side in zip(
        _certified_bracket(beta_star, beta_tol),
        (coarse.bracket_lo, coarse.bracket_hi),
        ((Classification.CLASS_C,), _A_SIDE),
    ):
        offset = end - beta_star
        while True:
            cls = _classify_at(p, end, opts).classification
            history.append((end, cls))
            if cls in side:
                break
            if not coarse.bracket_lo < beta_star < coarse.bracket_hi:
                raise BracketFailure(
                    f"matched beta* = {beta_star!r} lies outside the coarse "
                    f"bracket {(coarse.bracket_lo, coarse.bracket_hi)} for {p}"
                )
            offset *= 2.0
            if abs(offset) >= abs(cap - beta_star):
                end = cap
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
    opts: IntegratorOptions = IntegratorOptions(),
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
    sol1 = integrate_profile(p, exponents_from_beta(p, beta1), opts)
    sol2 = integrate_profile(p, exponents_from_beta(p, beta2), opts)
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
