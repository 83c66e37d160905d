"""Bracketing, bisection and the full solve pipeline."""

import numpy as np
import pytest

from eternalprofile import (
    BracketFailure,
    Classification,
    DomainError,
    bisect_beta,
    bracket_beta,
    make_params,
    solve,
)
from eternalprofile.shooting import monotonicity_check

#: Frozen fixed points of the matching solve, cross-checked against an
#: independent deep-bisection run; see the unit tests below.
BETA_STAR = {
    (2.0, 0.5, 1): 0.5138348204162287,
    (2.0, 0.5, 3): 0.960620634236639,
    (1.5, 0.5, 2): 0.5000000000001144,
    (1.2, 0.3, 1): 0.14127220063389898,
}
XI0_STAR = {
    (2.0, 0.5, 1): 3.2008608890490176,
    (2.0, 0.5, 3): 4.2864597660849375,
    (1.5, 0.5, 2): 2.4494892833846236,
    (1.2, 0.3, 1): 1.5208038935152375,
}


def test_bracket_beta_orders_classes():
    p = make_params(2.0, 0.5, 1)
    lo, hi = bracket_beta(p)
    assert 0 < lo < hi
    assert lo < BETA_STAR[(2.0, 0.5, 1)] < hi


def test_bisect_beta_narrows_to_tolerance():
    p = make_params(2.0, 0.5, 1)
    result = bisect_beta(p, (0.25, 1.0), beta_tol=1e-6)
    rel = (result.bracket_hi - result.bracket_lo) / result.beta_star
    assert rel <= 1e-6
    assert result.beta_star == pytest.approx(
        BETA_STAR[(2.0, 0.5, 1)], rel=1e-6
    )
    assert all(
        cls
        in (
            Classification.CLASS_A,
            Classification.CLASS_C,
            Classification.CANDIDATE_B,
        )
        for _, cls in result.history
    )


def test_bisect_beta_rejects_bad_bracket():
    p = make_params(2.0, 0.5, 1)
    with pytest.raises(DomainError):
        bisect_beta(p, (1.0, 0.25))


def test_unbracketable_case_raises_bracket_failure():
    # for beta >= 1 the forward integration stops with a step failure
    # that classifies as Undetermined, so the upward scan runs out
    with pytest.raises(BracketFailure):
        solve(make_params(3.0, 0.5, 1))


@pytest.mark.parametrize("case", sorted(BETA_STAR))
def test_solve_reproduces_frozen_beta_star(solved, case):
    result = solved[case]
    assert result.beta_star == pytest.approx(BETA_STAR[case], rel=1e-9)
    assert result.final_profile.xi0 == pytest.approx(XI0_STAR[case], rel=1e-9)
    assert result.match is not None
    assert result.match.residual < 1e-10


def test_critical_case_beta_star_is_half(solved):
    # on the critical line m + q = 2 the matched exponent lands on 1/2
    # to eleven digits
    assert solved[(1.5, 0.5, 2)].beta_star == pytest.approx(0.5, abs=2e-11)


def test_unseeded_reports_true_bracket(solved_unseeded):
    for case, result in solved_unseeded.items():
        assert result.bracket_lo < result.beta_star < result.bracket_hi
        assert result.iterations > 0
        assert len(result.history) == result.iterations


def test_beta_star_str_round_trips(solved):
    result = solved[(2.0, 0.5, 1)]
    assert float(result.beta_star_str) == result.beta_star


def test_solve_has_no_seed_switch():
    # solve always brackets, bisects and matches
    with pytest.raises(TypeError):
        solve(make_params(2.0, 0.5, 1), use_seeds=False)


def test_monotonicity_in_beta():
    p = make_params(2.0, 0.5, 1)
    rep = monotonicity_check(p, 0.5, 1.0)
    assert rep.passed
    assert rep.min_gap >= -1e-9
    assert len(rep.xi_grid) == 200
    with pytest.raises(DomainError):
        monotonicity_check(p, 1.0, 0.5)
