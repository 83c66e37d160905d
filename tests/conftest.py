"""Shared fixtures: the four reference parameter sets, solved once."""

import pytest

from eternalprofile import (
    Classification,
    exponents_from_beta,
    integrate_profile,
    make_params,
    solve,
)

#: Reference parameter sets spanning the three interface cases:
#: (2, 0.5, *) super-critical, (1.5, 0.5, 2) critical,
#: (1.2, 0.3, 1) sub-critical.
CASES = [(2.0, 0.5, 1), (2.0, 0.5, 3), (1.5, 0.5, 2), (1.2, 0.3, 1)]


@pytest.fixture(scope="session")
def solved():
    """Full bracket + bisect + match solves for all reference cases."""
    return {c: solve(make_params(*c)) for c in CASES}


@pytest.fixture(scope="session")
def sub_case(solved):
    """The sub-critical reference solve, used by phase-space tests."""
    return solved[(1.2, 0.3, 1)]


@pytest.fixture(scope="session")
def no_contact():
    """A forward run that never touches zero: ClassC at beta = 0.05 on
    (1.2, 0.3, 1), so its xi0 is None."""
    p = make_params(1.2, 0.3, 1)
    run = integrate_profile(p, exponents_from_beta(p, 0.05))
    assert run.classification is Classification.CLASS_C and run.xi0 is None
    return run
