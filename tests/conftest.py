"""Shared fixtures: the four reference parameter sets, solved once."""

import pytest

from eternalprofile import make_params, solve

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
