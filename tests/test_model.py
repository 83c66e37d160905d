"""Parameter validation, derived exponents and the rescaling family."""

import numpy as np
import pytest

from eternalprofile import (
    DomainError,
    InterfaceCase,
    exponents_from_beta,
    interface_case,
    make_params,
    rescale_profile,
)


def test_critical_weight_attached():
    p = make_params(2.0, 0.5, 1)
    assert p.sigma == 2.0 * (1.0 - 0.5) / (2.0 - 1.0) == 1.0
    p = make_params(1.2, 0.3, 1)
    assert p.sigma == pytest.approx(7.0, rel=1e-15)


def test_params_are_frozen():
    p = make_params(2.0, 0.5, 1)
    with pytest.raises(AttributeError):
        p.m = 3.0


@pytest.mark.parametrize(
    "m, q, N",
    [(1.0, 0.5, 1), (0.8, 0.5, 1), (2.0, 0.0, 1), (2.0, 1.0, 1),
     (2.0, -0.1, 2), (2.0, 0.5, 0), (2.0, 0.5, 1.5)],
)
def test_invalid_parameters_rejected(m, q, N):
    with pytest.raises(DomainError):
        make_params(m, q, N)


def test_integral_float_N_accepted():
    assert make_params(2.0, 0.5, 3.0).N == 3


def test_sigma_cannot_be_overridden():
    from eternalprofile.model import Params

    with pytest.raises(DomainError):
        Params(m=2.0, q=0.5, N=1, sigma=2.5)


def test_alpha_slaved_to_beta():
    p = make_params(2.0, 0.5, 1)
    e = exponents_from_beta(p, 0.75)
    assert e.alpha == 2.0 * 0.75 / (2.0 - 1.0)
    with pytest.raises(DomainError):
        exponents_from_beta(p, 0.0)
    with pytest.raises(DomainError):
        exponents_from_beta(p, -1.0)


@pytest.mark.parametrize(
    "m, q, case",
    [
        (2.0, 0.5, InterfaceCase.SUPER_CRITICAL),
        (1.5, 0.5, InterfaceCase.CRITICAL),
        (1.2, 0.3, InterfaceCase.SUB_CRITICAL),
        (1.7, 0.3, InterfaceCase.CRITICAL),
    ],
)
def test_interface_case_sign(m, q, case):
    assert interface_case(make_params(m, q, 1)) is case


@pytest.mark.parametrize("m, q", [(1.0010000000009, 0.999), (1.0001000000005, 0.9999)])
def test_critical_within_case_eps_where_sigma_is_off_2(m, q):
    # m + q - 2 is within CASE_EPS, but sigma = 2(1-q)/(m-1) misses 2 by
    # about 2e-12 / (1 - q); the triple is valid and critical
    p = make_params(m, q, 1)
    assert abs(p.sigma - 2.0) > 1e-9
    assert interface_case(p) is InterfaceCase.CRITICAL


def test_rescale_profile_scales_height_exactly(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    for a in (0.5, 2.0, 4.0):
        g = rescale_profile(sol, a)
        assert g.f0 == a
        # central value of the dense output
        assert float(g.eval_f(0.0)) == pytest.approx(a, rel=1e-14)


def test_rescale_profile_stretches_support(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    a = 4.0
    g = rescale_profile(sol, a)
    s = a ** (-(sol.params.m - 1.0) / 2.0)
    assert g.xi0 == pytest.approx(sol.xi0 / s, rel=1e-15)
    xi = np.linspace(0.1, 0.9 * sol.xi0, 50)
    np.testing.assert_allclose(
        g.eval_f(xi / s), a * sol.eval_f(xi), rtol=1e-12
    )


def test_rescale_rejects_nonpositive_amplitude(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    with pytest.raises(DomainError):
        rescale_profile(sol, 0.0)
    with pytest.raises(DomainError):
        rescale_profile(sol, -2.0)
