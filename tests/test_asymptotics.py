"""Interface constants, predicted expansions, and least-squares fits."""

import numpy as np
import pytest

from eternalprofile import (
    Classification,
    InterfaceCase,
    exponents_from_beta,
    fit_interface,
    integrate_profile,
    interface_case,
    make_params,
    matching,
    predict_expansion,
)
from eternalprofile.asymptotics import (
    K0_constant,
    K1_constant,
    K2_constant,
    K3_constant,
    upper_bounds_check,
)
from eternalprofile.errors import ProfileError, WindowError

# Frozen oracles, evaluated independently at 40-digit precision from the
# closed forms K1 = [(m-q)/sqrt(2m(m+q))]^{2/(m-q)},
# K2 = [sqrt(1+b^2/4m) - b/(2 sqrt m)]^{2/(m-q)},
# K3 = [(1-q)/b]^{1/(1-q)},
# K0 = (m-q) b K1^{2-m} / (m(1-q)(m+q+2)), at b = 0.7.
K_ORACLES = {
    (2.0, 0.5): (
        0.36993181114957051522,
        0.72129708351777448197,
        0.51020408163265306122,
        0.23333333333333333333,
    ),
    (1.5, 0.5): (
        0.16666666666666666667,
        0.56890550386667348317,
        0.51020408163265306122,
        0.095257934441568037152,
    ),
    (1.2, 0.3): (
        0.19063506985805546627,
        0.49735358558755087107,
        1.0,
        0.056905659036355330406,
    ),
}


@pytest.mark.parametrize("mq", sorted(K_ORACLES))
def test_interface_constants_against_oracles(mq):
    m, q = mq
    p = make_params(m, q, 1)
    K1o, K2o, K3o, K0o = K_ORACLES[mq]
    assert K1_constant(p) == pytest.approx(K1o, rel=1e-14)
    assert K2_constant(p, 0.7) == pytest.approx(K2o, rel=1e-14)
    assert K3_constant(p, 0.7) == pytest.approx(K3o, rel=1e-14)
    assert K0_constant(p, 0.7) == pytest.approx(K0o, rel=1e-14)


def test_predicted_theta_by_case():
    # m + q > 2: theta = 1/(1-q); otherwise theta = 2/(m-q)
    for (m, q), theta in [
        ((2.0, 0.5), 2.0),
        ((1.5, 0.5), 2.0),
        ((1.2, 0.3), 2.0 / 0.9),
    ]:
        p = make_params(m, q, 1)
        e = exponents_from_beta(p, 0.5)
        expn = predict_expansion(p, e, 3.0)
        assert expn.theta == pytest.approx(theta, rel=1e-14)


def test_second_order_only_in_subcritical():
    for m, q in [(2.0, 0.5), (1.5, 0.5)]:
        p = make_params(m, q, 1)
        expn = predict_expansion(p, exponents_from_beta(p, 0.5), 3.0)
        assert expn.second_order_coeff is None
    p = make_params(1.2, 0.3, 1)
    expn = predict_expansion(p, exponents_from_beta(p, 0.5), 3.0)
    assert expn.second_order_coeff is not None and expn.second_order_coeff > 0


def test_amplitude_closed_forms(solved):
    # frozen oracle amplitudes at the matched (beta*, xi0), evaluated
    # independently at 40-digit precision
    oracles = {
        (2.0, 0.5, 1): 0.946875645418018457,
        (2.0, 0.5, 3): 0.270916955509580375,
        (1.5, 0.5, 2): 0.666666666666722405,
        (1.2, 0.3, 1): 4.9697122521071502,
    }
    for case, amp in oracles.items():
        result = solved[case]
        sol = result.final_profile
        expn = predict_expansion(sol.params, sol.exps, sol.xi0)
        assert expn.amplitude == pytest.approx(amp, rel=1e-9)


def test_fit_interface_rejects_forward_profile(solved):
    # a forward ClassA run stops at f = CONTACT_EPS, short of its
    # interface; only a matched profile anchors the fit
    case = (2.0, 0.5, 1)
    p = make_params(*case)
    sol = integrate_profile(
        p, exponents_from_beta(p, 1.01 * solved[case].beta_star)
    )
    assert sol.classification is Classification.CLASS_A
    with pytest.raises(ProfileError, match="matched profile"):
        fit_interface(sol)


def test_fit_interface_recovers_theta_and_amplitude(solved):
    for case, result in solved.items():
        sol = result.final_profile
        expn = predict_expansion(sol.params, sol.exps, sol.xi0)
        sub = interface_case(sol.params) is InterfaceCase.SUB_CRITICAL
        fit = fit_interface(sol)
        assert fit.theta_hat == pytest.approx(expn.theta, rel=0.02), case
        assert fit.amplitude_hat == pytest.approx(expn.amplitude, rel=0.05), case
        if sub:
            assert fit.second_order_hat == pytest.approx(
                expn.second_order_coeff, rel=0.10
            ), case
        else:
            assert fit.second_order_hat is None


def test_fit_window_defaults_near_interface(solved):
    sol = solved[(2.0, 0.5, 1)].final_profile
    lo, hi = fit_interface(sol).fit_window
    assert sol.xi0 * 0.999 < lo < hi < sol.xi0


def test_fit_interface_needs_twenty_samples_in_its_window(solved, monkeypatch):
    # keep every fifth of the 80 samples positive: 16 are left to fit
    sol = solved[(2.0, 0.5, 1)].final_profile
    samples = matching.interface_samples

    def sparse(*args):
        d, f, fp = samples(*args)
        return d, np.where(np.arange(f.size) % 5 == 0, f, 0.0), fp

    monkeypatch.setattr(matching, "interface_samples", sparse)
    with pytest.raises(WindowError, match="only 16 usable samples"):
        fit_interface(sol)


def test_upper_bounds_hold_on_outer_half(solved):
    for case, result in solved.items():
        report = upper_bounds_check(result.final_profile)
        assert report.passed, case
        assert report.gradient_margin >= 0
        assert report.height_margin >= 0


def test_interface_checks_need_an_interface(no_contact):
    with pytest.raises(ProfileError, match="finite xi0"):
        upper_bounds_check(no_contact)
    with pytest.raises(ProfileError, match="xi0 must be > 0"):
        predict_expansion(no_contact.params, no_contact.exps, 0.0)
