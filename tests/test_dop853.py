"""The scalar DOP853 kernel against scipy's DOP853.

Both run the same method, but they sum the tableau products in a
different order.  The error estimate is a difference of nearly equal
sums, so at tight tolerances that rounding moves each step size by up
to ~1e-5 relative, and the step-size sequences drift apart while the
step counts stay equal.  The element-wise comparisons therefore cap the
step at ``max_step = 1/64``, below every step the controller would pick
here, so that both take identical steps and every other difference is
rounding in the stages and the interpolant.
"""

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate._ivp import dop853_coefficients

from eternalprofile import (
    Classification,
    exponents_from_beta,
    integrate,
    integrate_profile,
    make_params,
)
from eternalprofile._dop853 import solve_ivp
from eternalprofile.solution import StopReason

H = 1.0 / 64.0
TOL = dict(rtol=1e-10, atol=1e-12)


def oscillator(t, y):
    """A damped linear oscillator."""
    return (y[1], -4.0 * y[0] - 0.1 * y[1])


def both(fun, t_span, y0, **kwargs):
    """(scipy's result, the kernel's result) for the same problem."""
    ref = scipy.integrate.solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)
    ours = solve_ivp(fun, t_span, y0, method="DOP853", **kwargs)
    return ref, ours


def test_scipy_tableau_layout():
    c = dop853_coefficients
    assert (c.N_STAGES, c.N_STAGES_EXTENDED, c.INTERPOLATOR_POWER) == (12, 16, 7)
    assert c.A.shape == (16, 16)
    assert c.B.shape == (12,)
    assert c.C.shape == (16,)
    assert c.E3.shape == c.E5.shape == (13,)
    assert c.D.shape == (4, 16)


@pytest.mark.parametrize("t_span", [(0.0, 4.0), (4.0, 0.0)])
def test_fixed_steps_match_scipy(t_span):
    ref, ours = both(oscillator, t_span, [1.0, 0.5], max_step=H,
                     dense_output=True, **TOL)
    assert ours.status == ref.status == 0
    assert ours.message == ref.message
    assert ours.success
    assert ours.nfev == ref.nfev
    assert len(ours.t) == len(ref.t) == 257
    np.testing.assert_array_equal(ours.t, ref.t)
    np.testing.assert_allclose(ours.y, ref.y, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("t_span", [(0.0, 4.0), (4.0, 0.0)])
def test_dense_output_matches_scipy(t_span):
    ref, ours = both(oscillator, t_span, [1.0, 0.5], max_step=H,
                     dense_output=True, **TOL)
    assert isinstance(ours.sol, scipy.integrate.OdeSolution)
    assert ours.sol(1.3).shape == (2,)
    t = np.linspace(0.0, 4.0, 101)
    assert ours.sol(t).shape == (2, 101)
    np.testing.assert_allclose(ours.sol(t), ref.sol(t), rtol=0, atol=1e-13)
    np.testing.assert_allclose(ours.sol(1.3), ref.sol(1.3), rtol=0, atol=1e-13)


@pytest.mark.parametrize("rtol", [1e-3, 1e-6, 1e-10, 1e-12])
@pytest.mark.parametrize("t_span", [(0.0, 10.0), (10.0, 0.0)])
def test_step_control_matches_scipy(t_span, rtol):
    ref, ours = both(oscillator, t_span, [1.0, 0.5], rtol=rtol,
                     atol=rtol * 1e-2)
    assert len(ours.t) == len(ref.t)
    assert ours.nfev == ref.nfev
    assert ours.t[1] == pytest.approx(ref.t[1], rel=1e-13)
    np.testing.assert_allclose(ours.y[:, -1], ref.y[:, -1], rtol=0,
                               atol=100 * rtol)


def crossing(t, y):
    return y[0]


crossing.terminal = True
crossing.direction = -1


def turning(t, y):
    return y[1]


turning.terminal = True
turning.direction = 1


@pytest.mark.parametrize("event", [crossing, turning])
@pytest.mark.parametrize("dense", [False, True])
def test_terminal_events_match_scipy(event, dense):
    ref, ours = both(oscillator, (0.0, 10.0), [1.0, 0.5], events=[event],
                     dense_output=dense, **TOL)
    assert ours.status == ref.status == 1
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev
    assert len(ours.t) == len(ref.t)
    assert ours.t_events[0].shape == ref.t_events[0].shape == (1,)
    np.testing.assert_allclose(ours.t_events[0], ref.t_events[0], rtol=1e-12)
    assert ours.t[-1] == ours.t_events[0][0]
    # the run ends on the event, so its end point is scipy's y_events
    np.testing.assert_allclose(ours.y[:, -1], ref.y_events[0][0], rtol=0,
                               atol=1e-12)


@pytest.mark.parametrize("t_span", [(0.0, 10.0), (10.0, 0.0)])
def test_first_root_in_the_direction_of_integration_ends_the_run(t_span):
    # in both directions y0 passes 1e-3 just before 0, within one step,
    # so the event listed second ends the run: at the smaller root going
    # forward and at the larger one going backward
    def near(t, y):
        return y[0] - 1e-3

    near.terminal = True
    near.direction = 0
    alone = [solve_ivp(oscillator, t_span, [1.0, 0.5], method="DOP853",
                       events=[ev], **TOL) for ev in (crossing, near)]
    assert len(alone[0].t) == len(alone[1].t)
    ref, ours = both(oscillator, t_span, [1.0, 0.5],
                     events=[crossing, near], **TOL)
    assert ours.status == ref.status == 1
    assert [len(te) for te in ours.t_events] == [len(te) for te in ref.t_events]
    assert sum(len(te) for te in ours.t_events) == 1
    for te, te_ref in zip(ours.t_events, ref.t_events):
        np.testing.assert_allclose(te, te_ref, rtol=1e-12)
    assert ours.t[-1] == pytest.approx(ref.t[-1], rel=1e-12)


@pytest.mark.parametrize("terminal", [None, False, 2])
def test_non_terminal_events_raise(terminal):
    def ev(t, y):
        return y[0]

    if terminal is not None:
        ev.terminal = terminal
    with pytest.raises(ValueError, match="terminal"):
        solve_ivp(oscillator, (0.0, 10.0), [1.0, 0.5], method="DOP853",
                  events=[ev], **TOL)


@pytest.mark.parametrize("t_span, T", [((0.0, 4.0), 1.0), ((4.0, 0.0), 3.0)])
def test_event_on_a_step_end_drops_the_duplicate_point(t_span, T):
    # (t - T)^2 touches zero at the step end T without crossing, so the
    # event fires on the next step, at that step's start; the terminal
    # point then equals the previous one and scipy drops it
    def touch(t, y):
        return (t - T) ** 2

    touch.terminal = True
    touch.direction = 1

    ref, ours = both(oscillator, t_span, [1.0, 0.5], max_step=H,
                     events=[touch], dense_output=True, **TOL)
    assert ours.status == ref.status == 1
    np.testing.assert_array_equal(ours.t_events[0], ref.t_events[0])
    assert ours.t_events[0][0] == T == ours.t[-1]
    np.testing.assert_array_equal(ours.t, ref.t)
    assert len(ours.sol.interpolants) == len(ours.t) - 1
    np.testing.assert_allclose(ours.sol(T), ref.sol(T), rtol=0, atol=1e-13)


@pytest.mark.parametrize("guard", ["overflow", "zero_division"])
def test_float_errors_reject_the_trial_step(guard):
    # once y' = -k y has decayed below atol, stability alone limits the
    # step, and trial steps beyond it overshoot below zero, where this
    # right-hand side raises on floats and returns inf under numpy
    k = 200.0
    calls = {"raised": 0}

    def decay(t, y):
        y0 = y[0]
        try:
            if guard == "overflow":
                rate = k * 10.0 ** (400.0 * (y0 < 0))
            else:
                rate = k / (y0 >= 0)
        except (OverflowError, ZeroDivisionError):
            calls["raised"] += 1
            raise
        return (-rate * y0, y0)

    with np.errstate(all="ignore"):
        ref = scipy.integrate.solve_ivp(decay, (0.0, 0.5), [1.0, 0.0],
                                        method="DOP853", rtol=1e-6, atol=1e-9)
    ours = solve_ivp(decay, (0.0, 0.5), [1.0, 0.0], method="DOP853",
                     rtol=1e-6, atol=1e-9)
    assert calls["raised"] > 0
    assert ours.status == ref.status == 0
    assert len(ours.t) == len(ref.t)
    assert ours.nfev == ref.nfev
    np.testing.assert_allclose(ours.y[:, -1], ref.y[:, -1], rtol=1e-6,
                               atol=1e-9)


def test_other_methods_go_to_scipy():
    t_eval = np.linspace(0.0, 1.0, 5)
    ref = scipy.integrate.solve_ivp(oscillator, (0.0, 1.0), [1.0, 0.5],
                                    method="LSODA", t_eval=t_eval)
    ours = solve_ivp(oscillator, (0.0, 1.0), [1.0, 0.5], method="LSODA",
                     t_eval=t_eval)
    np.testing.assert_array_equal(ours.y, ref.y)


#: beta* of the reference cases (conftest.CASES)
BETA_STAR = {
    (2.0, 0.5, 1): 0.5138348204162287,
    (2.0, 0.5, 3): 0.960620634236639,
    (1.5, 0.5, 2): 0.5,
    (1.2, 0.3, 1): 0.14127220063389898,
}


@pytest.mark.parametrize("case", sorted(BETA_STAR))
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_integrate_profile_classifies_as_with_scipy(monkeypatch, case, factor):
    p = make_params(*case)
    e = exponents_from_beta(p, factor * BETA_STAR[case])
    ours = integrate_profile(p, e)
    monkeypatch.setattr(integrate, "solve_ivp", scipy.integrate.solve_ivp)
    with np.errstate(all="ignore"):
        ref = integrate_profile(p, e)
    assert ours.stop_reason is ref.stop_reason
    assert ours.classification is ref.classification
    expected = Classification.CLASS_C if factor < 1 else Classification.CLASS_A
    assert ours.classification is expected
    stop = (StopReason.SLOPE_SIGN_CHANGE if factor < 1
            else StopReason.CONTACT_ZERO)
    assert ours.stop_reason is stop
    assert ours.xi_max == pytest.approx(ref.xi_max, rel=1e-9)
