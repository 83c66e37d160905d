"""The scalar DOP853 kernel against scipy's DOP853 and its own loop form.

Both run the same method, but they sum the tableau products in a
different order.  The error estimate is a difference of nearly equal
sums, so at tight tolerances that rounding moves each step size by up
to ~1e-5 relative, and the step-size sequences drift apart while the
step counts stay equal.  The element-wise comparisons therefore cap the
step at ``max_step = 1/64``, below every step the controller would pick
here, so that both take identical steps and every other difference is
rounding in the stages and the interpolant.

The generated straight-line steps, the generic one and the profile
equation's with its right-hand side inline, and the deferred
interpolants are held to the loops they replaced, copied below as the
reference, bit for bit.
"""

import builtins
import random
import struct

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate._ivp import dop853_coefficients

from eternalprofile import (
    Classification,
    exponents_from_beta,
    integrate,
    integrate_profile,
    make_params,
    solve,
)
from eternalprofile import _dop853, matching
from eternalprofile._dop853 import (
    _Solution,
    halve_long_steps,
    sample,
    solve_ivp,
    step_for,
)
from eternalprofile.equation import origin_series, profile_rhs
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


def test_committed_tableau_is_scipys():
    c, ours = dop853_coefficients, _dop853
    assert (ours.N_STAGES, ours.N_STAGES_EXTENDED) == (
        c.N_STAGES, c.N_STAGES_EXTENDED)
    for name in ("C", "B", "E3", "E5"):
        assert np.array(getattr(ours, name)).tobytes() == getattr(c, name).tobytes()
    assert np.array(ours.D).tobytes() == c.D.tobytes()
    assert len(ours.A) == c.A.shape[0]
    for s, row in enumerate(ours.A):
        assert np.array(row, dtype=float).tobytes() == c.A[s, :s].tobytes()
    assert not np.triu(c.A).any()


def cubic(k, r, p, s):
    """k (x - r)(x^2 + p x + s) in Horner form; one real root r when
    s > p^2 / 4."""
    c3, c2, c1, c0 = k, k * (p - r), k * (s - p * r), -k * s * r
    return lambda x: ((c3 * x + c2) * x + c1) * x + c0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([-3.0, -1e-3, 1e-2, 1.0, 7.0]), r=st.floats(-10.0, 10.0),
       p=st.floats(-5.0, 5.0), excess=st.floats(0.0, 10.0),
       below=st.floats(1e-12, 20.0), above=st.floats(1e-12, 20.0))
def test_brentq_returns_scipys_roots(k, r, p, excess, below, above):
    # a bracket around the real root, or with rounding no sign change,
    # where both must raise alike
    f, a, b = cubic(k, r, p, p * p / 4 + excess), r - below, r + above
    try:
        ref = scipy.optimize.brentq(f, a, b, xtol=_dop853.BRENT_TOL,
                                    rtol=_dop853.BRENT_TOL,
                                    maxiter=_dop853.BRENT_MAXITER)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            _dop853.brentq(f, a, b)
        return
    root = _dop853.brentq(f, a, b)
    assert type(root) is float
    assert struct.pack("d", root) == struct.pack("d", ref)


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
    assert isinstance(ours.sol, _Solution)
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


# --- the loop form of the step and the interpolant, as the reference ---

def _nonzero(row):
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


_DOP = dop853_coefficients
_C = tuple(float(c) for c in _DOP.C)
_STAGES = tuple((s, _C[s], _nonzero(_DOP.A[s, :s]))
                for s in range(1, _DOP.N_STAGES))
_EXTRA = tuple((s, _C[s], _nonzero(_DOP.A[s, :s]))
               for s in range(_DOP.N_STAGES + 1, _DOP.N_STAGES_EXTENDED))
_B = _nonzero(_DOP.B)
_E = tuple((j, float(e5), float(e3))
           for j, (e5, e3) in enumerate(zip(_DOP.E5, _DOP.E3))
           if e5 != 0.0 or e3 != 0.0)
_D = tuple(_nonzero(row) for row in _DOP.D)


def loop_step(fun, t, h, ya, yb, fa, fb):
    """One trial step summed over the tableau rows in loops."""
    K0 = [0.0] * _DOP.N_STAGES_EXTENDED
    K1 = [0.0] * _DOP.N_STAGES_EXTENDED
    K0[0], K1[0] = fa, fb
    for s, c, row in _STAGES:
        d0 = d1 = 0.0
        for j, a in row:
            d0 += K0[j] * a
            d1 += K1[j] * a
        K0[s], K1[s] = fun(t + c * h, (ya + d0 * h, yb + d1 * h))
    d0 = d1 = 0.0
    for j, b in _B:
        d0 += K0[j] * b
        d1 += K1[j] * b
    na, nb = ya + h * d0, yb + h * d1
    e50 = e51 = e30 = e31 = 0.0
    for j, e5, e3 in _E:
        k0, k1 = K0[j], K1[j]
        e50 += k0 * e5
        e51 += k1 * e5
        e30 += k0 * e3
        e31 += k1 * e3
    n = _DOP.N_STAGES
    return na, nb, tuple(K0[:n]), tuple(K1[:n]), e50, e51, e30, e31


def loop_coefficients(fun, t_old, h, ya_old, yb_old, ya, yb, fa, fb, k0, k1):
    """The interpolant's coefficients per component, built in loops."""
    K0 = [*k0, fa, 0.0, 0.0, 0.0]
    K1 = [*k1, fb, 0.0, 0.0, 0.0]
    for s, c, row in _EXTRA:
        d0 = d1 = 0.0
        for j, a in row:
            d0 += K0[j] * a
            d1 += K1[j] * a
        K0[s], K1[s] = fun(t_old + c * h, (ya_old + d0 * h, yb_old + d1 * h))
    da, db = ya - ya_old, yb - yb_old
    ca = [da, h * K0[0] - da, 2 * da - h * (fa + K0[0])]
    cb = [db, h * K1[0] - db, 2 * db - h * (fb + K1[0])]
    for row in _D:
        d0 = d1 = 0.0
        for j, d in row:
            d0 += d * K0[j]
            d1 += d * K1[j]
        ca.append(h * d0)
        cb.append(h * d1)
    return ca, cb


def bits(x):
    """x, nested in tuples and lists, with every float as its 8 bytes."""
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return struct.pack("<d", x)


def contact_floor(p):
    """F_floor of a forward classification's right-hand side."""
    return (0.1 * 1e-7) ** p.m


def profile_draws(case, rng, n):
    """n (fun, F_floor, t, h, y) draws on a forward run at 0.9 beta* and a
    backward run from its end, with steps of either sign up to twice the
    local one."""
    p = make_params(*case)
    beta = 0.9 * BETA_STAR[case]
    floor = contact_floor(p)
    fun = profile_rhs(p, beta, floor)
    fwd = solve_ivp(fun, (1e-6, 1e3), origin_series(p, beta, 1e-6),
                    method="DOP853", events=[turning], **TOL)
    assert fwd.status == 1
    xi_end = fwd.t[-1]
    bwd = solve_ivp(fun, (xi_end, 0.25 * xi_end), fwd.y[:, -1],
                    method="DOP853", **TOL)
    assert bwd.status == 0
    draws = []
    for run in (fwd, bwd):
        for _ in range(n // 2):
            i = rng.randrange(len(run.t) - 1)
            t = float(run.t[i])
            local = float(run.t[i + 1]) - t
            h = local * rng.uniform(0.05, 2.0)
            if abs(h) > 0.5 * t:
                h = 0.5 * t * (1.0 if h > 0 else -1.0)
            draws.append((fun, floor, t, h, tuple(map(float, run.y[:, i]))))
    return draws


def floor_draws(case, rng, n):
    """n draws a few floors above the contact, falling, whose forward
    stages mostly overshoot below F_floor."""
    p = make_params(*case)
    floor = contact_floor(p)
    fun = profile_rhs(p, 0.9 * BETA_STAR[case], floor)
    return [(fun, floor, rng.uniform(0.5, 3.0),
             rng.choice((-1.0, 1.0)) * rng.uniform(1e-4, 0.2),
             (floor * rng.uniform(0.5, 1e3), -rng.uniform(1e-8, 1e-2)))
            for _ in range(n)]


def oscillator_draws(rng, n):
    return [(oscillator, None, rng.uniform(0.0, 10.0),
             rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 0.5),
             (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
            for _ in range(n)]


def generic(fun):
    """``fun`` behind a plain call, which takes the generic step."""
    return lambda t, y: fun(t, y)


def test_generated_step_matches_the_loop_bit_for_bit():
    rng = random.Random(20261018)
    draws = (oscillator_draws(rng, 400)
             + profile_draws((2.0, 0.5, 1), rng, 400)
             + profile_draws((2.0, 0.5, 3), rng, 400)
             + profile_draws((1.2, 0.3, 1), rng, 400)
             + floor_draws((2.0, 0.5, 1), rng, 200)
             + floor_draws((2.0, 0.5, 3), rng, 200))
    assert len(draws) >= 1000
    assert sum(h < 0 for _, _, _, h, _ in draws) > 300
    inlined = clamped = 0
    for fun, floor, t, h, (ya, yb) in draws:
        t_new = t + h
        h = t_new - t                   # as the kernel passes them
        fa, fb = fun(t, (ya, yb))
        states = []

        def spy(x, y):
            states.append(y[0])
            return fun(x, y)

        ref = loop_step(spy, t, h, ya, yb, fa, fb)
        ref += tuple(fun(t_new, ref[:2]))
        steps = [step_for(generic(fun))]
        if floor is not None:
            assert step_for(fun) is fun.dop853_step
            steps.append(step_for(fun))
            inlined += 1
            clamped += min(states) < floor
        for trial in steps:
            ours = trial(t, h, t_new, ya, yb, fa, fb)
            assert bits(ours) == bits(ref), (t, h, ya, yb)
    assert inlined >= 1600
    assert clamped >= 100


def test_inlined_step_runs_as_the_generic_step(monkeypatch):
    # solve_ivp with a profile_rhs result takes its inlined step; behind
    # a plain call the same right-hand side takes the generic step
    runs = []

    def twin(fun, t_span, y0, **kwargs):
        ours = solve_ivp(fun, t_span, y0, **kwargs)
        ref = solve_ivp(generic(fun), t_span, y0, **kwargs)
        assert step_for(fun) is fun.dop853_step
        assert bits(ours.t.tolist()) == bits(ref.t.tolist())
        assert bits(ours.y.tolist()) == bits(ref.y.tolist())
        assert (ours.nfev, ours.status) == (ref.nfev, ref.status)
        if ours.t_events is not None:
            assert bits([te.tolist() for te in ours.t_events]) == bits(
                [te.tolist() for te in ref.t_events])
        if ours.sol is not None:
            mid = 0.5 * (ours.t[1:] + ours.t[:-1])
            assert ours.sol(mid).tobytes() == ref.sol(mid).tobytes()
        runs.append((kwargs["rtol"], len(kwargs.get("events") or ()),
                     ours.status))
        return ours

    monkeypatch.setattr(integrate, "solve_ivp", twin)
    monkeypatch.setattr(matching, "solve_ivp", twin)
    p = make_params(2.0, 0.5, 3)
    solve(p)
    integrate.integrate_limit_profile(p, 10.0)
    # forward classifications with both events, stopped by one; both
    # matching legs at the loose and the tight rtol; the limit profile
    assert any(n == 2 and status == 1 for _, n, status in runs)
    assert {rtol for rtol, n, _ in runs if n == 0} >= {1e-6, 1e-12}
    assert any(n == 1 for _, n, _ in runs)


def test_no_code_is_compiled_per_solve(monkeypatch):
    # the profile steps are compiled once at import; a step compiled per beta
    # would cost milliseconds per residual evaluation
    calls = []

    def counted(builtin):
        def call(*args, **kwargs):
            calls.append(builtin.__name__)
            return builtin(*args, **kwargs)

        return call

    monkeypatch.setattr(builtins, "compile", counted(builtins.compile))
    monkeypatch.setattr(builtins, "exec", counted(builtins.exec))
    result = solve(make_params(2.0, 0.5, 1))
    assert result.match is not None
    assert calls == []


def test_overflow_in_a_middle_stage_rejects_the_trial():
    # stage 6 of the first trial step raises; numpy would give
    # inf there instead, and either way the trial is rejected and the
    # step shrinks by MIN_FACTOR, so both runs take the same steps
    def faulty(value):
        calls = {"n": 0}

        def fun(t, y):
            calls["n"] += 1
            if calls["n"] == 2 + 6:     # after f(t0) and the initial step's call
                if value is None:
                    raise OverflowError("math range error")
                return (value, value)
            return oscillator(t, y)

        return fun

    clean = solve_ivp(oscillator, (0.0, 4.0), [1.0, 0.5], method="DOP853",
                      **TOL)
    raising = solve_ivp(faulty(None), (0.0, 4.0), [1.0, 0.5],
                        method="DOP853", **TOL)
    inf = solve_ivp(faulty(np.inf), (0.0, 4.0), [1.0, 0.5],
                    method="DOP853", **TOL)
    assert raising.status == inf.status == 0
    np.testing.assert_array_equal(raising.t, inf.t)
    np.testing.assert_array_equal(raising.y, inf.y)
    assert raising.nfev == inf.nfev
    # the clean run accepts its first trial; the faulty runs retry it at
    # a fifth of its length
    assert raising.t[1] == pytest.approx(0.2 * clean.t[1], rel=1e-12)


class Counting:
    """A right-hand side that counts its calls."""

    def __init__(self, fun):
        self.fun = fun
        self.calls = 0

    def __call__(self, t, y):
        self.calls += 1
        return self.fun(t, y)


@pytest.mark.parametrize("t_span", [(0.0, 4.0), (4.0, 0.0)])
def test_dense_segments_are_built_on_first_read(t_span):
    plain_fun, dense_fun = Counting(oscillator), Counting(oscillator)
    plain = solve_ivp(plain_fun, t_span, [1.0, 0.5], method="DOP853", **TOL)
    dense = solve_ivp(dense_fun, t_span, [1.0, 0.5], method="DOP853",
                      dense_output=True, **TOL)
    np.testing.assert_array_equal(dense.t, plain.t)
    # no interpolant stage runs until a segment is read, but nfev counts
    # the three per step that scipy spends
    assert dense_fun.calls == plain_fun.calls == plain.nfev
    assert dense.nfev == plain.nfev + 3 * (len(dense.t) - 1)
    t = 0.5 * (dense.t[5] + dense.t[6])
    first = dense.sol(t)
    assert dense_fun.calls == plain_fun.calls + 3
    np.testing.assert_array_equal(dense.sol(t), first)
    dense.sol(0.25 * dense.t[5] + 0.75 * dense.t[6])
    assert dense_fun.calls == plain_fun.calls + 3


@pytest.mark.parametrize("t_span", [(0.0, 4.0), (4.0, 0.0)])
def test_dense_segments_equal_the_loop_interpolants(t_span):
    ours = solve_ivp(oscillator, t_span, [1.0, 0.5], method="DOP853",
                     dense_output=True, **TOL)
    segments = ours.sol.interpolants
    order = list(range(len(segments)))
    random.Random(7).shuffle(order)
    for i in order:
        t_old, t = float(ours.t[i]), float(ours.t[i + 1])
        ya_old, yb_old = map(float, ours.y[:, i])
        h = t - t_old
        step = loop_step(oscillator, t_old, h, ya_old, yb_old,
                         *oscillator(t_old, (ya_old, yb_old)))
        ya, yb, k0, k1 = step[:4]
        assert bits((ya, yb)) == bits(tuple(map(float, ours.y[:, i + 1])))
        coef = loop_coefficients(oscillator, t_old, h, ya_old, yb_old, ya, yb,
                                 *oscillator(t, (ya, yb)), k0, k1)
        segment = segments[i]
        assert bits(segment.coef) == bits(coef)
        mid = t_old + 0.375 * h
        assert bits(segment.at(mid)) == bits(tuple(ours.sol(mid)))


@pytest.mark.parametrize("t_span", [(0.0, 10.0), (10.0, 0.0)])
@pytest.mark.parametrize("event", [crossing, turning])
def test_event_step_interpolant_is_built_at_once(event, t_span):
    plain_fun, dense_fun = Counting(oscillator), Counting(oscillator)
    plain = solve_ivp(plain_fun, t_span, [1.0, 0.5], method="DOP853",
                      events=[event], **TOL)
    dense = solve_ivp(dense_fun, t_span, [1.0, 0.5], method="DOP853",
                      events=[event], dense_output=True, **TOL)
    ref = scipy.integrate.solve_ivp(oscillator, t_span, [1.0, 0.5],
                                    method="DOP853", events=[event],
                                    dense_output=True, **TOL)
    assert dense.status == plain.status == ref.status == 1
    np.testing.assert_array_equal(dense.t, plain.t)
    # the run ends on scipy's root
    assert dense.t[-1] == dense.t_events[0][0]
    np.testing.assert_allclose(dense.t_events[0], ref.t_events[0], rtol=1e-12)
    # both runs built the event step's interpolant to find the root
    assert dense_fun.calls == plain_fun.calls
    end = dense.sol(dense.t[-1])
    assert dense_fun.calls == plain_fun.calls
    np.testing.assert_array_equal(end, dense.y[:, -1])


@pytest.mark.parametrize("t_span", [(0.0, 4.0), (4.0, 0.0)])
def test_long_steps_halved_and_sampled(t_span):
    # the uncapped run steps up to 0.17; each step longer than H becomes
    # two half-steps from the same start node, closer to a tight run
    fun = Counting(oscillator)
    run = solve_ivp(fun, t_span, [1.0, 0.5], method="DOP853",
                    dense_output=True, **TOL)
    h = np.abs(np.diff(run.t))
    long = np.count_nonzero(h > H)
    # sampling builds only the segments it samples inside
    calls = fun.calls
    ts, y0, y1 = sample(run.sol, 1.0)
    np.testing.assert_array_equal(ts, run.t[:-1])
    np.testing.assert_array_equal(np.array([y0, y1]), run.y[:, :-1])
    assert fun.calls == calls
    sample(run.sol, H)
    assert fun.calls == calls + 3 * long
    halved = halve_long_steps(run.sol, H)
    assert halved.n_segments == h.size + long
    assert np.all(np.isin(run.t, halved.ts))
    ref = scipy.integrate.solve_ivp(oscillator, t_span, [1.0, 0.5],
                                    method="DOP853", dense_output=True,
                                    rtol=1e-13, atol=1e-15)
    t = np.linspace(0.0, 4.0, 4001)
    err = np.max(np.abs(halved(t) - ref.sol(t)))
    assert err < 0.5 * np.max(np.abs(run.sol(t) - ref.sol(t)))
    # samples at most H apart: every segment start, then points on the
    # half-step interpolants
    ts, y0, y1 = sample(halved, H)
    assert np.max(np.abs(np.diff(ts))) <= H
    start = np.isin(ts, halved.ts)
    np.testing.assert_array_equal(ts[start], halved.ts[:-1])
    np.testing.assert_allclose(np.array([y0, y1])[:, ~start],
                               halved(ts[~start]), rtol=1e-14, atol=1e-15)


def scipy_call(odesol, t):
    """scipy's own ``OdeSolution`` evaluation over the same segments."""
    return scipy.integrate.OdeSolution(odesol.ts, odesol.interpolants)(t)


def assert_same_bits(ours, ref):
    assert ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


def dense_runs(t_span):
    """An uncapped run, a run ended by an event (its last segment reaches
    past ``ts[-1]``) and the first run with its long steps halved."""
    run = solve_ivp(oscillator, t_span, [1.0, 0.5], method="DOP853",
                    dense_output=True, **TOL)
    event = solve_ivp(oscillator, t_span, [1.0, 0.5], method="DOP853",
                      events=[crossing], dense_output=True, **TOL)
    assert event.status == 1
    return [run.sol, event.sol, halve_long_steps(run.sol, H)]


@pytest.mark.parametrize("t_span", [(0.0, 4.0), (4.0, 0.0)])
def test_call_matches_scipy_bit_for_bit(t_span):
    for odesol in dense_runs(t_span):
        assert isinstance(odesol, _Solution)
        lo, hi = odesol.t_min, odesol.t_max
        inner = np.random.default_rng(7).uniform(lo, hi, 300)
        # every breakpoint, points outside on both sides, all unsorted
        t = np.concatenate([inner, odesol.ts, [lo - 1.0, hi + 1e-9, lo - 1e-12,
                                               hi + 1.0]])
        t = t[np.random.default_rng(8).permutation(t.size)]
        assert_same_bits(odesol(t), scipy_call(odesol, t))
        for s in (inner[0], odesol.ts[3], odesol.ts[0], odesol.ts[-1],
                  lo - 0.5, hi + 0.5):
            assert_same_bits(odesol(s), scipy_call(odesol, s))
            assert_same_bits(odesol(float(s)), scipy_call(odesol, float(s)))
        # ``at`` reads one point in plain floats from the segment that
        # ``__call__`` picks: at every node, every segment midpoint and
        # past either end
        mids = 0.5 * (odesol.ts[:-1] + odesol.ts[1:])
        for s in np.concatenate([odesol.ts, mids, [lo - 1.0, lo - 1e-12,
                                                   hi + 1e-9, hi + 1.0]]):
            assert_same_bits(np.array(odesol.at(float(s))), odesol(float(s)))


def test_call_on_a_zero_length_run_matches_scipy():
    run = solve_ivp(oscillator, (1.0, 1.0), [1.0, 0.5], method="DOP853",
                    dense_output=True, **TOL)
    odesol = run.sol
    assert odesol.n_segments == 1
    t = np.array([1.0, 0.5, 1.5, 1.0])
    assert_same_bits(odesol(t), scipy_call(odesol, t))
    assert_same_bits(odesol(1.0), scipy_call(odesol, 1.0))
    np.testing.assert_array_equal(odesol(1.0), [1.0, 0.5])
