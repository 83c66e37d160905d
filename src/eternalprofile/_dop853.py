"""DOP853 on two components with plain Python floats.

The profile ODE has two components, and its integrations are dominated
by per-step overhead: scipy's DOP853 spends most of each step in numpy
calls on length-2 arrays, not in the right-hand side.  This module runs
the same method on Python floats.  The tableau, the initial step
selection, the step-size controller and the 7-term dense interpolant
follow ``scipy.integrate.solve_ivp`` with ``method="DOP853"`` (Hairer,
Norsett & Wanner, *Solving ODEs I*, II.5 and II.10), so both take the
same steps up to rounding in the order of summation.

Every event here is terminal, as in the shooting argument, where the
first of "f reaches zero" and "f' turns non-negative" decides the class
of beta.  Within a step, the first root in the direction of integration
ends the run, which is what scipy does when all events are terminal.

``solve_ivp`` keeps scipy's signature: every other method is passed to
scipy unchanged.
"""

from __future__ import annotations

import math
from warnings import warn

import numpy as np
from scipy.integrate import DenseOutput, OdeSolution
from scipy.integrate import solve_ivp as _scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.optimize import OptimizeResult, brentq

EPS = np.finfo(float).eps
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0     # -1 / (error estimator order + 1)

MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


def _nonzero(row):
    """(index, coefficient) for the nonzero entries of a tableau row."""
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


_C = tuple(float(c) for c in _dop.C)
#: (stage, node, row) for stages 1..11 of a step and 13..15 of the interpolant
_STAGES = tuple((s, _C[s], _nonzero(_dop.A[s, :s])) for s in range(1, _dop.N_STAGES))
_EXTRA = tuple(
    (s, _C[s], _nonzero(_dop.A[s, :s]))
    for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED)
)
_B = _nonzero(_dop.B)
#: (stage, E5, E3) over the stages either error estimator weights
_E = tuple(
    (j, float(e5), float(e3))
    for j, (e5, e3) in enumerate(zip(_dop.E5, _dop.E3))
    if e5 != 0.0 or e3 != 0.0
)
_D = tuple(_nonzero(row) for row in _dop.D)


def solve_ivp(fun, t_span, y0, method="RK45", dense_output=False, events=None,
              **options):
    """``scipy.integrate.solve_ivp``, with DOP853 run by this module.

    For DOP853 the system must have two components, the options are
    ``rtol``, ``atol`` and ``max_step``, and ``events`` is a sequence of
    callables that each set ``terminal = True`` (otherwise ValueError).
    ``fun(t, y)`` and the events receive ``y`` as a tuple of two floats.
    The result has scipy's fields except ``y_events``: the end point of
    an event run is ``t[-1]``, ``y[:, -1]``.  Every other method is
    passed to scipy.
    """
    if method != "DOP853":
        return _scipy_solve_ivp(fun, t_span, y0, method=method,
                                dense_output=dense_output, events=events,
                                **options)
    return _dop853(fun, t_span, y0, dense_output, events, **options)


def _eval(fun, t, y0, y1):
    """fun(t, y) where an overflow or a division by zero gives inf, as in numpy."""
    try:
        a, b = fun(t, (y0, y1))
    except (OverflowError, ZeroDivisionError):
        return math.inf, math.inf
    return a, b


def _rms(a, b):
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def _initial_step(fun, t0, y0, y1, f0, f1, t_bound, max_step, direction,
                  rtol, atol):
    """scipy's ``select_initial_step`` (Hairer et al., II.4)."""
    interval = abs(t_bound - t0)
    if interval == 0.0:
        return 0.0, 0
    s0 = atol + abs(y0) * rtol
    s1 = atol + abs(y1) * rtol
    d0 = _rms(y0 / s0, y1 / s1)
    d1 = _rms(f0 / s0, f1 / s1)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    hd = h0 * direction
    g0, g1 = _eval(fun, t0 + hd, y0 + hd * f0, y1 + hd * f1)
    d2 = _rms((g0 - f0) / s0, (g1 - f1) / s1) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100 * h0, h1, interval, max_step), 1


class _Interpolant(DenseOutput):
    """The 7-term DOP853 interpolant over one step, as scipy evaluates it."""

    def __init__(self, t_old, t, y_old, coef):
        super().__init__(t_old, t)
        # a zero-length step has all-zero coefficients
        self.h = t - t_old or 1.0
        self.y_old = y_old      # (y0, y1) at t_old
        self.coef = coef        # per component, the coefficients F[0..6]

    def at(self, t):
        """The interpolant at a scalar t, as a tuple."""
        x = (t - self.t_old) / self.h
        return tuple(_nested(c, x) + y for c, y in zip(self.coef, self.y_old))

    def _call_impl(self, t):
        return np.array(self.at(t))


def _nested(c, x):
    """scipy's evaluation order: ((F6 x + F5)(1 - x) + F4) x ... + F0) x."""
    y = c[6] * x
    y = (y + c[5]) * (1 - x)
    y = (y + c[4]) * x
    y = (y + c[3]) * (1 - x)
    y = (y + c[2]) * x
    y = (y + c[1]) * (1 - x)
    return (y + c[0]) * x


def _dop853(fun, t_span, y0, dense_output, events, rtol=1e-3, atol=1e-6,
            max_step=np.inf):
    """scipy's solve_ivp loop for DOP853, on two float components.

    The step is written out inline: otherwise the controller state it
    reads and writes would cross a function call on every step.
    """
    t0, tf = map(float, t_span)
    ya, yb = map(float, y0)
    if not (math.isfinite(ya) and math.isfinite(yb)):
        raise ValueError("All components of the initial state `y0` must be finite.")
    if max_step <= 0:
        raise ValueError("`max_step` must be positive.")
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    if rtol < 100 * EPS:
        warn(f"`rtol` is too small. Setting `rtol = {100 * EPS}`.", stacklevel=3)
        rtol = 100 * EPS
    direction = -1.0 if tf < t0 else 1.0

    fa, fb = _eval(fun, t0, ya, yb)
    h_abs, nfev = _initial_step(fun, t0, ya, yb, fa, fb, tf, max_step,
                                direction, rtol, atol)
    nfev += 1
    K0 = [0.0] * _dop.N_STAGES_EXTENDED
    K1 = [0.0] * _dop.N_STAGES_EXTENDED

    def interpolant(t_old, h, ya_old, yb_old):
        """Dense output of the step from t_old to t; K holds its stages."""
        nonlocal nfev
        nfev += len(_EXTRA)
        for s, c, row in _EXTRA:
            d0 = d1 = 0.0
            for j, a in row:
                d0 += K0[j] * a
                d1 += K1[j] * a
            K0[s], K1[s] = _eval(fun, t_old + c * h, ya_old + d0 * h,
                                 yb_old + d1 * h)
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
        return _Interpolant(t_old, t, (ya_old, yb_old), (ca, cb))

    if events is not None:
        if not all(getattr(ev, "terminal", False) is True for ev in events):
            raise ValueError("Each event must set `terminal = True`.")
        event_dir = [getattr(ev, "direction", 0) for ev in events]
        g = [ev(t0, (ya, yb)) for ev in events]
        t_events = [[] for _ in events]

    ts, Y0, Y1 = [t0], [ya], [yb]
    interpolants = []
    t = t0
    status = None
    while status is None:
        t_old = t
        if t == tf:
            # zero-length span: scipy finishes without taking a step
            status = 0
            sol = _Interpolant(t, t, (ya, yb), ((0.0,) * 7,) * 2)
            if dense_output:
                interpolants.append(sol)
        else:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            if h_abs > max_step:
                h_abs = max_step
            elif h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    status = -1
                    break
                t_new = t + h_abs * direction
                if direction * (t_new - tf) > 0:
                    t_new = tf
                h = t_new - t
                h_abs = abs(h)
                K0[0], K1[0] = fa, fb
                nfev += _dop.N_STAGES
                try:
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
                    ga, gb = fun(t_new, (na, nb))
                except (OverflowError, ZeroDivisionError):
                    # where these raise on floats, numpy returns inf or
                    # nan, and the error norm rejects the step
                    error_norm = math.inf
                else:
                    K0[_dop.N_STAGES], K1[_dop.N_STAGES] = ga, gb
                    s0 = atol + max(abs(ya), abs(na)) * rtol
                    s1 = atol + max(abs(yb), abs(nb)) * rtol
                    e50 = e51 = e30 = e31 = 0.0
                    for j, e5, e3 in _E:
                        k0, k1 = K0[j], K1[j]
                        e50 += k0 * e5
                        e51 += k1 * e5
                        e30 += k0 * e3
                        e31 += k1 * e3
                    e50 /= s0
                    e51 /= s1
                    e30 /= s0
                    e31 /= s1
                    n5 = e50 * e50 + e51 * e51
                    n3 = e30 * e30 + e31 * e31
                    if n5 == 0 and n3 == 0:
                        error_norm = 0.0
                    else:
                        error_norm = h_abs * n5 / math.sqrt((n5 + 0.01 * n3) * 2)
                    if not (math.isfinite(ga) and math.isfinite(gb)):
                        # scipy's error sums include K[12] with weight 0
                        error_norm = math.nan
                if error_norm < 1:
                    if error_norm == 0:
                        factor = MAX_FACTOR
                    else:
                        factor = min(MAX_FACTOR,
                                     SAFETY * error_norm ** ERROR_EXPONENT)
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                rejected = True
            if status == -1:
                break
            ya_old, yb_old = ya, yb
            t, ya, yb, fa, fb = t_new, na, nb, ga, gb
            if direction * (t - tf) >= 0:
                status = 0
            sol = None
            if dense_output:
                sol = interpolant(t_old, h, ya_old, yb_old)
                interpolants.append(sol)

        y = (ya, yb)
        if events is not None:
            g_new = [ev(t, y) for ev in events]
            active = [
                i for i, (go, gn, dr) in enumerate(zip(g, g_new, event_dir))
                if (go <= 0 <= gn and dr >= 0) or (go >= 0 >= gn and dr <= 0)
            ]
            if active:
                if sol is None:
                    sol = interpolant(t_old, h, ya_old, yb_old)
                roots = [
                    brentq(lambda s, ev=events[i]: ev(s, sol.at(s)), t_old, t,
                           xtol=4 * EPS, rtol=4 * EPS)
                    for i in active
                ]
                # the first root in the direction of integration ends the run
                k = min(range(len(active)), key=lambda k: direction * roots[k])
                t = roots[k]
                t_events[active[k]].append(t)
                status = 1
                y = sol.at(t)
            g = g_new

        if len(ts) > 1 and ts[-1] == t and dense_output:
            # a terminal event on the previous step end: drop the
            # zero-length segment that would follow it
            if interpolants:
                interpolants.pop()
        else:
            ts.append(t)
            Y0.append(y[0])
            Y1.append(y[1])

    ts = np.array(ts)
    return OptimizeResult(
        t=ts,
        y=np.array([Y0, Y1]),
        sol=OdeSolution(ts, interpolants) if dense_output else None,
        t_events=None if events is None else [np.asarray(te) for te in t_events],
        nfev=nfev,
        status=status,
        message=MESSAGES[status],
        success=status >= 0,
    )
