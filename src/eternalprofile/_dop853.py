"""DOP853 on two components with plain Python floats.

The profile ODE has two components, and its integrations are dominated
by per-step overhead: scipy's DOP853 spends most of each step in numpy
calls on length-2 arrays, not in the right-hand side.  This module runs
the same method on Python floats.  The tableau, the initial step
selection, the step-size controller and the 7-term dense interpolant
follow ``scipy.integrate.solve_ivp`` with ``method="DOP853"`` (Hairer,
Norsett & Wanner, *Solving ODEs I*, II.5 and II.10), so both take the
same steps up to rounding in the order of summation.

Each trial step is straight-line code on local floats, compiled once
from the committed tableau (a copy of scipy's that a test checks entry for
entry) and a template of the right-hand side; a ``profile_rhs`` result
carries one with its equation inline, and any other right-hand side
takes the generic step, built on first use (``step_for``).  A dense run
records each accepted step and builds its interpolant, which costs
three more evaluations of the right-hand side, when the segment is
first read; only the step on which an event fires builds it at once.
Its solution, with the attributes and call of scipy's ``OdeSolution``,
evaluates any number of points in one numpy pass, with scipy's bits.

Every event here is terminal, as in the shooting argument, where the
first of "f reaches zero" and "f' turns non-negative" decides the class
of beta.  Within a step, the first root in the direction of integration
ends the run, which is what scipy does when all events are terminal.
The root is found by ``brentq``, a port of scipy's (Brent 1973, ch. 4)
that returns its bits.

``solve_ivp`` keeps scipy's signature: every other method is passed to
scipy unchanged, and only then is scipy imported.
"""

from __future__ import annotations

import functools
import math
import sys
from types import SimpleNamespace
from warnings import warn

import numpy as np

EPS = sys.float_info.epsilon
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0     # -1 / (error estimator order + 1)
BRENT_TOL = 4 * EPS             # scipy's xtol = rtol for event roots
BRENT_MAXITER = 100

MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}

# The DOP853 tableau of Hairer, Norsett & Wanner, as scipy stores it in
# ``scipy.integrate._ivp.dop853_coefficients``.  Stages 12..15 are used
# only by the interpolant, with the coefficients D of its upper terms.
N_STAGES = 12
N_STAGES_EXTENDED = 16
C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
)
#: row s holds the coefficients A[s, :s] of the stages before s
A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (
        0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
        0.12546768756682242,
    ),
    (
        0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
        -0.017578125,
    ),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
        0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505,
        2.4936055526796523, -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235,
        -8.87285693353063, 12.360567175794303, 0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
        1.8915178993145003, -5.801203960010585, 0.3111643669578199,
        -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
    ),
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
        0.00820105229563469, 0.007567897660545699, -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
        0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
        -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
        7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
        -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
    ),
)
B = (
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
)
E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
)
E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
)
D = (
    (
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
        -3.0689499459498917, 2.38466765651207, 2.117034582445028,
        -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
        -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ),
    (
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
        165.20045171727028, -374.5467547226902, -22.113666853125306,
        7.733432668472264, -30.674084731089398, -9.332130526430229,
        15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ),
    (
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
        -189.17813819516758, 527.8081592054236, -11.57390253995963,
        6.8812326946963, -1.0006050966910838, 0.7777137798053443,
        -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ),
    (
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
        -231.5293791760455, 357.6391179106141, 93.40532418362432,
        -37.45832313645163, 104.0996495089623, 29.8402934266605,
        -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ),
)


def _nonzero(row):
    """(index, coefficient) for the nonzero entries of a tableau row."""
    return tuple((j, a) for j, a in enumerate(row) if a != 0.0)


#: (stage, node, row) for stages 13..15, which only the interpolant uses
_EXTRA = tuple(
    (s, C[s], _nonzero(A[s])) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)
)
_D = tuple(_nonzero(row) for row in D)


def rhs_factory(rhs, args):
    """``factory(*args)``, compiled once from ``rhs``, the template of a
    right-hand side at ``x``, ``(F, Fp)`` into ``{a}``, ``{b}``.  A call
    binds ``args`` as closure cells and returns ``rhs(x, y)``, carrying
    the trial step ``step(t, h, t_new, ya, yb, fa, fb)`` with the template
    written out as ``dop853_step``.  The step evaluates stages 1..11 at
    ``t + c h`` and the end point at ``t_new = t + h``, and returns the new
    state, each component's stages 0..11 and E5 and E3 error sums, not yet
    scaled, and the right-hand side at the new state.  Tableau rows are
    summed left to right from 0.0 over their nonzero entries, written as
    literals, so every float rounds as in a loop.  Exceptions propagate.
    """
    k = [("fa", "fb")] + [(f"a{s}", f"b{s}") for s in range(1, N_STAGES)]

    def dot(i, row):
        return " + ".join(["0.0"] + [f"{k[j][i]} * {w!r}" for j, w in row])

    def stage(x, F, Fp, a, b):
        return [f"x = {x}", f"F = {F}", f"Fp = {Fp}",
                *rhs.format(a=a, b=b).splitlines()]

    step = []
    for s in range(1, N_STAGES):
        row = _nonzero(A[s])
        step += stage(f"t + {C[s]!r} * h", f"ya + ({dot(0, row)}) * h",
                      f"yb + ({dot(1, row)}) * h", *k[s])
    w, e5, e3 = _nonzero(B), _nonzero(E5), _nonzero(E3)
    step += [
        f"na = ya + h * ({dot(0, w)})",
        f"nb = yb + h * ({dot(1, w)})",
        *stage("t_new", "na", "nb", "ga", "gb"),
        f"return (na, nb, ({', '.join(a for a, _ in k)}), "
        f"({', '.join(b for _, b in k)}), {dot(0, e5)}, {dot(1, e5)}, "
        f"{dot(0, e3)}, {dot(1, e3)}, ga, gb)",
    ]
    lines = [f"def factory({', '.join(args)}):",
             "    def rhs(x, y):", "        F, Fp = y",
             *("        " + ln for ln in rhs.format(a="a", b="b").splitlines()),
             "        return (a, b)",
             "    def step(t, h, t_new, ya, yb, fa, fb):",
             *("        " + ln for ln in step),
             "    rhs.dop853_step = step", "    return rhs"]
    namespace = {}
    exec(compile("\n".join(lines) + "\n", "<dop853 step>", "exec"), namespace)
    return namespace["factory"]


@functools.cache
def _generic():
    """Factory of the generic step, whose right-hand side calls ``fun``."""
    return rhs_factory("{a}, {b} = fun(x, (F, Fp))", ["fun"])


def step_for(fun):
    """The trial step of ``fun``: the one it carries as ``dop853_step``,
    as a ``profile_rhs`` result does, else the generic step calling it."""
    return getattr(fun, "dop853_step", None) or _generic()(fun).dop853_step


def solve_ivp(fun, t_span, y0, method="RK45", dense_output=False, events=None,
              **options):
    """``scipy.integrate.solve_ivp``, with DOP853 run by this module.

    For DOP853 the system must have two components, the options are
    ``rtol``, ``atol`` and ``max_step``, and ``events`` is a sequence of
    callables that each set ``terminal = True`` (otherwise ValueError).
    ``fun(t, y)`` and the events receive ``y`` as a tuple of two floats.
    The result has scipy's fields as attributes, except ``y_events``:
    the end point of an event run is ``t[-1]``, ``y[:, -1]``.  Every
    other method is passed to scipy.
    """
    if method != "DOP853":
        from scipy.integrate import solve_ivp as scipy_solve_ivp

        return scipy_solve_ivp(fun, t_span, y0, method=method,
                               dense_output=dense_output, events=events,
                               **options)
    return _dop853(fun, t_span, y0, dense_output, events, **options)


def _eval(fun, t, y0, y1):
    """fun(t, y) where an overflow or a division by zero gives inf, as in numpy."""
    try:
        return fun(t, (y0, y1))
    except (OverflowError, ZeroDivisionError):
        return math.inf, math.inf


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


class _Interpolant:
    """The 7-term DOP853 interpolant over one step, as scipy evaluates it,
    with the attributes and call of scipy's ``DenseOutput``."""

    def __init__(self, t_old, t, y_old, coef):
        self.t_old, self.t = t_old, t
        self.t_min, self.t_max = min(t, t_old), max(t, t_old)
        # a zero-length step has all-zero coefficients
        self.h = t - t_old or 1.0
        self.y_old = y_old      # (y0, y1) at t_old
        self.coef = coef        # per component, the coefficients F[0..6]

    def at(self, t):
        """The interpolant at a scalar t, as a tuple."""
        x = (t - self.t_old) / self.h
        return tuple(_nested(c, x) + y for c, y in zip(self.coef, self.y_old))

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
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


def _interpolant(fun, t_old, t, ya_old, yb_old, ya, yb, fa, fb, k0, k1):
    """The interpolant of the step from (t_old, y_old) to (t, y).

    ``fa, fb`` is fun(t, y) and ``k0, k1`` are the step's stages 0..11
    per component.  The three extra stages cost three calls of ``fun``.
    """
    h = t - t_old
    K0 = [*k0, fa, 0.0, 0.0, 0.0]
    K1 = [*k1, fb, 0.0, 0.0, 0.0]
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


class _Segments:
    """The interpolants of a dense run, each built on its first read.

    DOP853's dense output is built from a step's stages after the step
    (Hairer, Norsett & Wanner, II.6), so a run records each step's
    ``_interpolant`` arguments and builds a segment only when it is read.
    ``items`` holds built interpolants and step records.
    """

    def __init__(self, fun):
        self.fun = fun
        self.items = []

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        item = self.items[i]
        if not isinstance(item, _Interpolant):
            item = self.items[i] = _interpolant(self.fun, *item)
        return item


class _Solution:
    """A dense run's solution with the attributes of scipy's ``OdeSolution``,
    evaluated in one numpy pass.

    Each point's segment is picked with one ``searchsorted``, with
    scipy's side and clipping for either direction; only the segments
    read are built, and ``_nested`` runs once over all points, so the
    values are scipy's bit for bit.
    """

    def __init__(self, ts, interpolants):
        self.ts, self.interpolants = ts, interpolants
        self.n_segments = len(interpolants)
        self.ascending = bool(ts[-1] >= ts[0])
        if self.ascending:
            self.t_min, self.t_max = ts[0], ts[-1]
            self.side, self.ts_sorted = "left", ts
        else:
            self.t_min, self.t_max = ts[-1], ts[0]
            self.side, self.ts_sorted = "right", ts[::-1]

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        seg = np.searchsorted(self.ts_sorted, np.atleast_1d(t), side=self.side) - 1
        np.clip(seg, 0, self.n_segments - 1, out=seg)
        if not self.ascending:
            seg = self.n_segments - 1 - seg
        used, seg = np.unique(seg, return_inverse=True)
        parts = [self.interpolants[i] for i in used]
        x = ((t - np.array([s.t_old for s in parts])[seg])
             / np.array([s.h for s in parts])[seg])
        coef = np.array([s.coef for s in parts]).T[..., seg]
        y = _nested(coef, x) + np.array([s.y_old for s in parts]).T[:, seg]
        return y[:, 0] if t.ndim == 0 else y

    def at(self, t):
        """The solution at a scalar t, as a tuple of floats: the segment
        that ``__call__`` picks, read by its interpolant's ``at``."""
        i = int(np.searchsorted(self.ts_sorted, t, side=self.side)) - 1
        i = min(max(i, 0), self.n_segments - 1)
        if not self.ascending:
            i = self.n_segments - 1 - i
        return self.interpolants[i].at(t)


def halve_long_steps(odesol, max_step):
    """``odesol`` of a dense run with each step longer than ``max_step``
    re-taken as two fixed half-steps from its start node, which cuts the
    order-7 interpolant's error there about 2^8-fold."""
    fun = odesol.interpolants.fun
    trial = step_for(fun)
    segments, ts = _Segments(fun), [odesol.ts[0]]
    for item, t, t_end in zip(odesol.interpolants.items, odesol.ts, odesol.ts[1:]):
        if abs(t_end - t) <= max_step:
            segments.items.append(item)
            ts.append(t_end)
            continue
        t, t_end = float(t), float(t_end)
        ya, yb = item.y_old if isinstance(item, _Interpolant) else item[2:4]
        fa, fb = fun(t, (ya, yb))
        for t_new in (t + 0.5 * (t_end - t), t_end):
            na, nb, k0, k1, *_, ga, gb = trial(t, t_new - t, t_new, ya, yb,
                                               fa, fb)
            segments.items.append((t, t_new, ya, yb, na, nb, ga, gb, k0, k1))
            ts.append(t_new)
            t, ya, yb, fa, fb = t_new, na, nb, ga, gb
    return _Solution(np.array(ts), segments)


def sample(odesol, spacing):
    """(t, y0, y1) at most ``spacing`` apart, evenly spaced in each segment
    from its start; a segment sampled only there is not built."""
    h = np.diff(odesol.ts)
    k = np.ceil(np.abs(h) / spacing).astype(int)
    segs = odesol.interpolants
    coef = np.array([segs[i].coef if n > 1 else ((0.0,) * 7,) * 2
                     for i, n in enumerate(k)]).transpose(1, 2, 0)
    y_old = np.array([s.y_old if isinstance(s, _Interpolant) else s[2:4]
                      for s in segs.items]).T
    i = np.repeat(np.arange(k.size), k)
    x = (np.arange(i.size) - np.repeat(np.cumsum(k) - k, k)) / k[i]
    return (odesol.ts[i] + x * h[i],
            *(_nested(c[:, i], x) + y[i] for c, y in zip(coef, y_old)))


def brentq(f, a, b):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by
    Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``brentq`` (its ``brentq.c``), which
    returns scipy's root bit for bit: inverse quadratic or secant steps
    while they shrink the bracket fast enough, bisection otherwise, until
    the bracket is within BRENT_TOL (1 + |x|), scipy's xtol = rtol of
    event roots.  As in scipy, a NaN value or an f(a), f(b) of one sign
    raises ValueError, and no convergence within BRENT_MAXITER
    iterations RuntimeError.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_TOL + BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # in C stry is then inf or nan, which bisects below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations, "
                       f"value is {xcur}.")


def _dop853(fun, t_span, y0, dense_output, events, rtol=1e-3, atol=1e-6,
            max_step=np.inf):
    """scipy's solve_ivp loop for DOP853, on two float components.

    A dense run counts in ``nfev`` the three calls per step that scipy
    makes to build every interpolant at once, whether or not it is read.
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
    trial = step_for(fun)

    fa, fb = _eval(fun, t0, ya, yb)
    h_abs, nfev = _initial_step(fun, t0, ya, yb, fa, fb, tf, max_step,
                                direction, rtol, atol)
    nfev += 1

    if events is not None:
        if not all(getattr(ev, "terminal", False) is True for ev in events):
            raise ValueError("Each event must set `terminal = True`.")
        event_dir = [getattr(ev, "direction", 0) for ev in events]
        g = [ev(t0, (ya, yb)) for ev in events]
        t_events = [[] for _ in events]

    ts, Y0, Y1 = [t0], [ya], [yb]
    segments = _Segments(fun)
    t = t0
    status = None
    while status is None:
        t_old = t
        sol = None
        if t == tf:
            # zero-length span: scipy finishes without taking a step
            status = 0
            sol = _Interpolant(t, t, (ya, yb), ((0.0,) * 7,) * 2)
            if dense_output:
                segments.items.append(sol)
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
                nfev += N_STAGES
                try:
                    (na, nb, k0, k1, e50, e51, e30, e31, ga,
                     gb) = trial(t, h, t_new, ya, yb, fa, fb)
                except (OverflowError, ZeroDivisionError):
                    # where these raise on floats, numpy returns inf or
                    # nan, and the error norm rejects the step
                    error_norm = math.inf
                else:
                    # max and min below as the builtins pick, without calls
                    s0, s1, a0, a1 = abs(ya), abs(yb), abs(na), abs(nb)
                    s0 = atol + (a0 if a0 > s0 else s0) * rtol
                    s1 = atol + (a1 if a1 > s1 else s1) * rtol
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
                        # scipy's error sums include f(t_new) with weight 0
                        error_norm = math.nan
                if error_norm < 1:
                    factor = MAX_FACTOR
                    if error_norm != 0:
                        factor = SAFETY * error_norm ** ERROR_EXPONENT
                        if not factor < MAX_FACTOR:
                            factor = MAX_FACTOR
                    if rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                rejected = True
            if status == -1:
                break
            step = (t, t_new, ya, yb, na, nb, ga, gb, k0, k1)
            t, ya, yb, fa, fb = t_new, na, nb, ga, gb
            if direction * (t - tf) >= 0:
                status = 0
            if dense_output:
                nfev += len(_EXTRA)
                segments.items.append(step)

        y = (ya, yb)
        if events is not None:
            g_new, active = [], []
            for i, (ev, go, dr) in enumerate(zip(events, g, event_dir)):
                gn = ev(t, y)
                g_new.append(gn)
                if (go <= 0 <= gn and dr >= 0) or (go >= 0 >= gn and dr <= 0):
                    active.append(i)
            if active:
                if sol is None and dense_output:
                    sol = segments[-1]      # recorded and counted above
                elif sol is None:
                    nfev += len(_EXTRA)
                    sol = _interpolant(fun, *step)
                roots = [
                    brentq(lambda s, ev=events[i]: ev(s, sol.at(s)), t_old, t)
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
            if segments.items:
                segments.items.pop()
        else:
            ts.append(t)
            Y0.append(y[0])
            Y1.append(y[1])

    ts = np.array(ts)
    return SimpleNamespace(
        t=ts,
        y=np.array([Y0, Y1]),
        sol=_Solution(ts, segments) if dense_output else None,
        t_events=None if events is None else [np.asarray(te) for te in t_events],
        nfev=nfev,
        status=status,
        message=MESSAGES[status],
        success=status >= 0,
    )
