"""The profile equation and its launch series, in F = f^m form.

For u(t, x) = exp(-alpha t) f(|x| exp(beta t)) with alpha = 2 beta / (m-1),
the radial profile solves

    F'' = -(N-1)/xi F' - alpha f + beta xi f' + xi^sigma f^q,    F = f^m,

with F(0) = 1, F'(0) = 0, and ends tangentially at xi0 where
f ~ A (xi0 - xi)^theta.  Two launch series start the integrations: the
Taylor series at the origin, and at the interface a Frobenius-type
series f = A d^theta sum b_jk u^j (kappa u^gamma)^k in u = d / xi0,
d = xi0 - xi (``InterfaceSeries``; series at a singular point as in
Ascher, Mattheij & Russell 1995, interface expansions as in Vazquez
2007).  Its coefficients come from one linear recursion; off the
critical line m + q = 2 their table depends only on (m, q, N) and is
built once per triple.  The integrators in ``integrate`` and
``matching`` take their launch states from here, and their right-hand
side, written once as a template that also gives its DOP853 step.
Every profile is evaluated off its grid by one ``piecewise``
evaluator; only ``pdecheck`` keeps its own, deliberately independent,
residual, and ``asymptotics`` its closed-form K0-K3 constants, which
check the leading terms of the series.

One arithmetic rule makes the same input give the same bits on every
CPU: products of computed floats are sums of elementwise products in a
fixed order (``_dot``, ``_forward_solve``), and array powers are
``np.float_power``.  BLAS and LAPACK kernels, and numpy's SIMD-dispatched
``exp``, ``log`` and array ``**``, round differently on different CPUs.
Sums in plain floats keep ``np.add.reduce``'s pairwise order on the
same terms: left to right below 8 terms, else the eight partial sums of
``_lanes``; a zero term, left out, changes no partial sum.  So column 0
of a table (``_SeriesTable._column0``) has the bits of a numpy loop of
``_dot``, and a plain float power ``x ** y`` is C's ``pow``, as
``np.float_power`` is.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from ._dop853 import rhs_factory

if TYPE_CHECKING:
    from .model import Params


#: The right-hand side (F', F'') of the profile equation at xi = x and
#: (F, F') = (F, Fp), into the names {a} and {b}: the one place the
#: equation is written.  The line with Nm1 = N - 1 is kept for N > 1.
_RHS = """\
Fc = F if F > F_floor else F_floor
f = Fc**inv_m
fp = Fp * f / (m * Fc)    # f' = F' f^(1-m) / m
{b} = -alpha * f + beta * x * fp + x**sigma * f**q
{b} -= Nm1 / x * Fp
{a} = Fp"""


#: ``profile_rhs`` factories for N = 1 and N > 1, compiled at import
_RHS_FACTORIES = tuple(
    rhs_factory("\n".join(ln for ln in _RHS.splitlines()
                          if radial or "Nm1" not in ln),
                ("alpha", "beta", "inv_m", "m", "q", "sigma", "Nm1", "F_floor"))
    for radial in (False, True)
)


def profile_rhs(p: Params, beta: float, F_floor: float):
    """Right-hand side (F', F'') of the profile equation at exponent beta.

    F is clamped below at ``F_floor`` inside the nonlinear terms.  The
    clamp keeps the field finite when trial stages overshoot below the
    contact threshold; the clamped region is never part of an accepted
    solution.  beta = 0 with F_floor = 0 gives the limit problem
    H'' + (N-1)/xi H' = xi^sigma H^{q/m}.  Its DOP853 step is ``dop853_step``.
    """
    m = p.m
    return _RHS_FACTORIES[p.N > 1](2.0 * beta / (m - 1.0), beta, 1.0 / m, m,
                                   p.q, p.sigma, p.N - 1, F_floor)


def origin_series(p: Params, beta: float, xi):
    """(F, F') of the origin launch series at xi (scalar or array).

    F = 1 + c2 xi^2 + cs xi^{sigma+2} with c2 = -beta / ((m-1) N) and
    cs = 1 / ((sigma+2)(sigma+N)).  The absorption term is kept because
    its derivative decays only like xi^{sigma+1} and would otherwise
    dominate the launch error whenever sigma is small.
    """
    sg = p.sigma
    c2 = -beta / ((p.m - 1.0) * p.N)
    cs = 1.0 / ((sg + 2.0) * (sg + p.N))
    F = 1.0 + c2 * xi**2 + cs * xi ** (sg + 2.0)
    Fp = 2.0 * c2 * xi + (sg + 2.0) * cs * xi ** (sg + 1.0)
    return F, Fp


#: Tolerance for detecting the algebraic identity m + q = 2.
CASE_EPS = 1e-12


class InterfaceCase(enum.Enum):
    """Sign of m + q - 2, which selects the interface expansion."""

    SUB_CRITICAL = "sub_critical"      # m + q < 2
    CRITICAL = "critical"              # m + q = 2
    SUPER_CRITICAL = "super_critical"  # m + q > 2


def interface_case(p: Params) -> InterfaceCase:
    """Branch on the sign of m + q - 2 with tolerance CASE_EPS."""
    s = p.m + p.q - 2.0
    if abs(s) <= CASE_EPS:
        return InterfaceCase.CRITICAL
    return InterfaceCase.SUPER_CRITICAL if s > 0 else InterfaceCase.SUB_CRITICAL


#: Largest relative shift of xi0 that the truncated interface series may
#: imply at the backward launch: its error estimate times u0 / theta.
SERIES_XI0_TOL = 1e-14

#: Candidate launch depths u0 = d0 / xi0, shallowest first.
LAUNCH_LADDER = 2.0 ** (-0.5 * np.arange(4.0, 120.0))

#: Floor of the interface-side launch, in A d^theta.
LAUNCH_F = 1e-6

#: Powers of u kept in each column of the interface-series table, off and
#: on the critical line, and the most powers of z = kappa u^gamma.
SERIES_ROWS = 12
CRITICAL_ROWS = 16
MAX_COLUMNS = 48


@functools.lru_cache(maxsize=8)
def _toeplitz_index(n: int):
    """Index into (s, 0) of the lower-triangular Toeplitz matrix of s."""
    i, j = np.indices((n, n))
    return np.where(i >= j, i - j, n)


def _lower_toeplitz(s):
    """Matrix of the truncated product with the power series s."""
    return np.append(s, 0.0)[_toeplitz_index(len(s))]


def _forward_solve(L, b):
    """x with L x = b for lower-triangular L and a vector b.

    Forward substitution on floats: row i takes b[i] minus L[i, j] x[j]
    for j = 0, 1, ..., i - 1, in that order, over L[i, i].
    """
    x = []
    for row, s in zip(L.tolist(), b.tolist()):
        for a, xj in zip(row, x):
            s -= a * xj
        x.append(s / row[len(x)])
    return np.array(x)


def _dot(a, b):
    """a @ b for a vector or matrix b, a possibly stacked: one
    ``np.add.reduce`` of elementwise products along a contiguous axis,
    in an order fixed by the length of that axis alone."""
    if b.ndim > 1:
        a, b = a[..., None, :], np.swapaxes(b, -1, -2)
    return np.add.reduce(a * b, axis=-1)


def _lanes(r):
    """Sum in the order of ``np.add.reduce`` on 8 to 15 floats r: the eight
    first ones are numpy's partial sums, one per position modulo 8, and
    combine as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)); the rest follow one at
    a time.  The pairwise sum keeps adding to the partial sums from 16
    floats on, and splits the vector above 128."""
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in r[8:]:
        s += x
    return s


def _binomial(c: float, n: int):
    """First n coefficients of (1 - u)^c."""
    out = np.ones(n)
    for j in range(1, n):
        out[j] = out[j - 1] * (j - 1 - c) / j
    return out


@functools.lru_cache(maxsize=256)
def _power_weights(a: float, n: int):
    """Rows W[j, 1:j], as lists, of W[j, i] = (a (j - i) - i) / j.

    For g[0] = 1, the coefficients of P = g^a obey (J. C. P. Miller)
    P[j] = a g[j] + sum_{0<i<j} W[j, i] g[j - i] P[i].
    """
    j, i = np.indices((n, n), dtype=float)
    W = (a * (j - i) - i) / np.maximum(j, 1.0)
    return [w[1:k] for k, w in enumerate(W.tolist())]


@functools.lru_cache(maxsize=64)
def _operators(m, q, N, theta, gamma, rows, limit):
    """Diffusion and drift brackets acting on columns k < limit, and the
    absorption factor (1 - u)^{sigma+1}, as matrices on rows powers of u."""
    j = np.arange(rows, dtype=float)
    w = j + m * theta
    T_1u = _lower_toeplitz(_binomial(1.0, rows))
    T_u = np.eye(rows, k=-1)
    T_1u2 = _lower_toeplitz(_binomial(2.0, rows))
    k = np.arange(limit, dtype=float)[:, None, None] * gamma
    # (D + m theta - 1)(D + m theta) with D = j + k gamma, quadratic in k
    diffusion = (
        T_1u * ((w - 1.0) * w) - (N - 1) * T_u * w
        + k * (T_1u * (2.0 * w - 1.0) - (N - 1) * T_u)
        + k * k * T_1u
    )
    # T_u @ T_1u multiplies integer matrices, exactly on every CPU
    drift = 2.0 / (m - 1.0) * (T_u @ T_1u) + T_1u2 * (theta + j) + k * T_1u2
    sigma = 2.0 * (1.0 - q) / (m - 1.0)
    return diffusion, drift, _lower_toeplitz(_binomial(sigma + 1.0, rows))


@functools.lru_cache(maxsize=8)
def _column0_plan(rows, ed, eb):
    """Which terms the column-0 recursion of a table sums, in which order.

    Row j of the linear part [diffusion | drift | -absorb] (a block only
    where its power of z is 0) meets X = [g^m, g, g^q] of column 0.  At
    k = 0 the diffusion block is lower bidiagonal, the drift block has
    three bands and the absorption block is lower triangular
    (``_operators``); no other entry can be nonzero.  Per row j >= 1 the
    plan holds the positions of those entries, but g[j]'s, in increasing
    order and in the two parts that ``np.add.reduce`` sums differently:
    those below the last multiple of 8 of the row's length, each with its
    lane (position modulo 8), and the rest.  With them go the slices of
    those two parts and of the row's entries at g[j]^m, g[j] and g[j]^q
    in the list that ``gather`` picks from the flat linear part.  A table
    has at most 17 rows, as ``_lanes`` sums at most 15 terms.
    """
    n = rows
    full = 3 * n - 3 * n % 8
    plan, gather = [], []
    for j in range(1, n):
        at = [j - 1, j] if ed == 0 else []
        at += [n + i for i in range(max(j - 2, 0), j)] if eb == 0 else []
        at += [2 * n + i for i in range(j + 1)]
        lanes = [p % 8 for p in at if p < full]
        lo = len(gather)
        mid, end = lo + len(lanes), lo + len(at)
        plan.append((lanes, at[: len(lanes)], at[len(lanes) :],
                     slice(lo, mid), slice(mid, end), slice(end, end + 3)))
        gather += [3 * n * j + p for p in at] + [3 * n * j + j + k * n for k in range(3)]
    return plan, np.array(gather)


class _SeriesTable:
    """Coefficients b_jk of g = sum b_jk u^j z^k, grown a column at a time.

    With xi0 = 1 and f = A1 u^theta g, the profile equation times
    (1 - u), divided by its leading power of u and a constant, reads

        c_d z^{e_d} [(1-u)(D + m theta - 1)(D + m theta) G
                     - (N-1) u (D + m theta) G]
        + c_b z^{e_b} [2/(m-1) (1-u) u g + (1-u)^2 (theta + D) g]
        - c_a (1-u)^{sigma+1} Q = 0,

    with G = g^m, Q = g^q and D = u d/du, which multiplies u^j z^k by
    j + k gamma.  Off the critical line exactly one of diffusion (e_d)
    and drift (e_b) carries the factor z = kappa u^gamma; on it neither
    does and the table has one column.  Column 0 is solved power by
    power of u.  Column k >= 1 is one lower-triangular solve: the
    z^k-coefficient of g^a is a g_0^{a-1} g_k plus products of earlier
    columns.  Each b_jk comes with a nonzero factor of its own power
    (1 + j + k gamma in the super-critical case); the other Frobenius
    roots, -1 (a shift of xi0) and -2(m theta - 1), are negative and
    never reached.
    """

    def __init__(self, m, q, N, theta, gamma, coeffs, rows, limit):
        cd, self.ed, cb, self.eb, ca = coeffs
        self.m, self.q, self.rows, self.limit = m, q, rows, limit
        self.theta, self.gamma = theta, gamma
        D, B, A = _operators(m, q, N, theta, gamma, rows, limit)
        self.diffusion, self.drift, self.absorb = cd * D, cb * B, ca * A
        self.b = np.zeros((rows, limit))
        self.powers = np.zeros((2, limit, rows))    # columns of g^m and g^q
        self._column0(m, q)
        self.columns = 1
        self._ladder = None

    def _column0(self, m, q):
        """Column 0, power by power of u, in plain floats.

        Row j first gives g^m and g^q their terms in earlier powers
        (Miller's recursion), then g[j] from the linear part of row j on
        X = [g^m, g, g^q], in which g[j] is still 0; g[j] enters with the
        factors m, 1 and q.  Every sum runs over its terms in the order of
        ``np.add.reduce`` on the whole row, the entries that cannot be
        nonzero (``_column0_plan``) left out, which changes no partial sum.
        """
        n = self.rows
        rows, gather = _column0_plan(n, self.ed, self.eb)
        Wm, Wq = _power_weights(m, n), _power_weights(q, n)
        zero = np.zeros((n, n))
        lin = np.concatenate([
            self.diffusion[0] if self.ed == 0 else zero,
            self.drift[0] if self.eb == 0 else zero,
            -self.absorb,
        ], axis=1)
        coef = lin.ravel()[gather].tolist()
        X = [0.0] * (3 * n)
        X[0] = X[n] = X[2 * n] = 1.0
        n2 = 2 * n
        for j, (lanes, at, tail, c_at, c_tail, c_diag) in enumerate(rows, 1):
            if j < 9:     # fewer than 8 terms: left to right
                sG = sQ = 0.0
                for wm, wq, a, G, Q in zip(Wm[j], Wq[j], X[n + j - 1 : n : -1],
                                           X[1:j], X[n2 + 1 : n2 + j]):
                    sG += wm * (a * G)
                    sQ += wq * (a * Q)
            else:
                gg = X[n + j - 1 : n : -1]
                sG = _lanes([w * (a * G) for w, a, G in zip(Wm[j], gg, X[1:j])])
                sQ = _lanes([w * (a * Q) for w, a, Q
                             in zip(Wq[j], gg, X[n2 + 1 : n2 + j])])
            X[j] = sG
            X[n2 + j] = sQ
            r = [0.0] * 8
            for k, a, p in zip(lanes, coef[c_at], at):
                r[k] += a * X[p]
            # _lanes(r), written out: it runs for every row of every build
            s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            if tail:
                for a, p in zip(coef[c_tail], tail):
                    s += a * X[p]
            dG, dg, dQ = coef[c_diag]
            X[n + j] = g = -s / ((dG * m + dg) + dQ * q)
            X[j] = sG + m * g
            X[n2 + j] = sQ + q * g
        X = np.array(X)
        self.b[:, 0] = X[n : 2 * n]
        self.powers[:, 0] = X[:n], X[2 * n :]
        if self.limit == 1:
            return
        g, (G, Q) = self.b[:, 0], self.powers[:, 0]
        self.products = np.zeros((n, self.limit * n))   # [T(b_0) T(b_1) ...]
        self.products[:, :n] = T_g = _lower_toeplitz(g)
        # products with 1 / g: the inverse is the Toeplitz matrix of its
        # first column, and each column solved alone gives the same bits
        T_inv = _lower_toeplitz(_forward_solve(T_g, np.eye(n)[0]))
        self.ginv = T_inv.T
        # products with a g^{a-1} = a g^a / g, for a = m, q
        self.ratios = np.array([
            _dot(m * _lower_toeplitz(G), T_inv),
            _dot(q * _lower_toeplitz(Q), T_inv),
        ])
        # the matrix of column k acting on b_k
        lead = _dot(-self.absorb, self.ratios[1])
        if self.ed == 0:
            lead = lead + _dot(self.diffusion, self.ratios[0])
        if self.eb == 0:
            lead = lead + self.drift
        self.lead = lead
        l, kk = np.arange(self.limit), np.arange(1.0, self.limit)[:, None]
        self.weights = np.array([
            np.where(l < kk, (a * (kk - l) - l) / kk, 0.0) for a in (m, q)
        ])

    def grow(self, columns: int) -> None:
        """Extend the table to ``columns`` columns, at most ``limit``."""
        n = self.rows
        while self.columns < min(columns, self.limit):
            k = self.columns
            P = self.weights[:, k - 1, 1:k, None] * self.powers[:, 1:k]
            Y = _dot(P[:, ::-1].reshape(2, -1), self.products[:, n : k * n].T)
            rest = _dot(Y, self.ginv)
            rhs = _dot(self.absorb, rest[1])
            if self.ed == 0:
                rhs -= _dot(self.diffusion[k], rest[0])
            else:
                rhs -= _dot(self.diffusion[k - 1], self.powers[0, k - 1])
            if self.eb == 1:
                rhs -= _dot(self.drift[k - 1], self.b[:, k - 1])
            bk = _forward_solve(self.lead[k], rhs)
            self.b[:, k] = bk
            self.powers[:, k] = _dot(self.ratios, bk) + rest
            self.products[:, k * n : (k + 1) * n] = _lower_toeplitz(bk)
            self.columns = k + 1

    def ladder_sums(self, u, count: int):
        """``_row_sums`` of |b_jk| over the columns so far at the candidate
        depths u, whose first ``count`` are the first points of
        LAUNCH_LADDER.  What those points give does not depend on beta:
        it is kept until the table grows, a search needs more points or
        the ladder is replaced."""
        kept = self._ladder
        if (kept is not None and kept[0] is LAUNCH_LADDER
                and kept[1] == self.columns and kept[2] >= count):
            B = kept[3]
            rest = _row_sums(B, u[count:])
            return (np.hstack([kept[4][:, :count], rest[0]]),
                    np.hstack([kept[5][:, :count], rest[1]]))
        B = np.abs(self.b[:, : self.columns])
        sums, last2 = _row_sums(B, u)
        self._ladder = (LAUNCH_LADDER, self.columns, count, B,
                        sums[:, :count], last2[:, :count])
        return sums, last2


@functools.lru_cache(maxsize=64)
def _series_table(m: float, q: float, N: int, super_critical: bool):
    """The (m, q, N) table off the critical line, shared by all beta."""
    if super_critical:
        theta = 1.0 / (1.0 - q)
        gamma = (m + q - 2.0) / (1.0 - q)
        coeffs = (1.0, 1, 1.0, 0, theta)
    else:
        theta = 2.0 / (m - q)
        gamma = (2.0 - m - q) / (m - q)
        coeffs = (1.0 / (m * theta * (m * theta - 1.0)), 0, 1.0, 1, 1.0)
    return _SeriesTable(m, q, N, theta, gamma, coeffs, SERIES_ROWS, MAX_COLUMNS)


def _row_sums(B, u):
    """sum_j B_jk u^j over all rows and over the last two, for each column
    k of B (rows of the result) and each u (columns)."""
    U = np.float_power(u, np.arange(len(B))[:, None])
    return _dot(B.T, U), _dot(B[-2:].T, U[-2:])


def _truncation(table, kappa, theta, u_floor):
    """Launch depth u0 = d0 / xi0 and the number of columns kept, cut.

    The candidates are the points of LAUNCH_LADDER above u_floor, then
    u_floor.  At each u the series keeps the columns k < cut, where cut is
    the first k >= 1 whose term is negligible or no larger than the next:
    the optimal truncation of the divergent z-series.  The estimate adds
    the first dropped term and the last two rows of the kept columns, all
    in absolute value.  The launch is the first u whose estimate times
    u / theta is at most SERIES_XI0_TOL, else the last u.  The table
    grows while a candidate up to the launch runs out of columns.
    """
    if table.limit == 1:
        # one column: cut is 1, nothing is dropped and the estimate is the
        # last two rows; the floor is the launch unless a point passes first
        n = table.rows
        b2, b1 = np.abs(table.b[-2:, 0]).tolist()
        for u in LAUNCH_LADDER[LAUNCH_LADDER > u_floor].tolist():
            est = b2 * u ** (n - 2.0) + b1 * u ** (n - 1.0)
            if est * u / theta <= SERIES_XI0_TOL:
                return u, 1
        return u_floor, 1
    count = int(np.count_nonzero(LAUNCH_LADDER > u_floor))
    u = np.append(LAUNCH_LADDER[:count], u_floor)
    at = np.arange(len(u))
    while True:
        sums, last2 = table.ladder_sums(u, count)
        K = table.columns
        with np.errstate(over="ignore", invalid="ignore"):
            # far-off trials may overflow; their estimate is then inf or nan
            Z = np.float_power(kappa * np.float_power(u, table.gamma),
                               np.arange(K)[:, None])
            terms = sums * Z
            tails = np.cumsum(last2 * Z, axis=0)
            cond = np.ones((K, len(u)), dtype=bool)   # row r: cut at k = r + 1
            cond[:-1] = terms[1:] <= 0.5 * SERIES_XI0_TOL * theta / u
            cond[:-2] |= terms[2:] >= terms[1:-1]
            cut = np.argmax(cond, axis=0) + 1
            # a candidate that keeps every column of a full table counts its
            # last kept term as dropped
            est = tails[cut - 1, at] + terms[np.minimum(cut, K - 1), at]
            ok = est * u / theta <= SERIES_XI0_TOL
        i = int(np.argmax(ok)) if ok.any() else len(u) - 1
        if table.columns == table.limit or not (cut[: i + 1] == K).any():
            return float(u[i]), int(cut[i])
        table.grow(K + 8)


@functools.lru_cache(maxsize=64)
def _exponents(rows: int, columns: int):
    """The powers j of u, as a column, and k of z of a table's monomials."""
    return np.arange(rows, dtype=float)[:, None], np.arange(columns, dtype=float)


class InterfaceSeries:
    """The tangential profile f = A d^theta g(d / xi0) next to xi0.

    g = sum b_jk u^j (kappa u^gamma)^k with u = d / xi0.  The coefficients
    come from the Frobenius-type recursion of ``_SeriesTable``:

    - super-critical (m + q > 2): gamma = (m+q-2)/(1-q) and kappa =
      K3^{m-1}/beta, drift and absorption balance and diffusion enters
      through z; the z-series diverges and is truncated optimally;
    - sub-critical (m + q < 2): gamma = (2-m-q)/(m-q) and kappa =
      beta K1^{1-q}, diffusion and absorption balance and drift enters
      through z; b_01 kappa is -K0 / K1;
    - critical (m + q = 2): all three balance, the series runs in u
      alone and its coefficients depend on beta.

    Off the critical line the table depends only on (m, q, N) and is
    shared by every beta.  The series is truncated where the backward leg
    launches, at ``d0 = u0 xi0``: u0 is the shallowest point of
    LAUNCH_LADDER whose truncation estimate times u0 / theta -- the
    relative shift of xi0 it implies -- is at most SERIES_XI0_TOL, but
    never deeper than where A d^theta = LAUNCH_F.  A launch fixed in u
    keeps the backward leg on the rescaling family in xi0.  The kept
    terms serve every depth down to the interface.
    """

    def __init__(self, p: Params, beta: float, xi0: float):
        m, q = p.m, p.q
        case = interface_case(p)
        if case is InterfaceCase.SUPER_CRITICAL:
            table = _series_table(m, q, p.N, True)
            theta = table.theta
            A1 = (beta * theta) ** -theta
            kappa = A1 ** (m - 1.0) / beta
        elif case is InterfaceCase.SUB_CRITICAL:
            table = _series_table(m, q, p.N, False)
            theta = table.theta
            A1 = (m * theta * (m * theta - 1.0)) ** (-1.0 / (m - q))
            kappa = beta * A1 ** (1.0 - q)
        else:
            # s = A1^{1-q} solves the leading balance m theta (m theta - 1) s^2
            # + beta theta s = 1
            theta, kappa = 1.0 / (1.0 - q), 0.0
            bt, mt = beta * theta, m * theta
            s = 2.0 / (bt + math.sqrt(bt * bt + 4.0 * mt * (mt - 1.0)))
            A1 = s**theta
            coeffs = (s * s, 0, beta * s, 0, 1.0)
            table = _SeriesTable(
                m, q, p.N, theta, 0.0, coeffs, CRITICAL_ROWS, 1
            )
        gamma = table.gamma
        self.m, self.theta, self.xi0 = m, theta, xi0
        self.gamma, self.kappa = gamma, kappa
        self.amplitude = A1 * xi0 ** (2.0 / (m - 1.0) - theta)
        u0, cut = _truncation(table, kappa, theta,
                              launch_distance(self, LAUNCH_F) / xi0)
        self.d0 = u0 * xi0
        self.coefficients = b = table.b[:, :cut]      # the kept b_jk
        self._j, self._k = _exponents(len(b), cut)
        # columns: the coefficients of g and of (theta + D) g, flat in (j, k)
        w = theta + self._j + gamma * self._k
        self._coeffs = np.array([b, w * b]).reshape(2, -1).T

    def __call__(self, d):
        """(F, F') a distance d (scalar or array) inside the interface.

        The monomials u^j z^k are summed by one reduction along the last,
        contiguous axis, which numpy performs alike for every leading
        shape: an array of distances gives the same bits as one distance
        at a time.
        """
        pw = np.float_power
        d = np.asarray(d, dtype=float)
        u = d / self.xi0
        z = self.kappa * pw(u, self.gamma)
        mono = pw(u[..., None, None], self._j) * pw(z[..., None, None], self._k)
        gh = _dot(mono.reshape(*d.shape, len(self._coeffs)), self._coeffs)
        A, theta, m = self.amplitude, self.theta, self.m
        f = A * pw(d, theta) * gh[..., 0]
        fd = A * pw(d, theta - 1.0) * gh[..., 1]
        # d increases inward, so f'(xi) = -df/dd
        return pw(f, m), -m * pw(f, m - 1.0) * fd


def f_from_F(m: float, F, Fp):
    """(f, f') from (F, F') arrays: f = F^{1/m} and f' = F' f^{1-m} / m,
    with F clipped at zero and f' = F' / m where f = 0."""
    f = np.float_power(np.clip(F, 0.0, None), 1.0 / m)
    return f, Fp * np.float_power(np.where(f > 0.0, f, 1.0), 1.0 - m) / m


def log_grid(start: float, stop: float, num: int):
    """``num`` points start (stop / start)^(i / (num - 1)), log-spaced
    from ``start`` to ``stop`` and equal to both at the ends."""
    grid = start * np.float_power(stop / start, np.linspace(0.0, 1.0, num))
    grid[0], grid[-1] = start, stop
    return grid


def launch_distance(expansion, f: float) -> float:
    """Distance inside the interface at which the leading term A d^theta is f.

    ``expansion`` is an ``InterfaceSeries`` or an
    ``asymptotics.InterfaceExpansion``: anything with ``amplitude`` and
    ``theta``.
    """
    return (f / expansion.amplitude) ** (1.0 / expansion.theta)


def piecewise(breaks, pieces):
    """Dense (F, F') evaluator made of ``pieces`` joined at ``breaks``.

    Piece i covers [breaks[i-1], breaks[i]), the first from -inf; a piece
    that ends at a point inclusively takes np.nextafter(point, inf) as its
    break.  At and past the last break the profile is zero; a NaN xi
    gives NaN.  One ``searchsorted`` assigns the points, and only the
    pieces that get points run.
    """
    breaks = np.asarray(breaks, dtype=float)

    def dense(xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        F = np.where(np.isnan(xi), np.nan, 0.0)
        Fp = F.copy()
        at = np.searchsorted(breaks, xi, side="right")
        for i in np.unique(at[at < len(pieces)]):
            here = at == i
            F[here], Fp[here] = pieces[i](xi[here])
        return F, Fp

    return dense
