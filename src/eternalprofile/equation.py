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
built once per triple.  Where m + q > 2 the z-series diverges, and
diagonal Pade approximants in z, from Wynn's epsilon algorithm
(``_pade``), sum it far past its smallest term, so the backward leg
launches where the profile is no longer thin; where they fail, the
series is truncated at its smallest term.  The integrators in
``integrate`` and
``matching`` take their launch states from here, and their right-hand
side, written once as a template that also gives its DOP853 step.
Every profile is evaluated off its grid by one ``piecewise``
evaluator; only ``pdecheck`` keeps its own, deliberately independent,
residual, and ``asymptotics`` its closed-form K0-K3 constants, which
check the leading terms of the series.

One arithmetic rule makes the same input give the same bits on every
CPU: products of computed floats are sums of elementwise products in a
fixed order (``_dot``, ``_forward_solve``), the Pade sums are elementwise
operations and a cumulative sum, and array powers are
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
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._dop853 import rhs_factory
from .errors import BracketFailure

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
#: on the critical line, and the most powers of z = kappa u^gamma.  A
#: super-critical table with gamma >= 1 keeps WIDE_ROWS: its summed series
#: launches as far out as u = 1/8 to 1/4, where 12 powers of u fall short.
SERIES_ROWS = 12
WIDE_ROWS = 18
CRITICAL_ROWS = 16
MAX_COLUMNS = 48

#: Order L of the diagonal Pade approximants [L/L] in z that sum the
#: super-critical series; they read its first 2L + 1 columns.
PADE_ORDER = 16


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
    """Sum in the order of ``np.add.reduce`` on 8 to 128 floats r: eight
    partial sums, one per position modulo 8 over the longest prefix whose
    length is a multiple of 8, combine as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)); the rest follow one at a time.
    Above 128 floats numpy splits the vector."""
    p, rest = r, r[8:]
    if len(r) >= 16:
        full = len(r) - len(r) % 8
        for i in range(8, full, 8):
            p = [a + b for a, b in zip(p, r[i : i + 8])]
        rest = r[full:]
    s = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]))
    for x in rest:
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
    has at most 42 rows, as numpy splits a sum of more than 128 terms.
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
        self._summands = None

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

    def summands(self):
        """What the Pade summation reads, as (4, 2L + 1, rows) with
        L = PADE_ORDER, k before j: the columns of g and of (theta + D) g,
        then both without their last two rows, whose Pade values tell what
        the rows the table leaves out would add."""
        if self._summands is None:
            K = 2 * PADE_ORDER + 1
            self.grow(K)
            b = self.b[:, :K]
            j = np.arange(self.rows, dtype=float)[:, None]
            w = self.theta + j + self.gamma * np.arange(K, dtype=float)
            blocks = np.array([b, w * b])
            cut = blocks.copy()
            cut[:, -2:] = 0.0
            self._summands = np.swapaxes(np.concatenate([blocks, cut]), 1, 2).copy()
        return self._summands


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
    rows = WIDE_ROWS if super_critical and gamma >= 1.0 else SERIES_ROWS
    return _SeriesTable(m, q, N, theta, gamma, coeffs, rows, MAX_COLUMNS)


def _terms(blocks, gamma, u):
    """c_k(u) u^(gamma k), with c_k(u) = sum_j b_jk u^j, for each block b
    of ``blocks`` (k before j) and each u of the 1-d array ``u``, as an
    array (k, block, u): the terms of the z-series but their kappa^k."""
    K, rows = blocks.shape[1:]
    U = np.float_power(u[:, None], np.arange(rows))
    C = np.add.reduce(U[:, None] * blocks[:, None], axis=-1)
    C *= np.float_power(u[:, None], gamma * np.arange(K))
    return np.ascontiguousarray(np.moveaxis(C, -1, 0))


def _pade(terms, kappa):
    """[L/L] and [L-1/L-1] Pade values in kappa of the series whose first
    2L + 1 terms, but their kappa^k, run along the first axis of ``terms``
    (``_terms``); each has the shape of the other axes.

    Wynn's epsilon algorithm (Wynn 1956) on the partial sums S_n,
    n <= 2L: eps_{-1} = 0, eps_0 = S and
    eps_{k+1}^(n) = eps_{k-1}^(n+1) + 1 / (eps_k^(n+1) - eps_k^(n)),
    a column at a time, so that eps_{2L}^(0) = [L/L].  Where an even
    column has converged, equal neighbours make the next odd column
    infinite, and two infinite neighbours a NaN difference; that
    difference is taken as infinite, so the converged value goes on.
    Only elementwise operations and a cumulative sum along the first
    axis: the bits of a point do not depend on the others.
    """
    L = (len(terms) - 1) // 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powers = np.float_power(kappa, np.arange(2.0 * L + 1.0))
        even = np.cumsum(terms * powers.reshape(-1, *[1] * (terms.ndim - 1)),
                         axis=0)
        odd = 1.0 / (even[1:] - even[:-1])
        for k in range(1, L + 1):
            even = even[1:-1] + 1.0 / np.fmax(odd[1:] - odd[:-1], -np.inf)
            if k == L - 1:
                before = even[0]
            if k < L:
                odd = odd[1:-1] + 1.0 / (even[1:] - even[:-1])
    return even[0], before


def _summed_launch(table, kappa, theta, u):
    """Index of the launch among ``u``, the first points of
    LAUNCH_LADDER, or None, and the Pade values of g and (theta + D) g
    at every point, as an array (2, len(u)).

    The estimate at u is the larger, for g and for (theta + D) g, of the
    relative changes of the Pade value from [L-1/L-1] to [L/L] and on
    leaving out the last two rows of the table, times u / theta: the
    relative shift of xi0 it implies.  The launch is the first u whose
    estimate is at most SERIES_XI0_TOL, with the next, deeper point
    passing too, so that no chance agreement of two approximants decides
    it.  A point where g is not positive, or a value is NaN, fails.
    """
    full, before = _pade(_terms(table.summands(), table.gamma, u), kappa)
    with np.errstate(invalid="ignore", divide="ignore"):
        est = np.maximum(np.abs(full[:2] - before[:2]),
                         np.abs(full[:2] - full[2:])) / np.abs(full[:2])
        est = np.max(est, axis=0) * u / theta
    ok = (est <= SERIES_XI0_TOL) & (full[0] > 0.0)
    ok = ok[:-1] & ok[1:]
    return (int(np.argmax(ok)) if ok.any() else None), full[:2]


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
    U = np.float_power(u, np.arange(table.rows)[:, None])
    at = np.arange(len(u))
    while True:
        K = table.columns
        # sum_j |b_jk| u^j over all rows and over the last two, per column k
        B = np.abs(table.b[:, :K])
        sums, last2 = _dot(B.T, U), _dot(B[-2:].T, U[-2:])
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


class InterfaceSeries:
    """The tangential profile f = A d^theta g(d / xi0) next to xi0.

    g = sum b_jk u^j (kappa u^gamma)^k with u = d / xi0.  The coefficients
    come from the Frobenius-type recursion of ``_SeriesTable``:

    - super-critical (m + q > 2): gamma = (m+q-2)/(1-q) and kappa =
      K3^{m-1}/beta, drift and absorption balance and diffusion enters
      through z; the z-series diverges, and is Pade-summed or truncated
      optimally;
    - sub-critical (m + q < 2): gamma = (2-m-q)/(m-q) and kappa =
      beta K1^{1-q}, diffusion and absorption balance and drift enters
      through z; b_01 kappa is -K0 / K1;
    - critical (m + q = 2): all three balance, the series runs in u
      alone and its coefficients depend on beta.

    Off the critical line the table depends only on (m, q, N) and is
    shared by every beta.  The backward leg launches at ``d0 = u0 xi0``
    from ``launch``, (F, F') there.  A super-critical series is summed
    by [L/L] Pade approximants in z, L = PADE_ORDER, at the shallowest
    point of LAUNCH_LADDER out from where A d^theta = LAUNCH_F whose
    estimate (``_summed_launch``) -- the relative shift of xi0 it
    implies -- is at most SERIES_XI0_TOL, at the next deeper point too;
    ``cut`` is then None.  Else the series keeps ``cut`` columns and is
    truncated where its own estimate times u0 / theta first passes
    SERIES_XI0_TOL, never deeper than where A d^theta = LAUNCH_F.  Built
    ``like`` a series from the same (m, q, N) table, it searches nothing
    and takes that one's (u0, cut), so the launch is fixed in u and the
    leg stays on the rescaling family in xi0; a critical table is each
    build's own.  A launch whose g is not a positive finite number
    raises BracketFailure.  Either form is summed alike at every depth
    down to the interface.
    """

    def __init__(self, p: Params, beta: float, xi0: float,
                 like: Optional[InterfaceSeries] = None):
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
        self.m, self.theta, self.beta, self.xi0 = m, theta, beta, xi0
        self.gamma, self.kappa, self._table = gamma, kappa, table
        self.amplitude = A1 * xi0 ** (2.0 / (m - 1.0) - theta)
        gh = None
        if like is not None and like._table is table:
            u0, cut = like.u0, like.cut
        else:
            u_floor = launch_distance(self, LAUNCH_F) / xi0
            i = None
            if case is InterfaceCase.SUPER_CRITICAL:
                i, sums = _summed_launch(table, kappa, theta,
                                         LAUNCH_LADDER[LAUNCH_LADDER > u_floor])
            if i is None:
                u0, cut = _truncation(table, kappa, theta, u_floor)
            else:
                # the search's own Pade values at its launch
                u0, cut, gh = float(LAUNCH_LADDER[i]), None, sums[:, i]
        self.u0, self.cut, self.d0 = u0, cut, u0 * xi0
        if cut is None:
            self._summands = table.summands()[:2]
            self.coefficients = table.b[:, : 2 * PADE_ORDER + 1]
        else:
            self.coefficients = b = table.b[:, :cut]      # the kept b_jk
            self._j = np.arange(len(b), dtype=float)[:, None]
            self._k = np.arange(cut, dtype=float)
            # columns: the coefficients of g and of (theta + D) g, flat in (j, k)
            w = theta + self._j + gamma * self._k
            self._coeffs = np.array([b, w * b]).reshape(2, -1).T
        if gh is None:
            # summed at the ladder point itself, truncated where
            # ``__call__`` puts d0; far off, a lent form may overflow
            with np.errstate(over="ignore", invalid="ignore"):
                gh = self._sums(np.array([u0 if cut is None else self.d0 / xi0]))[:, 0]
        if not (gh[0] > 0.0 and np.isfinite(gh).all()):
            raise BracketFailure(f"interface launch at beta={beta!r}, "
                                 f"xi0={xi0!r} has g = {gh[0]!r}")
        self.launch = self._state(self.d0, gh[0], gh[1])

    def _sums(self, u):
        """g and (theta + D) g, as (2, len(u)), at the depths ``u``, a 1-d
        array: Pade-summed, or the kept monomials u^j z^k summed by one
        reduction along the last, contiguous axis, which numpy performs
        alike for every length of u: each depth gets its bits alone."""
        if self.cut is None:
            return _pade(_terms(self._summands, self.gamma, u), self.kappa)[0]
        pw = np.float_power
        z = self.kappa * pw(u, self.gamma)
        mono = pw(u[:, None, None], self._j) * pw(z[:, None, None], self._k)
        return _dot(mono.reshape(len(u), len(self._coeffs)), self._coeffs).T

    def __call__(self, d):
        """(F, F') a distance d (scalar or array) inside the interface."""
        d = np.asarray(d, dtype=float)
        g, h = self._sums((d / self.xi0).reshape(-1)).reshape(2, *d.shape)
        return self._state(d, g, h)

    def _state(self, d, g, h):
        """(F, F') at distance d from g and h = (theta + D) g there."""
        pw = np.float_power
        A, theta, m = self.amplitude, self.theta, self.m
        f = A * pw(d, theta) * g
        fd = A * pw(d, theta - 1.0) * h
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
