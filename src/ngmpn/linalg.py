"""Dense linear algebra on small matrices, written out in full.

The matrices here are tiny (one row per infected place, rarely more than
four), so everything uses plain lists of floats and textbook algorithms:
Gauss-Jordan elimination with partial pivoting for inverses, row-echelon
basic solutions for the rank-deficient systems of the DFE solve, and a
balanced Hessenberg reduction followed by the implicit double-shift QR
iteration for eigenvalues. Matrices are lists of row lists.
"""
from __future__ import annotations

import math
from itertools import chain

from .errors import NgmpnError


# a pivot counts as zero below PIVOT_TOL times the largest entry; a
# subdiagonal entry deflates below EIG_TOL times its diagonal neighbours, and
# the QR iteration gives up after MAX_SWEEPS_FACTOR * n^2 sweeps
PIVOT_TOL = 1e-10
EIG_TOL = 1e-12
MAX_SWEEPS_FACTOR = 100


class LinalgError(NgmpnError):
    pass


class SingularMatrixError(LinalgError):
    pass


class EigenConvergenceError(LinalgError):
    pass


def mat_mul(a, b):
    """The product a b, row by row. When b is finite, zero entries of a are
    skipped: each sum starts at +0.0 and so is never -0.0, and adding a
    signed zero to it changes no bit. Otherwise 0*inf gives NaN, as it must."""
    finite = all(map(math.isfinite, chain.from_iterable(b)))
    out = []
    for row in a:
        acc = [0.0] * len(b[0])
        for v, brow in zip(row, b):
            if v != 0.0 or not finite:
                acc = [s + v * x for s, x in zip(acc, brow)]
        out.append(acc)
    return out


def norm1(a) -> float:
    """Maximum absolute column sum."""
    return max([sum(map(abs, col)) for col in zip(*a)])


def max_abs(a) -> float:
    return max(map(abs, chain.from_iterable(a)), default=0.0)


def _pivot(m, col, first):
    """The first row from `first` down of largest magnitude in column col, as
    max() picks it, and that magnitude."""
    piv, best = first, abs(m[first][col])
    for r in range(first + 1, len(m)):
        if abs(m[r][col]) > best:
            piv, best = r, abs(m[r][col])
    return piv, best


def invert(a):
    """Inverse via Gauss-Jordan on [a | I]; returns (inverse, condition) where
    condition is the 1-norm estimate ||a||_1 * ||a^-1||_1."""
    n = len(a)
    m = [list(row) + [0.0] * n for row in a]
    for i, row in enumerate(m):
        row[n + i] = 1.0
    tiny = 1e-14 * max_abs(a)
    for col in range(n):
        piv, best = _pivot(m, col, col)
        if best <= tiny:
            raise SingularMatrixError(f"pivot {col} below tolerance")
        prow = m[piv]
        d = prow[col]
        m[piv] = m[col]
        m[col] = prow = [v / d for v in prow]
        for r, row in enumerate(m):
            if r == col:
                continue
            f = row[col]
            if f != 0.0:
                m[r] = [x - f * p for x, p in zip(row, prow)]
    inv = [row[n:] for row in m]
    cond = norm1(a) * norm1(inv)
    return inv, cond


def basic_solution(a, b):
    """Row-echelon solve of a (possibly rank-deficient or non-square) system.

    Columns are examined in order; a column with no usable pivot stays free
    and its solution component is zero, so the returned x is the basic
    solution that favours the earliest-declared variables. Returns
    (x, rank, pivot_cols).
    """
    nrow = len(a)
    ncol = len(a[0]) if a else 0
    m = [list(row) + [b[i]] for i, row in enumerate(a)]
    tol = PIVOT_TOL * max_abs(a)
    pivot_cols = []
    for col in range(ncol):
        # pivot k sits in row k
        row = len(pivot_cols)
        if row >= nrow:
            break
        piv, best = _pivot(m, col, row)
        if best <= tol:
            continue
        m[row], m[piv] = m[piv], m[row]
        prow = m[row]
        for r in range(row + 1, nrow):
            f = m[r][col] / prow[col]
            if f != 0.0:
                for c in range(col, ncol + 1):
                    m[r][c] -= f * prow[c]
        pivot_cols.append(col)
    x = [0.0] * ncol
    for r in range(len(pivot_cols) - 1, -1, -1):
        c = pivot_cols[r]
        s = m[r][ncol]
        for j in range(c + 1, ncol):
            s -= m[r][j] * x[j]
        x[c] = s / m[r][c]
    return x, len(pivot_cols), pivot_cols


def left_null_vectors(a):
    """Yield a basis of the vectors y with y^T a = 0. Each row of a whose
    column of a^T has no pivot gives one: its own entry 1, the pivot rows'
    entries solving a^T y = 0 and the others 0, then scaled so that its
    entry of largest magnitude is 1."""
    at = [list(col) for col in zip(*a)]
    _, _, pivots = basic_solution(at, [0.0] * len(at))
    for c in range(len(a)):
        if c not in pivots:
            y, _, _ = basic_solution(at, [-row[c] for row in at])
            y[c] = 1.0
            top = max(y, key=abs)
            yield [v / top for v in y]


# ------------------------------------------------------------- eigenvalues

def _balance(a):
    """Diagonal similarity scaling so row and column norms roughly match."""
    n = len(a)
    radix = 2.0
    done = False
    while not done:
        done = True
        for i in range(n):
            row = a[i]
            r = sum(map(abs, row[:i] + row[i + 1:]))
            c = sum([abs(a[j][i]) for j in range(n) if j != i])
            if r == 0.0 or c == 0.0:
                continue
            f = 1.0
            s = c + r
            while c < r / radix:
                c *= radix
                r /= radix
                f *= radix
            while c > r * radix:
                c /= radix
                r *= radix
                f /= radix
            if (c + r) < 0.95 * s and f != 1.0:
                done = False
                a[i] = [v / f for v in row]
                for j in range(n):
                    a[j][i] *= f
    return a


def _hessenberg(a):
    """Householder reduction to upper Hessenberg form, in place."""
    n = len(a)
    for k in range(n - 2):
        # build the reflector annihilating a[k+2:, k]
        alpha = 0.0
        for i in range(k + 1, n):
            alpha = max(alpha, abs(a[i][k]))
        if alpha == 0.0:
            continue
        # an entry of v is exactly +-1, so sigma >= 1
        v = [a[i][k] / alpha for i in range(k + 1, n)]
        sigma = math.sqrt(sum(t * t for t in v))
        if v[0] < 0:
            sigma = -sigma
        v[0] += sigma
        beta = 1.0 / (sigma * v[0])
        # apply from the left: rows k+1..n-1
        for j in range(k, n):
            s = 0.0
            for i in range(k + 1, n):
                s += v[i - k - 1] * a[i][j]
            s *= beta
            for i in range(k + 1, n):
                a[i][j] -= s * v[i - k - 1]
        # apply from the right: columns k+1..n-1
        for i in range(n):
            s = 0.0
            for j in range(k + 1, n):
                s += a[i][j] * v[j - k - 1]
            s *= beta
            for j in range(k + 1, n):
                a[i][j] -= s * v[j - k - 1]
        a[k + 1][k] = -sigma * alpha
        for i in range(k + 2, n):
            a[i][k] = 0.0
    return a


def _eig2(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]] as two complex numbers."""
    tr = a + d
    det = a * d - b * c
    disc = tr * tr / 4.0 - det
    if disc >= 0.0:
        q = math.sqrt(disc)
        return complex(tr / 2.0 + q, 0.0), complex(tr / 2.0 - q, 0.0)
    q = math.sqrt(-disc)
    return complex(tr / 2.0, q), complex(tr / 2.0, -q)


def eigenvalues(a_in):
    """All eigenvalues of a real square matrix as complex numbers.

    Balances, reduces to Hessenberg form, then runs the Francis double-shift
    QR iteration with deflation. Raises EigenConvergenceError if a block
    fails to deflate within MAX_SWEEPS_FACTOR * n^2 sweeps.
    """
    n = len(a_in)
    if not all(map(math.isfinite, chain.from_iterable(a_in))):
        raise LinalgError("matrix contains a non-finite entry")
    if n == 1:
        return [complex(a_in[0][0], 0.0)]
    h = _hessenberg(_balance([list(row) for row in a_in]))
    # the fallback deflation scale, taken once per matrix as EISPACK's hqr does
    norm = max_abs(h)
    eigs = []
    hi = n - 1
    sweeps = 0
    max_sweeps = MAX_SWEEPS_FACTOR * n * n
    iters_since_deflation = 0
    while hi >= 0:
        if sweeps > max_sweeps:
            raise EigenConvergenceError(
                f"QR iteration did not deflate after {max_sweeps} sweeps")
        # zero out negligible subdiagonals, then find the active block [lo, hi]
        lo = hi
        while lo > 0:
            s = abs(h[lo - 1][lo - 1]) + abs(h[lo][lo])
            if s == 0.0:
                s = norm
            if abs(h[lo][lo - 1]) <= EIG_TOL * s:
                h[lo][lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            eigs.append(complex(h[hi][hi], 0.0))
            hi -= 1
            iters_since_deflation = 0
            continue
        if lo == hi - 1:
            e1, e2 = _eig2(h[lo][lo], h[lo][hi], h[hi][lo], h[hi][hi])
            eigs.extend([e1, e2])
            hi -= 2
            iters_since_deflation = 0
            continue
        sweeps += 1
        iters_since_deflation += 1
        # Francis double shift from the trailing 2x2; exceptional shift when stuck
        if iters_since_deflation % 11 == 0:
            s1 = abs(h[hi][hi - 1]) + abs(h[hi - 1][hi - 2])
            trace = 1.5 * s1
            det = s1 * s1
        else:
            trace = h[hi - 1][hi - 1] + h[hi][hi]
            det = h[hi - 1][hi - 1] * h[hi][hi] - h[hi - 1][hi] * h[hi][hi - 1]
        # first column of (H - s1)(H - s2) restricted to the leading block
        x = h[lo][lo] * h[lo][lo] + h[lo][lo + 1] * h[lo + 1][lo] - trace * h[lo][lo] + det
        y = h[lo + 1][lo] * (h[lo][lo] + h[lo + 1][lo + 1] - trace)
        z = h[lo + 2][lo + 1] * h[lo + 1][lo]
        for k in range(lo, hi):
            # Householder on (x, y, z) to chase the bulge; the last step
            # (k == hi-1) degenerates to a 2-row reflector
            three = k + 2 <= hi
            alpha = max(abs(x), abs(y), abs(z))
            if alpha == 0.0:
                x, y, z = _next_column(h, k, hi)
                continue
            # z is 0 when the reflector has two rows, and one of xs, ys, zs
            # is exactly +-1, so |sigma| >= 1 and |v0| >= 1
            xs, ys, zs = x / alpha, y / alpha, z / alpha
            sigma = math.sqrt(xs * xs + ys * ys + zs * zs)
            if xs < 0:
                sigma = -sigma
            v0 = xs + sigma
            v1, v2 = ys, zs
            beta = 1.0 / (sigma * v0)
            jlo = max(lo, k - 1)
            for j in range(jlo, n):
                s = v0 * h[k][j] + v1 * h[k + 1][j]
                if three:
                    s += v2 * h[k + 2][j]
                s *= beta
                h[k][j] -= s * v0
                h[k + 1][j] -= s * v1
                if three:
                    h[k + 2][j] -= s * v2
            iend = min(hi, k + 3)
            for i in range(0, iend + 1):
                s = v0 * h[i][k] + v1 * h[i][k + 1]
                if three:
                    s += v2 * h[i][k + 2]
                s *= beta
                h[i][k] -= s * v0
                h[i][k + 1] -= s * v1
                if three:
                    h[i][k + 2] -= s * v2
            x, y, z = _next_column(h, k, hi)
    return eigs


def _next_column(h, k, hi):
    x = h[k + 1][k] if k + 1 <= hi else 0.0
    y = h[k + 2][k] if k + 2 <= hi else 0.0
    z = h[k + 3][k] if k + 3 <= hi else 0.0
    return x, y, z


def spectral_radius_of(a):
    """(radius, dominant eigenvalue, all eigenvalues, tie flag)."""
    eigs = eigenvalues(a)
    radius = max(map(abs, eigs))
    near = [ev for ev in eigs if abs(ev) >= radius - 1e-12 * (1.0 + radius)]
    dominant = max(near, key=lambda ev: (ev.real, ev.imag))
    tie = len({(round(ev.real, 9), round(abs(ev.imag), 9)) for ev in near}) > 1
    return radius, dominant, eigs, tie
