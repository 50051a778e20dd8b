"""Exact matrix routines for the lattice layer.

Matrices are row-major lists of lists over Python ints or Fractions.
Dimensions are tiny here (ambient dimension <= ~8), so the implementations
favor clarity and exactness over asymptotics.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def identity(n: int, one=1) -> list[list]:
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError("matrix shapes do not match")
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def transpose(m):
    return [list(col) for col in zip(*m)]


def vec_mat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def dot(a, b):
    return sum(map(operator.mul, a, b))


# ---------------------------------------------------------------------------
# Hermite normal form (row style)
# ---------------------------------------------------------------------------


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical basis of the integer row span of ``rows``.

    Row-style Hermite normal form: echelon shape with strictly increasing
    pivot columns, positive pivots, and entries above each pivot reduced
    into [0, pivot).  Zero rows are dropped, so the output length is the
    rank.  Two generating sets of the same lattice produce identical output.
    """
    if not rows:
        return []
    m = [list(map(int, r)) for r in rows]
    ncols = len(m[0])
    top = 0
    for col in range(ncols):
        # gcd-reduce all entries in this column at or below `top`
        while True:
            nz = [i for i in range(top, len(m)) if m[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(m[i][col]))
            m[top], m[piv] = m[piv], m[top]
            if m[top][col] < 0:
                m[top] = [-x for x in m[top]]
            done = True
            for i in range(top + 1, len(m)):
                if m[i][col] != 0:
                    q = m[i][col] // m[top][col]
                    m[i] = [m[i][j] - q * m[top][j] for j in range(ncols)]
                    if m[i][col] != 0:
                        done = False
            if done:
                break
        if nz:
            p = m[top][col]
            for i in range(top):
                q = m[i][col] // p
                if q:
                    m[i] = [m[i][j] - q * m[top][j] for j in range(ncols)]
            top += 1
    return m[:top]


# ---------------------------------------------------------------------------
# Smith normal form with transforms
# ---------------------------------------------------------------------------


def snf(mat: list[list[int]]):
    """Smith normal form with transforms.

    Returns (u, d, v) with u @ mat @ v == d, u and v unimodular, and d
    diagonal with nonnegative entries satisfying d[i] | d[i+1].
    """
    a = [list(map(int, row)) for row in mat]
    nrows, ncols = len(a), len(a[0]) if a else 0
    u = identity(nrows)
    v = identity(ncols)

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [a[i][c] - q * a[j][c] for c in range(ncols)]
        u[i] = [u[i][c] - q * u[j][c] for c in range(nrows)]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(nrows):
            a[r][i] -= q * a[r][j]
        for r in range(ncols):
            v[r][i] -= q * v[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(nrows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(ncols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def least_entry(t):  # position of the least nonzero |a_ij| with i, j >= t
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        return pivot

    t = 0
    while t < min(nrows, ncols):
        pivot = least_entry(t)
        if pivot is None:
            break
        while True:
            i, j = pivot
            row_swap(t, i)
            col_swap(t, j)
            if a[t][t] < 0:
                row_negate(t)
            clean = True
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        clean = False
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        clean = False
            if clean:
                # enforce divisibility of the trailing block by the pivot
                offender = None
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                row_op(t, offender, -1)  # fold the offending row into row t
                clean = False
            # re-pick the smallest entry and continue reducing
            pivot = least_entry(t)
        t += 1
    d = [[a[i][j] if i == j else 0 for j in range(ncols)] for i in range(nrows)]
    return u, d, v


# ---------------------------------------------------------------------------
# Rational Gaussian elimination
# ---------------------------------------------------------------------------


def _eliminate(a, ncols) -> list[int]:
    """Reduce the rows ``a`` in place to reduced row echelon form in their
    first ``ncols`` columns; later columns (a right-hand side, an identity
    block) ride along.  Returns the pivot columns, row i pivoting on the
    i-th; rows below the last pivot row are zero in the first ``ncols``."""
    nrows = len(a)
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        if top == nrows:
            break
        piv = next((i for i in range(top, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        inv = 1 / a[top][col]
        a[top] = [x * inv for x in a[top]]
        for i in range(nrows):
            if i != top and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(col)
    return pivots


def frac_rank(m) -> int:
    if not m:
        return 0
    return len(_eliminate([[Fraction(x) for x in row] for row in m], len(m[0])))


def frac_det(m) -> Fraction:
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col] != 0:
                f = a[i][col] * inv
                a[i] = [a[i][j] - f * a[col][j] for j in range(n)]
    return det


def frac_solve(a, b):
    """One solution y of A y = b over the rationals, or None if inconsistent.

    A is m x n (rows), b has length m.  Free variables are set to 0.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in a[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = _eliminate(aug, n)
    if any(aug[i][n] != 0 for i in range(len(pivots), m)):
        return None
    y = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        y[col] = aug[r][n]
    return y


def frac_inv(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(m)]
    if len(_eliminate(a, n)) < n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a]


def lcm_denominators(rows) -> int:
    return math.lcm(*(Fraction(x).denominator for row in rows for x in row))
