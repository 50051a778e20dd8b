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
