"""Exact matrix routines for the lattice layer.

Matrices are row-major lists of lists over Python ints or Fractions, with
one normal form (``hnf``) and one elimination (``_reduce``, fraction-free
Gauss-Jordan on integer rows), which gives rank, solutions, determinants
and duals.  Rational input is scaled to integers first
(``clear_denominators``).  Dimensions are tiny here (ambient dimension
<= ~8), so the implementations favor clarity and exactness over
asymptotics.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


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
# Fraction-free Gauss-Jordan elimination
# ---------------------------------------------------------------------------


def _reduce(a, ncols):
    """(pivots, delta): fraction-free Gauss-Jordan elimination (Bareiss,
    Math. Comp. 1968) of the integer rows ``a`` in place, in their first
    ``ncols`` columns; later columns ride along as right-hand sides.  Row i
    pivots on the i-th pivot column, and ``a`` ends as p times its reduced
    row echelon form, p the last pivot.  Every entry stays a minor of the
    input, so each division by the previous pivot is exact.  delta is p
    times the sign of the row swaps: det a when a is square and nonsingular.
    """
    nrows = len(a)
    pivots = []
    sign, prev = 1, 1
    for col in range(ncols):
        top = len(pivots)
        if top == nrows:
            break
        piv = next((i for i in range(top, nrows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != top:
            a[top], a[piv] = a[piv], a[top]
            sign = -sign
        row, p = a[top], a[top][col]
        for i in range(nrows):
            if i != top:
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
        pivots.append(col)
    return pivots, sign * prev


def frac_rank(m) -> int:
    if not m:
        return 0
    a, _ = clear_denominators(m)
    return len(_reduce(a, len(m[0]))[0])


def frac_det(m) -> Fraction:
    """det m = det(l m) / l^n, with l the lcm of the denominators of m."""
    n = len(m)
    a, scale = clear_denominators(m)
    pivots, delta = _reduce(a, n)
    return Fraction(delta if len(pivots) == n else 0, scale**n)


def lcm_denominators(rows) -> int:
    return math.lcm(*(x.denominator for row in rows for x in row))


def clear_denominators(rows):
    """(R, l): integer rows R and the lcm l of the entries' denominators,
    with rows == R / l; no Fraction is made."""
    l = lcm_denominators(rows)
    return [[x.numerator * (l // x.denominator) for x in row] for row in rows], l

