"""Independent computations the benchmark checks the program against.

Restricted minima, gauges, lattice membership and ranks come from the
repository's brute-force test oracles, ``tests/oracles.py``, loaded here as
``brute``.  This file adds what those lack: kernel bases, Hermite forms,
walk box sizes, a kernel-vector search and closed-form point counts.  Both
are written from definitions with their own small integer and rational
linear algebra.  Neither imports the program, so a fault in the program's
enumeration, normal forms or certificates cannot hide itself.
"""

from __future__ import annotations

import importlib.util
import math
from fractions import Fraction
from pathlib import Path


def _load_brute():
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    if not path.is_file():
        raise SystemExit(f"error: no test oracles at {path}")
    spec = importlib.util.spec_from_file_location("latmin_brute_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


brute = _load_brute()


# ---------------------------------------------------------------------------
# integer and rational linear algebra
# ---------------------------------------------------------------------------


def row_hnf(rows):
    """Row-style Hermite normal form: increasing pivot columns, positive
    pivots, entries above a pivot reduced into [0, pivot), zero rows dropped.
    The form is unique, so two bases of one lattice give the same rows."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    top = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(top, len(m)) if m[i][col]]
            if len(nz) <= 1:
                break
            piv = min(nz, key=lambda i: abs(m[i][col]))
            for i in nz:
                if i != piv:
                    q = m[i][col] // m[piv][col]
                    m[i] = [x - q * y for x, y in zip(m[i], m[piv])]
        if not nz:
            continue
        m[top], m[nz[0]] = m[nz[0]], m[top]
        if m[top][col] < 0:
            m[top] = [-x for x in m[top]]
        p = m[top][col]
        for i in range(top):
            q = m[i][col] // p
            m[i] = [x - q * y for x, y in zip(m[i], m[top])]
        top += 1
    return m[:top]


def integer_kernel(a):
    """A basis of {z in Z^n : a . z = 0} for one integer row a, by
    unimodular column operations that bring a to (g, 0, ..., 0)."""
    n = len(a)
    v = list(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]  # columns of U
    while sum(1 for x in v if x) > 1:
        piv = min((i for i in range(n) if v[i]), key=lambda i: abs(v[i]))
        for i in range(n):
            if i != piv and v[i]:
                q = v[i] // v[piv]
                v[i] -= q * v[piv]
                u[i] = [x - q * y for x, y in zip(u[i], u[piv])]
    return [u[i] for i in range(n) if not v[i]]


def determinant(m):
    """Laplace expansion; exact for integer or rational entries."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * determinant([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def adjugate(m):
    n = len(m)
    if n == 1:
        return [[1]]
    return [
        [(-1) ** (i + j) * determinant([row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
         for j in range(n)]
        for i in range(n)
    ]


def _dual_numerators(basis):
    """(N, det) with adj(G) B = N for the Gram matrix G = B B^T, so that the
    dual rows in the span are N / det."""
    gram = [[sum(x * y for x, y in zip(bi, bj)) for bj in basis] for bi in basis]
    adj = adjugate(gram)
    num = [[sum(adj[i][k] * basis[k][j] for k in range(len(basis))) for j in range(len(basis[0]))]
           for i in range(len(basis))]
    return num, determinant(gram)


def walk_box_size(basis, halfwidths, radius):
    """Points in the coordinate box of this basis that covers radius * box:
    prod(2 floor(radius * support(d_i)) + 1).  Pass the Hermite basis to get
    the box the program's walk covers."""
    num, det = _dual_numerators(basis)
    total = 1
    for row in num:
        support = sum(a * abs(x) for a, x in zip(halfwidths, row))
        total *= 2 * math.floor(Fraction(radius) * support / det) + 1
    return total


# ---------------------------------------------------------------------------
# kernel vectors
# ---------------------------------------------------------------------------


def has_kernel_vector_within(a, r):
    """Is there a nonzero integer z with |z_i| <= r and a . z = 0?

    Loops over all coordinates but the one with the largest |a_j| and solves
    for that one exactly."""
    if r < 1:
        return False
    n = len(a)
    last = max(range(n), key=lambda j: abs(a[j]))
    others = [j for j in range(n) if j != last]

    def rec(idx, partial, nonzero):
        if idx == len(others):
            if partial % a[last]:
                return False
            zl = -partial // a[last]
            return abs(zl) <= r and (nonzero or zl != 0)
        aj = a[others[idx]]
        return any(rec(idx + 1, partial + aj * z, nonzero or z != 0) for z in range(-r, r + 1))

    return rec(0, 0, False)


# ---------------------------------------------------------------------------
# point counts
# ---------------------------------------------------------------------------


def count_diagonal(halfwidths, diag, lam):
    """|lam * box intersect diag(d) Z^n|, origin included."""
    total = 1
    for a, d in zip(halfwidths, diag):
        total *= 2 * math.floor(Fraction(lam) * Fraction(a) / d) + 1
    return total


def count_lower_triangular(rows, halfwidths, lam):
    """|lam * box intersect L| for a lattice with lower-triangular integer
    basis rows (row i nonzero only in columns <= i, positive diagonal).

    Coordinates z_{n-1}, ..., z_1 are looped over from the last one, which
    alone fixes x_{n-1}; the count of z_0 for each choice is a closed form."""
    n = len(rows)
    lim = [Fraction(lam) * Fraction(a) for a in halfwidths]

    def rec(i, x):  # x: partial point from the coordinates i+1 .. n-1
        d = rows[i][i]
        if i == 0:
            lo = math.ceil((-lim[0] - x[0]) / d)
            hi = math.floor((lim[0] - x[0]) / d)
            return max(0, hi - lo + 1)
        lo = math.ceil((-lim[i] - x[i]) / d)
        hi = math.floor((lim[i] - x[i]) / d)
        total = 0
        for z in range(lo, hi + 1):
            total += rec(i - 1, [xj + z * bj for xj, bj in zip(x, rows[i])])
        return total

    return rec(n - 1, [0] * n)
