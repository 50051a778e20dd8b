"""Independent brute-force oracles.

Everything here is implemented from definitions with its own small linear
algebra, separate from the package internals: no enumeration kernel, no
normal forms, no certificates.  Tests compare engine output against these.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def frac_rank(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        f = a[rank][col]
        a[rank] = [x / f for x in a[rank]]
        for i in range(nrows):
            if i != rank and a[i][col] != 0:
                g = a[i][col]
                a[i] = [a[i][j] - g * a[rank][j] for j in range(ncols)]
        rank += 1
    return rank


def solve(a_rows, b):
    """Any rational solution y of A y = b, or None (free vars set to 0)."""
    m, n = len(a_rows), len(a_rows[0])
    aug = [[Fraction(x) for x in a_rows[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        f = aug[rank][col]
        aug[rank] = [x / f for x in aug[rank]]
        for i in range(m):
            if i != rank and aug[i][col] != 0:
                g = aug[i][col]
                aug[i] = [aug[i][j] - g * aug[rank][j] for j in range(n + 1)]
        pivots.append(col)
        rank += 1
    if any(aug[i][n] != 0 for i in range(rank, m)):
        return None
    y = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        y[col] = aug[r][n]
    return y


def inv(mat):
    n = len(mat)
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        col = solve(mat, e)
        assert col is not None
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def gauge(body_dict, x):
    """Gauge straight from the definition, reading the body's wire form."""
    x = [Fraction(v) for v in x]
    if body_dict["type"] == "box":
        hw = [Fraction(a) for a in body_dict["halfwidths"]]
        return max(abs(xi) / a for xi, a in zip(x, hw))
    best = Fraction(0)
    for row in body_dict["facets"]:
        c = [Fraction(v) for v in row]
        val = abs(sum(ci * xi for ci, xi in zip(c, x)))
        best = max(best, val)
    return best


def support(body_dict, u):
    u = [Fraction(v) for v in u]
    if body_dict["type"] == "box":
        hw = [Fraction(a) for a in body_dict["halfwidths"]]
        return sum(a * abs(ui) for ui, a in zip(u, hw))
    best = None
    for row in body_dict["vertices"]:
        v = [Fraction(q) for q in row]
        val = sum(ui * vi for ui, vi in zip(u, v))
        best = val if best is None else max(best, val)
    return best


def in_lattice(basis_rows, x):
    """Is x an integer combination of the rows?"""
    if not basis_rows:
        return all(Fraction(v) == 0 for v in x)
    bt = [[basis_rows[i][j] for i in range(len(basis_rows))] for j in range(len(x))]
    z = solve(bt, x)
    if z is None:
        return False
    recon = [
        sum(z[i] * basis_rows[i][j] for i in range(len(z))) for j in range(len(x))
    ]
    if [Fraction(v) for v in recon] != [Fraction(v) for v in x]:
        return False
    return all(c.denominator == 1 for c in z)


def contains(basis_rows, sub_rows):
    """Is every row of sub_rows an integer combination of basis_rows?"""
    return all(in_lattice(basis_rows, list(row)) for row in sub_rows)


def _dual_in_span(basis_rows):
    r = len(basis_rows)
    gram = [
        [sum(a * b for a, b in zip(basis_rows[i], basis_rows[j])) for j in range(r)]
        for i in range(r)
    ]
    ginv = inv(gram)
    n = len(basis_rows[0])
    return [
        [sum(ginv[i][k] * basis_rows[k][j] for k in range(r)) for j in range(n)]
        for i in range(r)
    ]


def points_within(body_dict, basis_rows, radius):
    """All nonzero lattice points with gauge <= radius, by direct loops."""
    radius = Fraction(radius)
    r = len(basis_rows)
    duals = _dual_in_span(basis_rows)
    limits = [math.floor(radius * support(body_dict, d)) for d in duals]
    n = len(basis_rows[0])
    out = []
    for z in itertools.product(*(range(-m, m + 1) for m in limits)):
        if not any(z):
            continue
        x = [
            sum(Fraction(z[i]) * basis_rows[i][j] for i in range(r)) for j in range(n)
        ]
        g = gauge(body_dict, x)
        if g <= radius:
            out.append((tuple(x), g))
    return out


def brute_minima(body_dict, basis_rows, forbidden_bases, k):
    """Restricted successive minima by doubling the gauge radius.

    forbidden_bases: list of row bases (ambient coordinates); a point is
    admissible when it lies in none of them.  Returns the k values.
    """
    start = min(gauge(body_dict, row) for row in basis_rows)
    radius = start
    while True:
        pts = points_within(body_dict, basis_rows, radius)
        pts = [
            (x, g)
            for x, g in pts
            if not any(in_lattice(fb, list(x)) for fb in forbidden_bases)
        ]
        pts.sort(key=lambda p: (p[1], p[0]))
        chosen = []
        values = []
        for x, g in pts:
            if frac_rank(chosen + [list(x)]) == len(chosen) + 1:
                chosen.append(list(x))
                values.append(g)
                if len(values) == k:
                    break
        if len(values) == k and values[-1] <= radius:
            return tuple(values)
        radius *= 2


def point_sort_key(vector, gauge):
    """The order the engine lists points in and takes minima in: gauge, then
    componentwise absolute values, then a sign pattern preferring
    nonnegative entries."""
    return (
        gauge,
        tuple(abs(x) for x in vector),
        tuple(0 if x >= 0 else 1 for x in vector),
    )


def brute_count(body_dict, basis_rows, lam):
    return len(points_within(body_dict, basis_rows, lam)) + 1


def min_sup_norm_in_kernel(a_rows, search: int = 6):
    """Shortest sup-norm nonzero integer kernel vector by direct search.

    Searches integer vectors with entries in [-search, search]; callers pick
    matrices small enough for that to be exhaustive at the optimum.
    """
    m, n = len(a_rows), len(a_rows[0])
    best = None
    for z in itertools.product(range(-search, search + 1), repeat=n):
        if not any(z):
            continue
        if all(sum(a_rows[i][j] * z[j] for j in range(n)) == 0 for i in range(m)):
            norm = max(abs(v) for v in z)
            if best is None or norm < best:
                best = norm
    return best


def det(rows):
    """Determinant by the Leibniz formula."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(Fraction(rows[i][perm[i]]) for i in range(n))
    return total


def dual_basis(rows):
    """Rows of B^-T for a square nonsingular B: the dual basis of the rows."""
    inverse = inv(rows)
    n = len(rows)
    return [[inverse[i][j] for i in range(n)] for j in range(n)]


def spans_cover_by_cosets(bases):
    """Whether integer lattices of full rank r, each given by r integer rows,
    cover Z^r, decided coset by coset.

    A lattice B with d = |det B| contains d Z^r, as d B^-1 is integral, so
    every lattice contains N Z^r for N the lcm of the d's, and each coset of
    N Z^r lies inside a lattice or meets none.  One representative per
    coset, the box [0, N)^r, decides the union; they are streamed, and the
    test stops at the first one no lattice contains.  z = c B with c
    integral iff z adj(B) = 0 mod det B, with adj(B) = det B * B^-1.
    """
    tests = []
    for rows in bases:
        d = int(det(rows))
        tests.append(([[int(x * d) for x in row] for row in inv(rows)], abs(d)))
    n = math.lcm(*(d for _, d in tests))
    r = len(bases[0])
    return all(
        any(all(sum(z[i] * adj[i][j] for i in range(r)) % d == 0 for j in range(r))
            for adj, d in tests)
        for z in itertools.product(range(n), repeat=r)
    )
