"""Exact lattices over the rationals.

A Lattice is stored in integer Hermite form: the Hermite normal form H of
the scaled basis and the least d with basis == H / d, so two descriptions
of the same lattice compare equal.  Rows of ints go to the Hermite form as
they are, and the Fraction basis H / d is built on first read.  Rank, det,
coordinates and membership come from H by pivot-by-pivot substitution, and
the rest from (H, d) too: indices, cosets, kernels, saturations and
intersections from Hermite forms, det^2 and minors from determinants of H,
and dual rows as integers over one denominator from one fraction-free
elimination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _intmat as im
from ._intmat import dot, hnf
from .errors import CertificateError, InputError, NotSublatticeError, RankError
from .exactarith import format_rational, parse_array

__all__ = [
    "Lattice",
    "MinorVector",
    "hnf",
    "intersect",
    "kernel_lattice",
    "m_value",
    "minors_vector",
    "saturate_rows",
    "union_covers",
]


class Lattice:
    """Free Z-module of rank r <= n given by r independent rational rows."""

    __slots__ = ("ambient_dim", "rank", "_basis", "_hermite", "_denom", "_pivots",
                 "_det_squared", "_dual_rows", "_hash")

    def __init__(self, basis, ambient_dim: int | None = None):
        rows, d = _integer_rows(basis)
        self._set_rows(rows, d, _ambient_dim(rows, ambient_dim))

    def _set_rows(self, rows, d, ambient_dim):
        """Set from independent integer rows with basis == rows / d, d least."""
        if len(rows) > ambient_dim:
            raise RankError("more basis rows than the ambient dimension")
        h = hnf(rows)
        if len(h) != len(rows):
            raise RankError("basis rows are linearly dependent")
        self.ambient_dim = ambient_dim
        self.rank = len(h)
        self._basis = None
        self._hermite = tuple(tuple(row) for row in h)
        self._denom = d
        self._pivots = tuple(next(j for j, x in enumerate(row) if x) for row in h)
        self._det_squared = None
        self._dual_rows = None
        # (H, d) determines basis == H / d and is unique per lattice, so
        # this agrees with comparing bases, without hashing Fractions
        self._hash = hash((ambient_dim, d, self._hermite))

    @property
    def basis(self) -> tuple:
        """The basis H / d as tuples of Fractions, built on first read."""
        if self._basis is None:
            d = self._denom
            self._basis = tuple(tuple(Fraction(x, d) for x in row) for row in self._hermite)
        return self._basis

    # -- constructors -------------------------------------------------

    @staticmethod
    def _over(rows, denom: int, ambient_dim: int) -> "Lattice":
        """Lattice with basis rows / denom for independent integer rows; the
        gcd of denom and every entry cancels, which leaves d least."""
        g = math.gcd(denom, *itertools.chain.from_iterable(rows))
        lat = Lattice.__new__(Lattice)
        lat._set_rows([[x // g for x in row] for row in rows], denom // g, ambient_dim)
        return lat

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(im.identity(n), n)

    @staticmethod
    def from_diagonal(diag) -> "Lattice":
        diag = list(diag)
        n = len(diag)
        return Lattice([[x if i == j else 0 for j in range(n)] for i, x in enumerate(diag)], n)

    # -- basic queries ------------------------------------------------

    @property
    def det_squared(self) -> Fraction:
        """Gram determinant of the basis (basis independent)."""
        if self._det_squared is None:
            h = self._hermite
            gram = [[dot(hi, hj) for hj in h] for hi in h]
            self._det_squared = im.frac_det(gram) / self._denom ** (2 * self.rank)
        return self._det_squared

    def det(self) -> Fraction:
        """Exact determinant; full-rank lattices only (rational there)."""
        if self.rank != self.ambient_dim:
            raise RankError("exact det is rational only at full rank")
        pivots = math.prod(row[i] for i, row in enumerate(self._hermite))  # triangular H
        return Fraction(pivots, self._denom**self.rank)

    def _solve(self, w):
        """Integer z with z . H = w, or None: solved pivot by pivot, each
        pivot a divmod whose remainder means None, so integer w never
        becomes a Fraction."""
        z = []
        for row, p in zip(self._hermite, self._pivots):
            c, rem = divmod(w[p], row[p])
            if rem:
                return None
            if c:
                w = [a - c * b for a, b in zip(w, row)]
            z.append(c)
        return None if any(w) else z

    def member(self, x) -> bool:
        """Whether the rational vector x is a point of the lattice, that is
        whether d x solves in integers; the campaign's
        ``witnesses-admissible`` check tests witnesses with it, apart from
        the forbidden collections' own membership vectors."""
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        d = self._denom
        w = [d * (v if isinstance(v, int) else Fraction(v)) for v in x]
        return self._solve(w) is not None

    def in_coords(self, sub: "Lattice") -> "Lattice":
        """A sublattice in this lattice's coordinates, as an integer lattice
        in Z^rank: with sub's basis H' / d', row i solves z . H = d H'_i / d'
        in integers."""
        if sub.ambient_dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
        d, d_sub = self._denom, sub._denom
        rows = []
        for row in sub._hermite:
            w = [d * x for x in row]
            if d_sub > 1:
                if any(v % d_sub for v in w):
                    raise NotSublatticeError("not a sublattice")
                w = [v // d_sub for v in w]
            z = self._solve(w)
            if z is None:
                raise NotSublatticeError("not a sublattice")
            rows.append(z)
        return Lattice(rows, self.rank)

    def index_in(self, super_lattice: "Lattice") -> int:
        """Group index [super : self] for equal-rank nested lattices: the
        product of the Hermite diagonal of self in super's coordinates."""
        span = super_lattice.in_coords(self)
        if span.rank != super_lattice.rank:
            raise RankError("index needs equal ranks")
        return math.prod(row[i] for i, row in enumerate(span._hermite))

    # -- duality ------------------------------------------------------

    def dual_in_span(self) -> tuple:
        """(D, m): integer rows over m > 0 whose d_i = D_i / m lie in
        lin(self) with <d_i, b_j> = delta_ij, at any rank; they bound the
        enumeration box.  As basis = H / d they are the rows of G^-1 d H for
        G = H H^T, and one fraction-free elimination takes [G | d H] to
        [m I | D] with m = det G: G is positive definite, so its pivots are
        its leading minors, all positive, and no row is swapped."""
        if self._dual_rows is None:
            h, d, r = self._hermite, self._denom, self.rank
            a = [[dot(hi, hj) for hj in h] + [d * x for x in hi] for hi in h]
            _, m = im._reduce(a, r)
            self._dual_rows = ([row[r:] for row in a], m)
        return self._dual_rows

    # -- serialization / identity --------------------------------------

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "basis": [[format_rational(x) for x in row] for row in self.basis],
        }

    @staticmethod
    def from_dict(d: dict) -> "Lattice":
        return Lattice(parse_array(d["basis"], parse_array), d["ambient_dim"])

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_dim == other.ambient_dim
            and self._denom == other._denom
            and self._hermite == other._hermite
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        rows = ", ".join(
            "(" + ", ".join(format_rational(x) for x in row) + ")" for row in self.basis
        )
        return f"Lattice(dim={self.ambient_dim}, basis=[{rows}])"


def _ambient_dim(rows, ambient_dim):
    if ambient_dim is None:
        if not rows:
            raise ValueError("ambient_dim required for the zero lattice")
        ambient_dim = len(rows[0])
    if any(len(row) != ambient_dim for row in rows):
        raise ValueError("basis rows of mixed dimension")
    return ambient_dim


def _integer_rows(basis):
    """(rows, d): integer rows and the lcm d of the entries' denominators,
    with basis == rows / d, so d is least with d * basis integral.  Rows of
    ints pass as they are, with d = 1; other entries go through Fraction."""
    rows = [list(row) for row in basis]
    if all(type(x) is int for row in rows for x in row):
        return rows, 1
    return im.clear_denominators([[Fraction(x) for x in row] for row in rows])


# ---------------------------------------------------------------------------
# Intersections, cosets, covering, m-values
# ---------------------------------------------------------------------------


def intersect(lattices, within: Lattice | None = None) -> Lattice:
    """Intersection of full-rank lattices: with the members scaled to one
    denominator D, integer lattices uA and vB meet in the uA for (u, v) in
    the integer left kernel of [A; -B].

    When ``within`` is given, the determinant sandwich
    max det L_i <= det L <= det(within)^(1-s) * prod det L_i is verified.
    """
    lattices = list(lattices)
    if not lattices:
        raise ValueError("need at least one lattice")
    n = lattices[0].ambient_dim
    for lat in lattices:
        if lat.ambient_dim != n or lat.rank != n:
            raise RankError("intersection needs full-rank lattices in one space")
    denom = math.lcm(*(lat._denom for lat in lattices))
    a, *rest = ([[x * (denom // lat._denom) for x in row] for row in lat._hermite]
                for lat in lattices)
    for b in rest:
        kernel = _kernel_rows(im.transpose(a + [[-x for x in row] for row in b]), 2 * n)
        a = [im.vec_mat(z[:n], a) for z in kernel]  # reduced by the next kernel or _over
    result = Lattice._over(a, denom, n)
    if within is not None:
        s = len(lattices)
        d_res = result.det()
        d_sup = within.det()
        dets = [l.det() for l in lattices]
        if max(dets) > d_res or d_res * d_sup ** (s - 1) > math.prod(dets):
            raise CertificateError("intersection determinant outside its proved range")
    return result


def m_value(lat: Lattice, sublattices) -> Fraction:
    """sum_i det(L_bar)/det(L_i) - s + 1 for L_bar the intersection."""
    subs = list(sublattices)
    m, _ = _m_sum(intersect(subs), subs)
    return m


def _m_sum(inter: Lattice, sublattices):
    """(m, indices): the indices [L_i : inter], a tuple, and
    m = sum of them - s + 1."""
    indices = tuple(inter.index_in(sub) for sub in sublattices)
    return Fraction(1 - len(indices)) + sum(indices), indices


def _coset_label(z, span: Lattice) -> tuple:
    """The representative of z modulo a full-rank integer span: with H its
    upper triangular Hermite form, row i clears w_i down to [0, H_ii)
    without touching the columns before it."""
    w = list(z)
    for i, row in enumerate(span._hermite):
        q = w[i] // row[i]
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return tuple(w)


def _membership(span: Lattice):
    """(zero, mod, m) with z in Z^r a point of the integer span iff z . c = 0
    for each row c of zero and z . a = 0 mod m for each row a of mod.  The
    rows of zero are a basis of the integer vectors orthogonal to the span
    (``_kernel_rows``), so they decide the rational span; there
    z = c H with c = z_P H_P^-1 read off the pivot columns P of the Hermite
    form, and c is integral iff z_P adj(H_P) is 0 mod m = det H_P, the
    product of the pivots.  H_P is upper triangular, so its adjugate
    X = m H_P^-1 comes from back substitution, whose divisions are exact as
    X is integral; column j of X, mod m and spread over the pivot columns,
    is a row of mod, and a zero row is dropped."""
    h, pivots, r = span._hermite, span._pivots, span.ambient_dim
    hp = [[row[p] for p in pivots] for row in h]
    s = len(hp)
    m = math.prod(hp[i][i] for i in range(s))
    mod = []
    for j in range(s):
        x = [0] * s
        for i in reversed(range(s)):
            x[i] = ((m if i == j else 0) - dot(hp[i][i + 1:], x[i + 1:])) // hp[i][i]
        a = [0] * r
        for p, v in zip(pivots, x):
            a[p] = v % m
        if any(a):
            mod.append(a)
    return _kernel_rows(h, r), mod, m


def union_covers(lat: Lattice, sublattices) -> bool:
    """Exact test of whether the union of full-rank sublattices is the
    lattice, decided in its coordinates by ``_spans_cover``, at any rank."""
    return _spans_cover([lat.in_coords(sub) for sub in sublattices])


# The most distinct intersections ``_spans_cover`` keeps.  A fold at the
# limit makes that many intersections: about 45 ms in Z^2 and 70 ms in Z^3
# on a shared 2-core VM, so s members cost at most s folds.
_MAX_TERMS = 1024


def _spans_cover(spans) -> bool:
    """Whether full-rank integer spans L_i in Z^r cover Z^r (an empty list
    does not), decided by inclusion-exclusion.  Each L_i contains their
    intersection Lbar, so the union is a union of subgroups of the finite
    group G = Z^r / Lbar.  With L_S the intersection of the L_i for i in S,
    the union's indicator 1 - prod_i (1 - 1_(L_i)) is
    sum_S (-1)^(|S|+1) 1_(L_S), as a product of indicators is the indicator
    of the intersection; summed over G and divided by |G|, the union's share
    of G is sum_S (-1)^(|S|+1) / [Z^r : L_S], which is 1 exactly when the
    spans cover.  Equal L_S add their signed counts, and the product is
    folded in one span at a time, so the work grows with the number of
    distinct L_S, not with the index: no coset is listed.
    """
    terms = {}  # distinct L_S -> its signed count, never 0
    for span in dict.fromkeys(spans):
        folded = dict(terms)
        folded[span] = folded.get(span, 0) + 1
        for lat, c in terms.items():
            meet = intersect([lat, span])
            folded[meet] = folded.get(meet, 0) - c
        terms = {lat: c for lat, c in folded.items() if c}
        if len(terms) > _MAX_TERMS:
            raise InputError(f"the cover needs more than {_MAX_TERMS} distinct intersections")
    return sum(Fraction(c) / lat.det() for lat, c in terms.items()) == 1


# ---------------------------------------------------------------------------
# Kernels, minors, saturation
# ---------------------------------------------------------------------------


def _kernel_rows(rows, n: int) -> list[list[int]]:
    """Basis of the integer kernel {z in Z^n : rows . z = 0}.

    The Hermite form of the n rows [column j of rows | e_j] spans
    {(z . rows^T, z) : z in Z^n}; being echelon, its rows that vanish on the
    left block form a basis of the vectors (0, z), and their right-hand
    parts are the kernel.
    """
    m = len(rows)
    h = hnf([[row[j] for row in rows] + [int(i == j) for i in range(n)]
             for j in range(n)])
    return [r[m:] for r in h if not any(r[:m])]


def kernel_lattice(a: list[list[int]]) -> Lattice:
    """Integer kernel {z in Z^n : A z = 0} of a full-row-rank integer matrix."""
    return _kernel_and_gram_det(a)[0]


def _kernel_and_gram_det(a):
    """(kernel_lattice(a), det(A A^T)): the kernel and the determinant its
    det^2 is checked against."""
    rows = [[int(x) for x in row] for row in a]
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise InputError("matrix is empty or ragged")
    m, n = len(rows), len(rows[0])
    kernel_rows = _kernel_rows(rows, n)
    if len(kernel_rows) != n - m:
        raise RankError("matrix must have full row rank")
    lat = Lattice(kernel_rows, n)
    gram_det = im.frac_det(im.mat_mul(rows, im.transpose(rows)))
    if lat.det_squared > gram_det:
        raise CertificateError("kernel determinant exceeds det(A A^T)")
    return lat, gram_det


@dataclass(frozen=True)
class MinorVector:
    """All r x r minors of a rank-r basis matrix, in lexicographic column order."""

    entries: tuple
    max_abs: Fraction


def minors_vector(lat: Lattice) -> MinorVector:
    if lat.rank < 1:
        raise RankError("minors need rank >= 1")
    scale = lat._denom**lat.rank  # the minors of H / d are those of H over d^r
    entries = []
    for cols in itertools.combinations(range(lat.ambient_dim), lat.rank):
        sub = [[row[c] for c in cols] for row in lat._hermite]
        entries.append(im.frac_det(sub) / scale)
    return MinorVector(tuple(entries), max(abs(e) for e in entries))


def saturate_rows(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the saturation {z in Z^n : z in Q-rowspan(rows)}.

    That is the integer kernel of the integer kernel of the rows: the
    integer vectors orthogonal to every z with rows . z = 0.
    """
    rows = [[int(x) for x in row] for row in rows]
    if not rows:
        return []
    n = len(rows[0])
    return _kernel_rows(_kernel_rows(rows, n), n)

