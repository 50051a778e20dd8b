"""Exact lattices over the rationals.

A Lattice is stored in integer Hermite form: the Hermite normal form H of
the scaled basis and the least d with basis == H / d, so two descriptions
of the same lattice compare equal.  Rank, det, coordinates and membership
come from H by pivot-by-pivot substitution.  Coset systems, integer kernels
and saturations come from Hermite forms too, and duals and intersections
are exact as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _intmat as im
from ._intmat import dot, hnf
from .errors import CertificateError, IndexOverflowError, NotSublatticeError, RankError
from .exactarith import format_rational, parse_rational

__all__ = [
    "CosetSystem",
    "DEFAULT_INDEX_CAP",
    "Lattice",
    "MinorVector",
    "coset_system",
    "extend_to_full_rank",
    "hnf",
    "intersect",
    "kernel_lattice",
    "m_value",
    "minors_vector",
    "saturate_rows",
    "union_covers",
]

DEFAULT_INDEX_CAP = 10**6


class Lattice:
    """Free Z-module of rank r <= n given by r independent rational rows."""

    __slots__ = ("ambient_dim", "rank", "basis", "_hermite", "_denom", "_pivots",
                 "_det_squared", "_dual_rows")

    def __init__(self, basis, ambient_dim: int | None = None):
        rows = [[Fraction(x) for x in row] for row in basis]
        ambient_dim = _ambient_dim(rows, ambient_dim)
        if len(rows) > ambient_dim:
            raise RankError("more basis rows than the ambient dimension")
        h, d = _hermite(rows)
        if len(h) != len(rows):
            raise RankError("basis rows are linearly dependent")
        self._set_hermite(h, d, ambient_dim)

    def _set_hermite(self, h, d, ambient_dim):
        self.ambient_dim = ambient_dim
        self.rank = len(h)
        self.basis = tuple(tuple(Fraction(x, d) for x in row) for row in h)
        self._hermite = tuple(tuple(row) for row in h)
        self._denom = d
        self._pivots = tuple(next(j for j, x in enumerate(row) if x) for row in h)
        self._det_squared = None
        self._dual_rows = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_generators(rows, ambient_dim: int | None = None) -> "Lattice":
        """Lattice generated by arbitrarily many (possibly dependent) rows."""
        rows = [[Fraction(x) for x in row] for row in rows]
        ambient_dim = _ambient_dim(rows, ambient_dim)
        lat = Lattice.__new__(Lattice)
        lat._set_hermite(*_hermite(rows), ambient_dim)
        return lat

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(im.identity(n, Fraction(1)), n)

    @staticmethod
    def from_diagonal(diag) -> "Lattice":
        diag = [Fraction(d) for d in diag]
        n = len(diag)
        rows = [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        return Lattice(rows, n)

    # -- basic queries ------------------------------------------------

    @property
    def det_squared(self) -> Fraction:
        """Gram determinant of the basis (basis independent)."""
        if self._det_squared is None:
            gram = [
                [dot(bi, bj) for bj in self.basis] for bi in self.basis
            ]
            self._det_squared = im.frac_det(gram)
        return self._det_squared

    def det(self) -> Fraction:
        """Exact determinant; full-rank lattices only (rational there)."""
        if self.rank != self.ambient_dim:
            raise RankError("exact det is rational only at full rank")
        pivots = math.prod(row[i] for i, row in enumerate(self._hermite))  # triangular H
        return Fraction(pivots, self._denom**self.rank)

    def _coords(self, x, integral: bool):
        """z with z . basis = x, or None: solves z . H = d x pivot by pivot.

        With ``integral`` each pivot is a divmod and a remainder means None,
        so integer x never becomes a Fraction; otherwise z is rational.
        """
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        w = [self._denom * (v if isinstance(v, int) else Fraction(v)) for v in x]
        z = []
        for row, p in zip(self._hermite, self._pivots):
            if integral:
                c, rem = divmod(w[p], row[p])
                if rem:
                    return None
            else:
                c = Fraction(w[p], row[p])
            if c:
                w = [a - c * b for a, b in zip(w, row)]
            z.append(c)
        return None if any(w) else z

    def coeffs_of(self, x):
        """Coordinates z with z . basis = x, or None if x is off the span."""
        return self._coords(x, integral=False)

    def member(self, x) -> bool:
        return self._coords(x, integral=True) is not None

    def contains_lattice(self, other: "Lattice") -> bool:
        return other.ambient_dim == self.ambient_dim and all(
            self.member(row) for row in other.basis
        )

    def coeff_matrix(self, sub: "Lattice") -> list[list[int]]:
        """Integer coordinates of a sublattice basis in this basis."""
        rows = [self._coords(b, integral=True) for b in sub.basis]
        if any(z is None for z in rows):
            raise NotSublatticeError("not a sublattice")
        return rows

    def index_in(self, super_lattice: "Lattice") -> int:
        """Group index [super : self] for equal-rank nested lattices."""
        m = super_lattice.coeff_matrix(self)
        if len(m) != super_lattice.rank:
            raise RankError("index needs equal ranks")
        idx = abs(im.frac_det(m))
        if idx.denominator != 1 or idx == 0:
            raise CertificateError(f"sublattice index {idx} is not a positive integer")
        return int(idx)

    def scale(self, mu) -> "Lattice":
        mu = Fraction(mu)
        if mu <= 0:
            raise ValueError("scale must be positive")
        return Lattice([[mu * x for x in row] for row in self.basis], self.ambient_dim)

    # -- duality ------------------------------------------------------

    def dual(self) -> "Lattice":
        """Dual lattice; defined here for full-rank lattices only."""
        if self.rank != self.ambient_dim:
            raise RankError("dual implemented for full-rank lattices")
        # at full rank G^-1 B == B^-T, so the dual basis is dual_in_span()
        return Lattice(self.dual_in_span(), self.ambient_dim)

    def dual_in_span(self) -> list[list[Fraction]]:
        """Vectors d_i in lin(self) with <d_i, b_j> = delta_ij.

        Used for enumeration coordinate bounds; works at any rank.
        """
        if self._dual_rows is None:
            b = [list(r) for r in self.basis]
            gram = [[dot(bi, bj) for bj in b] for bi in b]
            self._dual_rows = im.mat_mul(im.frac_inv(gram), b) if b else []
        return self._dual_rows

    # -- serialization / identity --------------------------------------

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "basis": [[format_rational(x) for x in row] for row in self.basis],
        }

    @staticmethod
    def from_dict(d: dict) -> "Lattice":
        return Lattice(
            [[parse_rational(x) for x in row] for row in d["basis"]],
            d["ambient_dim"],
        )

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient_dim == other.ambient_dim
            and self._denom == other._denom
            and self._hermite == other._hermite
        )

    def __hash__(self):
        # (H, d) determines basis == H / d and is unique per lattice, so
        # this agrees with comparing bases, without hashing Fractions
        return hash((self.ambient_dim, self._denom, self._hermite))

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


def _hermite(rows):
    """(H, d): d is the lcm of the rows' denominators, H the Hermite form of
    d * rows.  Both span one lattice, so d is least with d * basis integral."""
    d = im.lcm_denominators(rows)
    return im.hnf([[int(x * d) for x in row] for row in rows]), d


# ---------------------------------------------------------------------------
# Coset systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetSystem:
    """Representatives of lattice / sublattice for a full-rank sublattice."""

    lattice: Lattice
    sublattice: Lattice
    representatives: tuple
    index: int
    _span: Lattice  # the sublattice in lattice coordinates (integer, d = 1)

    def label_of_coords(self, z) -> tuple:
        """Coset label of a lattice point given by its coordinates: the
        coordinates of its coset's representative."""
        return _coset_label(z, self._span)

    def label_of(self, x) -> tuple:
        z = self.lattice._coords(x, integral=True)
        if z is None:
            raise NotSublatticeError("point is not in the lattice")
        return self.label_of_coords(z)


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


def _coset_coords(lat: Lattice, sub: Lattice, index_cap: int):
    """(coords, span): an iterator over the lattice coordinates of one
    representative per coset of lat modulo the full-rank sublattice sub, and
    sub in lattice coordinates.  The representatives are the box
    0 <= z_i < H_ii of the span's Hermite form H, so the index is the
    product of its diagonal."""
    if sub.rank != lat.rank:
        raise NotSublatticeError("sublattice must have full rank in the lattice")
    span = Lattice(lat.coeff_matrix(sub), lat.rank)
    diag = [row[i] for i, row in enumerate(span._hermite)]
    index = math.prod(diag)
    if index > index_cap:
        raise IndexOverflowError(f"index {index} exceeds cap {index_cap}")
    return itertools.product(*(range(h) for h in diag)), span


def coset_system(
    lat: Lattice, sub: Lattice, index_cap: int = DEFAULT_INDEX_CAP
) -> CosetSystem:
    """All coset representatives of lat modulo a full-rank sublattice."""
    coords, span = _coset_coords(lat, sub, index_cap)
    reps = tuple(tuple(im.vec_mat(z, lat.basis)) for z in coords)
    return CosetSystem(
        lattice=lat,
        sublattice=sub,
        representatives=reps,
        index=len(reps),
        _span=span,
    )


# ---------------------------------------------------------------------------
# Intersections, covering, m-values
# ---------------------------------------------------------------------------


def intersect(lattices, within: Lattice | None = None) -> Lattice:
    """Intersection of full-rank lattices, via duals: (A ^ B)* = A* + B*.

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
    if len(lattices) == 1:
        result = lattices[0]
    else:
        dual_rows = []
        for lat in lattices:
            dual_rows.extend(list(r) for r in lat.dual().basis)
        result = Lattice.from_generators(dual_rows, n).dual()
    if within is not None:
        s = len(lattices)
        d_res = result.det()
        d_sup = within.det()
        dets = [l.det() for l in lattices]
        if max(dets) > d_res or d_res * d_sup ** (s - 1) > math.prod(dets):
            raise CertificateError("intersection determinant outside its proved range")
    return result


def m_value(lat: Lattice, sublattices, capped: bool = False) -> Fraction:
    """sum_i det(L_bar)/det(L_i) - s + 1 for L_bar the intersection.

    With ``capped`` the value is clamped at det(L_bar)/det(lat), the total
    number of cosets.
    """
    subs = list(sublattices)
    inter = intersect(subs)
    m, _ = _m_sum(inter, subs)
    if capped:
        m = min(m, Fraction(inter.index_in(lat)))
    return m


def _m_sum(inter: Lattice, sublattices):
    """(m, indices): the indices [L_i : inter] and m = sum of them - s + 1."""
    indices = [inter.index_in(sub) for sub in sublattices]
    return Fraction(1 - len(indices)) + sum(indices), indices


def union_covers(
    lat: Lattice, sublattices, index_cap: int = DEFAULT_INDEX_CAP
) -> bool:
    """Exact test of whether the union of full-rank sublattices is the lattice.

    Every coset of lat modulo the intersection lies inside some sublattice
    or meets none of them, so checking one representative per coset decides
    the union exactly.
    """
    subs = list(sublattices)
    coords, _ = _coset_coords(lat, intersect(subs), index_cap)
    spans = [Lattice(lat.coeff_matrix(sub), lat.rank) for sub in subs]
    return all(any(span.member(z) for span in spans) for z in coords)


# ---------------------------------------------------------------------------
# Kernels, minors, rank extension
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
    rows = [[int(x) for x in row] for row in a]
    m, n = len(rows), len(rows[0])
    kernel_rows = _kernel_rows(rows, n)
    if len(kernel_rows) != n - m:
        raise RankError("matrix must have full row rank")
    lat = Lattice(kernel_rows, n)
    gram = im.mat_mul(rows, im.transpose(rows))
    if lat.det_squared > im.frac_det(gram):
        raise CertificateError("kernel determinant exceeds det(A A^T)")
    return lat


@dataclass(frozen=True)
class MinorVector:
    """All r x r minors of a rank-r basis matrix, in lexicographic column order."""

    entries: tuple
    max_abs: Fraction


def minors_vector(lat: Lattice) -> MinorVector:
    if lat.rank < 1:
        raise RankError("minors need rank >= 1")
    b = [list(r) for r in lat.basis]
    entries = []
    for cols in itertools.combinations(range(lat.ambient_dim), lat.rank):
        sub = [[row[c] for c in cols] for row in b]
        entries.append(im.frac_det(sub))
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


def extend_to_full_rank(lat: Lattice, sub: Lattice, scale: int) -> Lattice:
    """Adjoin scaled lattice vectors to a lower-rank sublattice.

    Completes sub to a full-rank sublattice of lat by adding scale * z for
    basis vectors z of lat that raise the rank.  The result meets lin(sub)
    exactly in sub, whatever the scale.
    """
    if lat.rank != lat.ambient_dim:
        raise RankError("ambient lattice must be full rank")
    if sub.rank >= lat.rank:
        raise RankError("sublattice already has full rank")
    if int(scale) < 1:
        raise ValueError("scale must be a positive integer")
    rows = [list(r) for r in sub.basis]
    for b in lat.basis:
        if im.frac_rank(rows + [list(b)]) > len(rows):
            rows.append([int(scale) * x for x in b])
        if len(rows) == lat.rank:
            break
    return Lattice(rows, lat.ambient_dim)
