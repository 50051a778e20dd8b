"""Exact lattices over the rationals.

A Lattice is stored by its canonical basis: the scaled integer Hermite
normal form divided back by the scaling denominator.  Two descriptions of
the same lattice therefore compare equal, and determinants, membership,
duals, intersections, coset systems and kernels are all exact.
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
    "ZRowSpan",
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

    __slots__ = ("ambient_dim", "rank", "basis", "_det_squared", "_dual_rows")

    def __init__(self, basis, ambient_dim: int | None = None):
        rows = [[Fraction(x) for x in row] for row in basis]
        if ambient_dim is None:
            if not rows:
                raise ValueError("ambient_dim required for the zero lattice")
            ambient_dim = len(rows[0])
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("basis rows of mixed dimension")
        if len(rows) > ambient_dim:
            raise RankError("more basis rows than the ambient dimension")
        if rows and im.frac_rank(rows) != len(rows):
            raise RankError("basis rows are linearly dependent")
        self.ambient_dim = ambient_dim
        canon = _canonical_rows(rows)
        self.rank = len(canon)
        self.basis = tuple(tuple(row) for row in canon)
        self._det_squared = None
        self._dual_rows = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_generators(rows, ambient_dim: int | None = None) -> "Lattice":
        """Lattice generated by arbitrarily many (possibly dependent) rows."""
        rows = [[Fraction(x) for x in row] for row in rows]
        if ambient_dim is None:
            if not rows:
                raise ValueError("ambient_dim required for the zero lattice")
            ambient_dim = len(rows[0])
        canon = _canonical_rows(rows)
        return Lattice(canon, ambient_dim)

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
        return abs(im.frac_det([list(r) for r in self.basis]))

    def coeffs_of(self, x):
        """Coordinates z with z . basis = x, or None if x is off the span."""
        x = [Fraction(v) for v in x]
        if len(x) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        if self.rank == 0:
            return [] if all(v == 0 for v in x) else None
        bt = im.transpose([list(r) for r in self.basis])
        z = im.frac_solve(bt, x)
        if z is None:
            return None
        # frac_solve verifies consistency only against pivot rows; confirm
        recon = im.vec_mat(z, [list(r) for r in self.basis])
        if recon != x:
            return None
        return z

    def member(self, x) -> bool:
        z = self.coeffs_of(x)
        return z is not None and all(c.denominator == 1 for c in z)

    def contains_lattice(self, other: "Lattice") -> bool:
        return other.ambient_dim == self.ambient_dim and all(
            self.member(row) for row in other.basis
        )

    def coeff_matrix(self, sub: "Lattice") -> list[list[int]]:
        """Integer coordinates of a sublattice basis in this basis."""
        rows = []
        for b in sub.basis:
            z = self.coeffs_of(b)
            if z is None or any(c.denominator != 1 for c in z):
                raise NotSublatticeError("not a sublattice")
            rows.append([int(c) for c in z])
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
        rows = im.transpose(im.frac_inv([list(r) for r in self.basis]))
        return Lattice(rows, self.ambient_dim)

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
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        rows = ", ".join(
            "(" + ", ".join(format_rational(x) for x in row) + ")" for row in self.basis
        )
        return f"Lattice(dim={self.ambient_dim}, basis=[{rows}])"


def _canonical_rows(rows):
    if not rows:
        return []
    scale = im.lcm_denominators(rows)
    int_rows = [[int(x * scale) for x in row] for row in rows]
    return [[Fraction(x, scale) for x in row] for row in im.hnf(int_rows)]


# ---------------------------------------------------------------------------
# Membership of integer coordinate vectors in an integer row span
# ---------------------------------------------------------------------------


class ZRowSpan:
    """Exact membership test for z in the integer row span of a matrix."""

    def __init__(self, rows: list[list[int]]):
        self.h = im.hnf(rows)
        self.pivots = [next(j for j, x in enumerate(row) if x != 0) for row in self.h]

    def contains(self, z) -> bool:
        w = list(z)
        for row, p in zip(self.h, self.pivots):
            if w[p] % row[p] != 0:
                return False
            q = w[p] // row[p]
            if q:
                w = [w[j] - q * row[j] for j in range(len(w))]
        return all(x == 0 for x in w)


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
    _v: tuple  # unimodular coordinate change, coords . v taken mod diag
    _diag: tuple

    def label_of_coords(self, z) -> tuple:
        """Coset label of a lattice point given by its coordinates."""
        zv = im.vec_mat(list(z), [list(r) for r in self._v])
        return tuple(int(zv[i]) % self._diag[i] for i in range(len(self._diag)))

    def label_of(self, x) -> tuple:
        z = self.lattice.coeffs_of(x)
        if z is None or any(c.denominator != 1 for c in z):
            raise NotSublatticeError("point is not in the lattice")
        return self.label_of_coords([int(c) for c in z])


def coset_system(
    lat: Lattice, sub: Lattice, index_cap: int = DEFAULT_INDEX_CAP
) -> CosetSystem:
    """All coset representatives of lat modulo a full-rank sublattice."""
    if sub.rank != lat.rank:
        raise NotSublatticeError("sublattice must have full rank in the lattice")
    m = lat.coeff_matrix(sub)
    _, d, v = im.snf(m)
    diag = [d[i][i] for i in range(len(m))]
    index = math.prod(diag)
    if index > index_cap:
        raise IndexOverflowError(f"index {index} exceeds cap {index_cap}")
    vinv = [[int(x) for x in row] for row in im.frac_inv(v)]
    basis = [list(r) for r in lat.basis]
    reps = []
    for t in itertools.product(*(range(di) for di in diag)):
        z = im.vec_mat(list(t), vinv)
        reps.append(tuple(im.vec_mat(z, basis)))
    return CosetSystem(
        lattice=lat,
        sublattice=sub,
        representatives=tuple(reps),
        index=index,
        _v=tuple(tuple(row) for row in v),
        _diag=tuple(diag),
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
    inter = intersect(subs)
    cs = coset_system(lat, inter, index_cap=index_cap)
    spans = [ZRowSpan(lat.coeff_matrix(sub)) for sub in subs]
    for rep in cs.representatives:
        z = [int(c) for c in lat.coeffs_of(rep)]
        if not any(span.contains(z) for span in spans):
            return False
    return True


# ---------------------------------------------------------------------------
# Kernels, minors, rank extension
# ---------------------------------------------------------------------------


def kernel_lattice(a: list[list[int]]) -> Lattice:
    """Integer kernel {z in Z^n : A z = 0} of a full-row-rank integer matrix."""
    rows = [[int(x) for x in row] for row in a]
    m, n = len(rows), len(rows[0])
    if im.frac_rank(rows) != m:
        raise RankError("matrix must have full row rank")
    _, _, v = im.snf(rows)
    kernel_rows = [[v[i][j] for i in range(n)] for j in range(m, n)]
    lat = Lattice(kernel_rows, n) if kernel_rows else Lattice([], n)
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

    With U R V = D in Smith form, the rational row span is spanned by the
    first rank rows of V^{-1}, and those rows are a basis of the saturation
    because V is unimodular.
    """
    rows = [[int(x) for x in row] for row in rows]
    rank = im.frac_rank(rows)
    if rank == 0:
        return []
    _, _, v = im.snf(rows)
    vinv = [[int(x) for x in r] for r in im.frac_inv(v)]
    return vinv[:rank]


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
