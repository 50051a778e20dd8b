"""Origin-symmetric rational convex bodies.

Two variants: axis-aligned boxes (the workhorse) and symmetric polytopes
K = {x : |<c_j, x>| <= 1} carrying an explicit vertex list and exact
volume.  Gauge, support function and volume are exact rationals.  Vertex
enumeration, which a supplied vertex list must match, and the volume as a
sum of cones over the facets are provided up to dimension 3; in higher
dimensions the caller supplies vertices and volume and the facet/vertex
consistency checks still run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _intmat as im
from ._intmat import dot
from .errors import UnsupportedBodyError
from .exactarith import format_rational, parse_array, parse_rational


@dataclass(frozen=True)
class SectionData:
    """A subspace together with the exact volume of the body section in it."""

    basis: tuple
    volume: Fraction

    def __post_init__(self):
        if self.volume <= 0:
            raise ValueError("section volume must be positive")


class ConvexBody:
    """Common interface: gauge, support, volume, dim, scale."""

    dim: int

    def gauge(self, x) -> Fraction:
        raise NotImplementedError

    def support(self, u) -> Fraction:
        raise NotImplementedError

    def volume(self) -> Fraction:
        raise NotImplementedError

    def scale(self, mu) -> "ConvexBody":
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(d: dict) -> "ConvexBody":
        if d["type"] == "box":
            return Box(parse_array(d["halfwidths"]))
        if d["type"] == "polytope":
            return SymmetricPolytope(
                facets=parse_array(d["facets"], parse_array),
                vertices=parse_array(d["vertices"], parse_array),
                volume=parse_rational(d["volume"]),
            )
        raise ValueError(f"unknown body type {d['type']!r}")


class Box(ConvexBody):
    """[-a_1, a_1] x ... x [-a_n, a_n] with positive rational half-widths."""

    __slots__ = ("halfwidths", "dim", "_volume", "_hash")

    def __init__(self, halfwidths):
        hw = tuple(Fraction(a) for a in halfwidths)
        if not hw or any(a <= 0 for a in hw):
            raise ValueError("half-widths must be positive")
        self._set(hw)

    def _set(self, hw):
        """Set from a tuple of positive Fraction half-widths."""
        self.halfwidths = hw
        self.dim = len(hw)
        self._volume = None
        self._hash = hash(("box", hw))

    def gauge(self, x) -> Fraction:
        x = _rationals(x, self.dim)
        return max(abs(xi) / a for xi, a in zip(x, self.halfwidths))

    def support(self, u) -> Fraction:
        u = _rationals(u, self.dim)
        return sum(a * abs(ui) for ui, a in zip(u, self.halfwidths))

    def volume(self) -> Fraction:
        """prod 2 a_i, computed on first read and kept."""
        if self._volume is None:
            v = Fraction(1)
            for a in self.halfwidths:
                v *= 2 * a
            self._volume = v
        return self._volume

    def scale(self, mu) -> "Box":
        mu = Fraction(mu)
        if mu <= 0:
            raise ValueError("scale must be positive")
        box = Box.__new__(Box)  # mu a > 0 for each a > 0: nothing to check
        box._set(tuple([mu * a for a in self.halfwidths]))
        return box

    def is_unit_cube(self) -> bool:
        return all(a == 1 for a in self.halfwidths)

    def to_dict(self) -> dict:
        return {"type": "box", "halfwidths": [format_rational(a) for a in self.halfwidths]}

    def __eq__(self, other):
        return isinstance(other, Box) and self.halfwidths == other.halfwidths

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Box({[format_rational(a) for a in self.halfwidths]})"


def unit_cube(n: int) -> Box:
    return Box([Fraction(1)] * n)


class SymmetricPolytope(ConvexBody):
    """K = {x : |<c_j, x>| <= 1} with explicit vertices and exact volume.

    The vertex list is closed under negation automatically.  Construction
    verifies that every vertex satisfies all facet constraints and is an
    extreme point, its tight facet normals having rank dim, and (for
    dim <= 3) that the list holds every vertex of the facets and the stored
    volume equals the sum of the cones from the origin over the facets;
    above, that the volume lies between the bounds of ``_volume_bracket``.
    """

    __slots__ = ("facets", "vertices", "dim", "_volume", "_hash")

    def __init__(self, facets, vertices=None, volume=None):
        facets = tuple(tuple(Fraction(x) for x in row) for row in facets)
        if not facets:
            raise ValueError("need at least one facet normal")
        n = len(facets[0])
        if any(len(row) != n for row in facets):
            raise ValueError("facet normals of mixed dimension")
        if im.frac_rank([list(f) for f in facets]) < n:
            raise ValueError("facet normals do not bound a compact set")
        self.dim = n
        self.facets = facets
        full = _enumerate_vertices(facets) if n <= 3 else None
        if vertices is None and full is None:
            raise UnsupportedBodyError("vertex enumeration implemented only up to dimension 3")
        verts = {tuple(Fraction(x) for x in v) for v in (full if vertices is None else vertices)}
        verts |= {tuple(-x for x in v) for v in verts}
        self.vertices = tuple(sorted(verts))
        self._check_vertices()
        if full is not None and verts != full:
            raise ValueError("the vertex list is not the full vertex set of the facets")
        cones = _cone_volume(self) if n <= 3 else None
        if volume is None and cones is None:
            raise UnsupportedBodyError("volume must be supplied for dimension > 3")
        self._volume = cones if volume is None else Fraction(volume)
        low, high = (cones, cones) if cones is not None else _volume_bracket(self)
        if self._volume <= 0 or not low <= self._volume <= high:
            raise ValueError(f"stored volume {self._volume} outside [{low}, {high}]")
        self._hash = hash(("polytope", self.facets, self.vertices))

    def _check_vertices(self):
        if not self.vertices:
            raise ValueError("empty vertex list")
        for v in self.vertices:
            tight = []
            for c in self.facets:
                val = abs(dot(c, v))
                if val > 1:
                    raise ValueError(f"vertex {v} violates a facet constraint")
                if val == 1:
                    tight.append(list(c))
            if im.frac_rank(tight) < self.dim:
                raise ValueError(f"vertex {v} is not an extreme point: its tight "
                                 "facet normals have rank below dim")

    def gauge(self, x) -> Fraction:
        x = _rationals(x, self.dim)
        return max(abs(dot(c, x)) for c in self.facets)

    def support(self, u) -> Fraction:
        if not self.vertices:
            raise UnsupportedBodyError("support needs a vertex list")
        u = _rationals(u, self.dim)
        return max(dot(u, v) for v in self.vertices)

    def volume(self) -> Fraction:
        return self._volume

    def scale(self, mu) -> "SymmetricPolytope":
        mu = Fraction(mu)
        if mu <= 0:
            raise ValueError("scale must be positive")
        # the image of a checked polytope needs no check: its facets are
        # c / mu, its vertices mu v, in the same order as mu > 0, and its
        # volume mu^n vol
        poly = SymmetricPolytope.__new__(SymmetricPolytope)
        poly.dim = self.dim
        poly.facets = tuple([tuple([x / mu for x in c]) for c in self.facets])
        poly.vertices = tuple([tuple([mu * x for x in v]) for v in self.vertices])
        poly._volume = self._volume * mu**self.dim
        poly._hash = hash(("polytope", poly.facets, poly.vertices))
        return poly

    def to_dict(self) -> dict:
        return {
            "type": "polytope",
            "facets": [[format_rational(x) for x in c] for c in self.facets],
            "vertices": [[format_rational(x) for x in v] for v in self.vertices],
            "volume": format_rational(self._volume),
        }

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricPolytope)
            and self.facets == other.facets
            and self.vertices == other.vertices
            and self._volume == other._volume
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SymmetricPolytope(dim={self.dim}, facets={len(self.facets)}, vertices={len(self.vertices)})"


def cross_polytope(n: int) -> SymmetricPolytope:
    """{x : sum |x_i| <= 1}: all sign patterns as facets, +-e_i as vertices."""
    facets = [list(signs) for signs in itertools.product((1, -1), repeat=n)]
    verts = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        verts.append(e)
    return SymmetricPolytope(facets, verts, volume=Fraction(2**n, math.factorial(n)))


def coordinate_section(body: ConvexBody, coords) -> SectionData:
    """Exact section of a box by a coordinate subspace, the section data
    ``bounds.gaudron_bound`` takes; the ``bounds`` and ``verify`` commands
    do not report that bound."""
    if not isinstance(body, Box):
        raise UnsupportedBodyError(
            "coordinate sections are exact for boxes only; supply SectionData"
        )
    coords = sorted(set(coords))
    if not coords:
        raise ValueError("need at least one coordinate")
    if coords[0] < 0 or coords[-1] >= body.dim:
        raise ValueError("coordinate index out of range")
    vol = Fraction(1)
    basis = []
    for i in coords:
        vol *= 2 * body.halfwidths[i]
        e = [Fraction(0)] * body.dim
        e[i] = Fraction(1)
        basis.append(tuple(e))
    return SectionData(basis=tuple(basis), volume=vol)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _rationals(x, dim):
    """The entries of x as exact rationals: ints and Fractions as they are.
    A vector whose length is not the body's dimension is rejected."""
    x = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in x]
    if len(x) != dim:
        raise ValueError("vector and body dimension mismatch")
    return x


def _enumerate_vertices(facets):
    """Vertices of {|<c_j,x>| <= 1} by intersecting facet hyperplanes (n <= 3),
    decided on integers: with each normal c = C / q for an integer row C, a
    vertex solves C x = q on n oriented normals of rank n, which one
    fraction-free elimination gives as y / p with integer y, and it is kept
    when |C_j . y| <= q_j |p| for every normal, as is -y / p, which solves
    the opposite orientations.  Normals of rank n are n distinct lines +-C,
    so each line is tried once, and in the first normal's orientation
    +C only."""
    n = len(facets[0])
    normals = [(row, q) for (row,), q in (im.clear_denominators([c]) for c in facets)]
    lines = {(tuple(row) if next(filter(None, row)) > 0 else tuple([-x for x in row]), q)
             for row, q in normals if any(row)}
    verts = set()
    for combo in itertools.combinations(lines, n):
        for signs in itertools.product((1, -1), repeat=n - 1):
            a = [[s * x for x in row] + [q] for s, (row, q) in zip((1, *signs), combo)]
            if len(im._reduce(a, n)[0]) < n:
                continue
            p, y = a[0][0], [row[n] for row in a]  # a is p [I | x] for the vertex x
            if all(abs(dot(row, y)) <= q * abs(p) for row, q in normals):
                verts.add(tuple(Fraction(v, p) for v in y))
                verts.add(tuple(Fraction(-v, p) for v in y))
    if not verts:
        raise ValueError("no vertices found; facets do not bound a polytope")
    return verts


def _volume_bracket(poly: SymmetricPolytope) -> tuple:
    """(low, high) around vol K from the first n independent vertices v_i and
    facet normals c_i: K holds conv(+-v_i), of volume 2^n |det v| / n!, and
    lies in {|<c_i, x>| <= 1}, of volume 2^n / |det c|, whether or not the
    vertex list is complete (low is 0 below n independent vertices)."""
    n, dets = poly.dim, []
    for rows in (poly.vertices, poly.facets):
        chosen = []
        for row in rows:
            if len(chosen) < n and im.frac_rank(chosen + [list(row)]) > len(chosen):
                chosen.append(list(row))
        dets.append(abs(im.frac_det(chosen)) if len(chosen) == n else 0)
    return Fraction(2**n) * dets[0] / math.factorial(n), Fraction(2**n) / dets[1]


def _cone_volume(poly: SymmetricPolytope) -> Fraction:
    """vol K as the sum of the cones conv(0, F) over its facets F (Lasserre,
    JOTA 39, 1983), for dimension n <= 3.  The facet on an oriented normal c
    is the set of vertices tight on c, skipped when it holds fewer than n of
    them.  The vertices are extreme points (``_check_vertices``), so below
    dimension 3 a facet holds n of them and its cone is |det F| / n!.  In
    dimension 3 a pair vw of a facet is an edge when some other oriented
    normal is tight at both, and each edge adds |det(p, v, w)| / 6 for p the
    centroid of the facet's vertices, which lies inside the facet."""
    n = poly.dim
    normals = {*poly.facets, *(tuple(-x for x in c) for c in poly.facets)}
    faces = {c: {v for v in poly.vertices if dot(c, v) == 1} for c in normals}
    total = Fraction(0)
    for c, face in faces.items():
        if len(face) < n:
            continue
        if n < 3:
            total += abs(im.frac_det([list(v) for v in face])) / math.factorial(n)
            continue
        p = [sum(col) / len(face) for col in zip(*face)]
        for v, w in itertools.combinations(face, 2):
            if any(d != c and v in f and w in f for d, f in faces.items()):
                total += abs(im.frac_det([p, list(v), list(w)])) / 6
    return total
