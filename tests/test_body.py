import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from latmin import body as body_module
from latmin.body import (
    Box,
    ConvexBody,
    SymmetricPolytope,
    coordinate_section,
    cross_polytope,
    unit_cube,
)
from latmin.errors import UnsupportedBodyError

small_fracs = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=50
)
pos_fracs = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(10), max_denominator=20
)

RECT = Box([1, Fraction(2, 25)])


class TestBoxGauge:
    def test_golden_rectangle(self):
        assert RECT.gauge([1, 1]) == Fraction(25, 2)

    def test_origin(self):
        assert RECT.gauge([0, 0]) == 0
        assert cross_polytope(2).gauge([0, 0]) == 0

    def test_unit_box(self):
        assert unit_cube(2).gauge([3, -2]) == 3

    @given(x=st.lists(small_fracs, min_size=2, max_size=2), t=pos_fracs)
    def test_homogeneous_and_symmetric(self, x, t):
        g = RECT.gauge(x)
        assert RECT.gauge([t * v for v in x]) == t * g
        assert RECT.gauge([-v for v in x]) == g

    @given(x=st.lists(small_fracs, min_size=2, max_size=2), lam=pos_fracs)
    def test_gauge_membership_duality(self, x, lam):
        inside = all(
            abs(xi) <= lam * a for xi, a in zip(map(Fraction, x), RECT.halfwidths)
        )
        assert (RECT.gauge(x) <= lam) == inside


class TestSupport:
    def test_unit_box(self):
        assert unit_cube(2).support([1, 1]) == 2

    def test_rectangle_vertical(self):
        assert RECT.support([0, 1]) == Fraction(2, 25)

    def test_zero(self):
        assert RECT.support([0, 0]) == 0

    @given(u=st.lists(small_fracs, min_size=2, max_size=2))
    def test_even(self, u):
        assert RECT.support(u) == RECT.support([-v for v in u])

    @given(u=st.lists(small_fracs, min_size=2, max_size=2))
    def test_dominates_vertices(self, u):
        cp = cross_polytope(2)
        h = cp.support(u)
        for v in cp.vertices:
            assert sum(Fraction(a) * b for a, b in zip(u, v)) <= h


class TestVolume:
    def test_unit_box(self):
        assert unit_cube(2).volume() == 4

    def test_rectangle(self):
        assert RECT.volume() == Fraction(8, 25)

    def test_box_volume_kept(self):
        # computed on first read, then the same object
        box = Box([Fraction(3, 2), 1, Fraction(5, 4)])
        assert box.volume() == Fraction(15) and box.volume() is box.volume()

    def test_cross_polytope(self):
        assert cross_polytope(2).volume() == 2
        assert cross_polytope(3).volume() == Fraction(4, 3)

    @given(t=pos_fracs)
    def test_scaling(self, t):
        assert RECT.scale(t).volume() == t**2 * RECT.volume()
        cp = cross_polytope(2)
        assert cp.scale(t).volume() == t**2 * cp.volume()

    def test_scale_consistency(self):
        s = cross_polytope(2).scale(Fraction(3, 2))
        assert s.gauge([Fraction(3, 2), 0]) == 1
        assert s.support([1, 0]) == Fraction(3, 2)


class TestPolytopeConstruction:
    def test_vertex_enumeration_2d(self):
        hexagon = SymmetricPolytope([[1, 0], [0, 1], [1, 1]])
        assert len(hexagon.vertices) == 6
        assert hexagon.volume() == 3

    def test_vertex_enumeration_3d(self):
        octa = SymmetricPolytope(
            [[1, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]]
        )
        assert len(octa.vertices) == 6
        assert octa.volume() == Fraction(4, 3)

    def test_wrong_volume_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPolytope(
                [[1, 0], [0, 1]],
                vertices=[[1, 1], [1, -1], [-1, 1], [-1, -1]],
                volume=Fraction(5),
            )

    def test_vertex_violating_facet_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPolytope([[1, 0], [0, 1]], vertices=[[2, 0]], volume=4)

    def test_unbounded_facets_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPolytope([[1, 0]], vertices=[[1, 0]], volume=1)

    @pytest.mark.parametrize(
        "facets, vertices",
        [
            # the hexagon without (1, -1): it read volume 1 and support 1 at (1, -1)
            ([[1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1]]),
            # the square without (1, -1): its minima divided by a zero volume
            ([[1, 0], [0, 1]], [[1, 1]]),
        ],
        ids=["hexagon", "square"],
    )
    def test_partial_vertex_list_rejected(self, facets, vertices):
        with pytest.raises(ValueError, match="full vertex set"):
            SymmetricPolytope(facets, vertices=vertices)

    def test_vertices_auto_symmetrized(self):
        cp = SymmetricPolytope(
            [list(s) for s in [(1, 1), (1, -1)]],
            vertices=[[1, 0], [0, 1]],
            volume=2,
        )
        assert (-1, 0) in cp.vertices

    def test_high_dim_needs_vertices(self):
        with pytest.raises(UnsupportedBodyError):
            SymmetricPolytope([[1 if i == j else 0 for j in range(4)] for i in range(4)])

    @pytest.mark.parametrize("volume, kept", [(100, False), (Fraction(1, 100), False),
                                              (Fraction(2, 3), True)])
    def test_high_dim_volume_bracketed(self, volume, kept):
        # above dimension 3 a supplied volume must lie between 2^n |det V| / n!
        # and 2^n / |det C|, here [2/3, 2]: volume 100 made
        # minkowski_first_bound on Z^4 read 0.632, below lambda_1 = 1
        cp = cross_polytope(4)
        if kept:
            assert SymmetricPolytope(cp.facets, cp.vertices, volume=volume) == cp
        else:
            with pytest.raises(ValueError, match=r"outside \[2/3, 2\]"):
                SymmetricPolytope(cp.facets, cp.vertices, volume=volume)

    def test_round_trip(self):
        cp = cross_polytope(2)
        again = ConvexBody.from_dict(cp.to_dict())
        assert again == cp
        box = Box([1, Fraction(2, 25)])
        assert ConvexBody.from_dict(box.to_dict()) == box


HALF = Fraction(1, 2)
E1, E2, E3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
# (facets, volume): the cube with square faces, a hexagonal prism, whose
# hexagons have diagonals off their centre, the cuboctahedron, and the cube
# with a redundant normal tight along one edge
SOLIDS = {
    "cube": ([E1, E2, E3], 8),
    "hexagonal-prism": ([E1, E2, [1, 1, 0], E3], 6),
    "cuboctahedron": (
        [E1, E2, E3] + [[HALF, s * HALF, t * HALF] for s in (1, -1) for t in (1, -1)],
        Fraction(20, 3),
    ),
    "cube-with-edge-normal": ([E1, E2, E3, [HALF, HALF, 0]], 8),
}


class TestFacetConeVolume:
    @pytest.mark.parametrize("name", sorted(SOLIDS))
    def test_linear_image_scales_volume_by_det(self, name):
        # A P = {A x : x in P} has the facets c A^-1 and the volume
        # |det A| vol P, enumerated and supplied alike
        facets, volume = SOLIDS[name]
        solid = SymmetricPolytope(facets)
        assert solid.volume() == volume
        rng = random.Random(name)
        seen = 0
        while seen < 12:
            a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                 for _ in range(3)]
            det = oracles.det(a)
            if det == 0:
                continue
            inv = oracles.inv(a)
            image = [[sum(c[i] * inv[i][j] for i in range(3)) for j in range(3)]
                     for c in facets]
            got = SymmetricPolytope(image)
            assert got.volume() == abs(det) * volume
            moved = {tuple(sum(a[i][j] * v[j] for j in range(3)) for i in range(3))
                     for v in solid.vertices}
            assert set(got.vertices) == moved
            again = SymmetricPolytope(image, vertices=moved, volume=abs(det) * volume)
            assert again.volume() == got.volume()
            seen += 1

    @pytest.mark.parametrize(
        "facets, vertices, volume",
        [
            # (1, 0) is the midpoint of the edge from (1, -1) to (1, 1), tight
            # on the normal (1, 0) twice
            ([[1, 0], [0, 1], [1, 0]], [[1, 1], [1, -1], [1, 0]], 4),
            # (1, 1, 0) is the midpoint of a cube edge, tight on e1 and e2 twice
            ([E1, E2, E3, E1, E2], [[1, s, t] for s in (1, -1) for t in (1, -1)]
             + [[-1, s, t] for s in (1, -1) for t in (1, -1)] + [[1, 1, 0]], 8),
        ],
        ids=["square", "cube"],
    )
    def test_edge_midpoint_is_not_a_vertex(self, facets, vertices, volume):
        with pytest.raises(ValueError, match="extreme"):
            SymmetricPolytope(facets, vertices=vertices, volume=volume)


class TestScale:
    # the image is mapped from the checked polytope, not constructed again
    @pytest.mark.parametrize("name", ["cross-polytope", "hexagon", "hexagonal-prism"])
    @pytest.mark.parametrize("mu", [Fraction(3, 2), Fraction(2, 7), 5])
    def test_polytope_scale_equals_fresh_construction(self, name, mu):
        facets = {
            "cross-polytope": [list(c) for c in cross_polytope(3).facets],
            "hexagon": [[1, 0], [0, 1], [1, 1]],
            "hexagonal-prism": SOLIDS["hexagonal-prism"][0],
        }[name]
        got = SymmetricPolytope(facets).scale(mu)
        fresh = SymmetricPolytope([[Fraction(x) / mu for x in c] for c in facets])
        assert got == fresh and hash(got) == hash(fresh)
        assert got.facets == fresh.facets and got.vertices == fresh.vertices
        assert got.volume() == fresh.volume()
        assert got.dim == fresh.dim

    def test_box_scale_equals_fresh_construction(self):
        mu = Fraction(5, 3)
        box = Box([Fraction(3, 2), 1, Fraction(5, 4)])
        got, fresh = box.scale(mu), Box([mu * a for a in box.halfwidths])
        assert got == fresh and hash(got) == hash(fresh) and got.dim == 3
        assert got.volume() == fresh.volume() == mu**3 * box.volume()

    def test_scale_rejects_nonpositive(self):
        for body in (RECT, cross_polytope(2)):
            for mu in (0, -1):
                with pytest.raises(ValueError, match="scale must be positive"):
                    body.scale(mu)

    def test_vertex_enumeration_skips_opposite_normals(self, monkeypatch):
        # the 3-D cross-polytope's 8 facet normals lie on 4 lines +-C, so
        # C(4, 3) line triples in 4 orientations each are eliminated; all
        # 3-subsets of the 16 oriented normals were 560
        facets = cross_polytope(3).facets
        reduced = []
        reduce = body_module.im._reduce
        monkeypatch.setattr(body_module.im, "_reduce",
                            lambda a, n: reduced.append(a) or reduce(a, n))
        assert len(body_module._enumerate_vertices(facets)) == 6
        assert len(reduced) == 16


class TestCoordinateSection:
    def test_unit_box(self):
        assert coordinate_section(unit_cube(3), [0, 1]).volume == 4

    def test_rectangle_axes(self):
        assert coordinate_section(RECT, [0]).volume == 2
        assert coordinate_section(RECT, [1]).volume == Fraction(4, 25)

    def test_polytope_rejected(self):
        with pytest.raises(UnsupportedBodyError):
            coordinate_section(cross_polytope(2), [0])

    def test_bad_index(self):
        with pytest.raises(ValueError):
            coordinate_section(unit_cube(2), [5])
        with pytest.raises(ValueError):
            coordinate_section(unit_cube(2), [])
