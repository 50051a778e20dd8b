import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import oracles
from latmin import _intmat as im
from latmin import lattice as lattice_module
from latmin.body import unit_cube
from latmin.errors import IndexOverflowError, NotSublatticeError, RankError
from latmin.lattice import (
    CosetSystem,
    Lattice,
    coset_system,
    extend_to_full_rank,
    intersect,
    kernel_lattice,
    m_value,
    minors_vector,
    saturate_rows,
    union_covers,
)
from latmin.minima import successive_minima


def random_lattice(rng, n, rank=None, span=4):
    rank = rank if rank is not None else n
    while True:
        rows = [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(rank)]
        if im.frac_rank(rows) == rank:
            return Lattice(rows, n)


class TestConstruction:
    def test_dependent_rows_rejected(self):
        with pytest.raises(RankError):
            Lattice([[1, 2], [2, 4]])

    def test_from_generators_accepts_dependent(self):
        lat = Lattice.from_generators([[2, 0], [0, 2], [1, 1]])
        assert lat.det() == 2
        assert lat.det_squared == 4

    def test_canonical_equality(self):
        a = Lattice([[1, 0], [3, 1]])
        b = Lattice([[1, 0], [0, 1]])
        assert a == b and hash(a) == hash(b)

    def test_rational_basis(self):
        lat = Lattice([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        assert lat.det() == Fraction(1, 6)

    def test_zero_lattice(self):
        lat = Lattice([], 3)
        assert lat.rank == 0 and lat.det_squared == 1
        assert lat.member([0, 0, 0]) and not lat.member([1, 0, 0])

    def test_round_trip(self):
        lat = Lattice([[Fraction(5, 2), 0], [1, 2]])
        assert Lattice.from_dict(lat.to_dict()) == lat

    def test_hnf_canonicity_random(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(2, 4)
            r = rng.randint(1, n)
            lat = random_lattice(rng, n, rank=r)
            u = im.identity(r)
            for _ in range(5):
                i, j = rng.randrange(r), rng.randrange(r)
                if i != j:
                    c = rng.choice((-1, 1))
                    u[i] = [u[i][k] + c * u[j][k] for k in range(r)]
            transformed = Lattice(im.mat_mul(u, [list(row) for row in lat.basis]), n)
            assert transformed == lat


class TestDeterminants:
    def test_standard(self):
        assert Lattice.standard(3).det_squared == 1

    def test_kernel_det(self):
        assert kernel_lattice([[1, 1, 1]]).det_squared == 3

    def test_scaled(self):
        assert Lattice([[2, 0], [0, 2]]).det_squared == 16

    def test_det_squared_is_perfect_square_for_integer_full_rank(self):
        rng = random.Random(23)
        for _ in range(40):
            lat = random_lattice(rng, rng.randint(2, 4))
            d2 = lat.det_squared
            assert d2.denominator == 1
            d = lat.det()
            assert d.denominator == 1 and d * d == d2

    def test_cauchy_binet_random(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 4)
            r = rng.randint(1, n)
            lat = random_lattice(rng, n, rank=r)
            mv = minors_vector(lat)
            assert sum(e * e for e in mv.entries) == lat.det_squared


class TestMembership:
    def test_parity_lattice(self):
        lat = Lattice([[1, 0], [0, 2]])
        assert lat.member([3, 4])
        assert not lat.member([3, 3])

    def test_off_span(self):
        lat = Lattice([[1, 0]], 2)
        assert not lat.member([0, 1])
        assert lat.member([-7, 0])

    def test_coeffs(self):
        lat = Lattice([[1, 1], [0, 2]])
        assert lat.coeffs_of([1, 3]) == [Fraction(1), Fraction(1)]


class TestDual:
    def test_standard_self_dual(self):
        assert Lattice.standard(2).dual() == Lattice.standard(2)

    def test_scaled(self):
        assert Lattice([[2, 0], [0, 2]]).dual() == Lattice(
            [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
        )
        assert Lattice([[2, 0], [0, 3]]).dual() == Lattice(
            [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
        )

    def test_involution_and_reciprocity(self):
        rng = random.Random(31)
        for _ in range(40):
            lat = random_lattice(rng, rng.randint(2, 4))
            assert lat.dual().dual() == lat
            assert lat.dual().det_squared * lat.det_squared == 1

    def test_lower_rank_rejected(self):
        with pytest.raises(RankError):
            Lattice([[1, 0]], 2).dual()

    def test_inverse_transpose_on_skewed_bases(self):
        rng = random.Random(149)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = skewed_rows(rng, n, n)
            inverse = oracles.inv(rows)
            expected = Lattice([[inverse[i][j] for i in range(n)] for j in range(n)], n)
            assert Lattice(rows, n).dual() == expected


class TestIntersect:
    def test_golden_pair(self):
        inter = intersect([Lattice([[1, 0], [0, 2]]), Lattice([[5, 0], [0, 1]])])
        assert inter == Lattice([[5, 0], [0, 2]])
        assert inter.det() == 10

    def test_golden_triple(self):
        lats = [
            Lattice([[1, 0], [0, 2]]),
            Lattice([[2, 0], [0, 1]]),
            Lattice([[1, 0], [0, 3]]),
        ]
        inter = intersect(lats, within=Lattice.standard(2))
        assert inter.det() == 12

    def test_idempotent(self):
        lat = Lattice([[2, 1], [0, 3]])
        assert intersect([lat, lat]) == lat

    def test_sandwich_random(self):
        rng = random.Random(37)
        z = None
        for _ in range(40):
            n = rng.randint(2, 3)
            ambient = Lattice.standard(n)
            subs = []
            for _ in range(rng.randint(1, 3)):
                m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                if im.frac_det(m) == 0:
                    continue
                subs.append(Lattice(m, n))
            if not subs:
                continue
            inter = intersect(subs, within=ambient)  # sandwich asserted inside
            for sub in subs:
                assert sub.contains_lattice(inter)

    def test_lower_rank_rejected(self):
        with pytest.raises(RankError):
            intersect([Lattice([[1, 0]], 2)])


class TestCosets:
    def test_two_by_two(self):
        cs = coset_system(Lattice.standard(2), Lattice([[2, 0], [0, 2]]))
        assert cs.index == 4
        assert set(cs.representatives) == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_golden_twelve(self):
        inter = intersect(
            [Lattice([[1, 0], [0, 2]]), Lattice([[2, 0], [0, 1]]), Lattice([[1, 0], [0, 3]])]
        )
        cs = coset_system(Lattice.standard(2), inter)
        assert cs.index == 12
        assert len(cs.representatives) == 12

    def test_trivial(self):
        lat = Lattice([[2, 1], [0, 1]])
        cs = coset_system(lat, lat)
        assert cs.index == 1

    def test_representatives_pairwise_distinct(self):
        lat = Lattice.standard(2)
        sub = Lattice([[2, 1], [0, 3]])
        cs = coset_system(lat, sub)
        assert cs.index == 6
        reps = cs.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                diff = [a - b for a, b in zip(reps[i], reps[j])]
                assert not sub.member(diff)
        labels = {cs.label_of(rep) for rep in reps}
        assert len(labels) == cs.index

    def test_not_sublattice_rejected(self):
        with pytest.raises(NotSublatticeError):
            coset_system(Lattice.standard(2), Lattice([[Fraction(1, 2), 0], [0, 1]]))

    def test_index_cap(self):
        with pytest.raises(IndexOverflowError):
            coset_system(
                Lattice.standard(2), Lattice([[100, 0], [0, 100]]), index_cap=100
            )


class TestMValueAndCovering:
    def test_golden_m(self):
        lat = Lattice.standard(2)
        lats = [
            Lattice([[1, 0], [0, 2]]),
            Lattice([[2, 0], [0, 1]]),
            Lattice([[1, 0], [0, 3]]),
        ]
        assert m_value(lat, lats) == 14
        assert m_value(lat, lats, capped=True) == 12

    def test_pair_m(self):
        lat = Lattice.standard(2)
        assert m_value(lat, [Lattice([[1, 0], [0, 2]]), Lattice([[5, 0], [0, 1]])]) == 6

    def test_self_m(self):
        lat = Lattice.standard(2)
        assert m_value(lat, [lat]) == 1

    def test_covering_golden(self):
        lat = Lattice.standard(2)
        l1 = Lattice([[1, 0], [0, 2]])
        l2 = Lattice([[2, 0], [0, 1]])
        l3 = Lattice([[1, 0], [0, 3]])
        l4 = Lattice([[1, 1], [0, 2]])
        assert union_covers(lat, [l1, l2, l4])
        assert not union_covers(lat, [l1, l2, l3])
        assert not union_covers(lat, [l1])

    def test_large_index_short_circuits(self):
        lat = Lattice.standard(2)
        with pytest.raises(IndexOverflowError):
            union_covers(lat, [Lattice([[60, 0], [0, 60]])], index_cap=1000)

    def test_non_cover_stops_at_first_uncovered_coset(self):
        # representatives are produced one at a time, so a non-cover at the
        # index cap is decided without building all 10^6 of them
        tracemalloc.start()
        try:
            assert not union_covers(Lattice.standard(2), [Lattice([[1000, 0], [0, 1000]])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_two_strict_sublattices_never_cover(self):
        # index >= m+1 forces a non-cover
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(2, 3)
            lat = Lattice.standard(n)
            subs = []
            for _ in range(2):
                while True:
                    m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
                    d = abs(im.frac_det(m))
                    if 2 <= d <= 4:
                        subs.append(Lattice(m, n))
                        break
            inter = intersect(subs, within=lat)
            m_val = m_value(lat, subs)
            if inter.index_in(lat) >= m_val + 1:
                assert not union_covers(lat, subs)


class TestKernel:
    def test_all_ones_row(self):
        k = kernel_lattice([[1, 1, 1]])
        assert k.rank == 2 and k.det_squared == 3

    def test_scaled_row(self):
        k = kernel_lattice([[2, 0, 0]])
        assert k == Lattice([[0, 1, 0], [0, 0, 1]], 3)

    def test_identity_gives_zero_lattice(self):
        assert kernel_lattice([[1, 0], [0, 1]]).rank == 0

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            kernel_lattice([[1, 1, 1], [2, 2, 2]])

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(43)
        for _ in range(30):
            n = rng.randint(2, 5)
            m = rng.randint(1, n - 1)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            if im.frac_rank(rows) != m:
                continue
            k = kernel_lattice(rows)
            assert k.rank == n - m
            for b in k.basis:
                assert all(sum(r[j] * b[j] for j in range(n)) == 0 for r in rows)

    def test_whole_kernel_on_skewed_matrices(self):
        # det(ker A)^2 == det(A A^T) / g^2, with g the gcd of A's m x m
        # minors, holds for the whole integer kernel and fails for any
        # proper sublattice of it
        rng = random.Random(151)
        imprimitive = 0
        for trial in range(160):
            m = 1 + trial % 2
            n = rng.randint(m + 1, 5)
            rows = [[rng.randint(-10**4, 10**4) for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.5:  # a common factor of the minors
                c = rng.randint(2, 60)
                rows[0] = [c * x for x in rows[0]]
            if oracles.frac_rank(rows) != m:
                continue
            k = kernel_lattice(rows)
            assert k.rank == n - m
            for b in k.basis:
                assert all(sum(r[j] * b[j] for j in range(n)) == 0 for r in rows)
            g = minors_gcd(rows)
            assert k.det_squared == oracles.det(gram(rows)) / g**2
            imprimitive += g > 1
        assert imprimitive > 40


class TestMinors:
    def test_standard(self):
        mv = minors_vector(Lattice.standard(2))
        assert mv.entries == (1,) and mv.max_abs == 1

    def test_rank_one(self):
        mv = minors_vector(Lattice([[1, 0]], 2))
        assert sorted(abs(e) for e in mv.entries) == [0, 1]
        assert mv.max_abs == 1

    def test_kernel_basis_minors(self):
        k = kernel_lattice([[1, 1, 1]])
        mv = minors_vector(k)
        assert sum(e * e for e in mv.entries) == 3
        assert sorted(abs(e) for e in mv.entries) == [1, 1, 1]


class TestExtendAndSaturate:
    def test_golden_extension(self):
        ext = extend_to_full_rank(Lattice.standard(2), Lattice([[1, 0]], 2), 10)
        assert ext == Lattice([[1, 0], [0, 10]])

    def test_scale_one_full_rank_superlattice(self):
        lat = Lattice.standard(3)
        sub = Lattice([[1, 1, 0]], 3)
        ext = extend_to_full_rank(lat, sub, 1)
        assert ext.rank == 3
        assert lat.contains_lattice(ext)
        assert ext.contains_lattice(sub)

    def test_span_intersection_is_preserved(self):
        lat = Lattice.standard(3)
        sub = Lattice([[2, 1, 0], [0, 0, 3]], 3)
        ext = extend_to_full_rank(lat, sub, 7)
        # members of ext lying in the span of sub must be members of sub
        rng = random.Random(47)
        for _ in range(50):
            z = [rng.randint(-3, 3) for _ in range(3)]
            v = [
                sum(Fraction(z[i]) * ext.basis[i][j] for i in range(3))
                for j in range(3)
            ]
            in_span = im.frac_rank([list(b) for b in sub.basis] + [v]) == sub.rank
            if in_span:
                assert sub.member(v)

    def test_large_scale_preserves_first_minimum(self):
        lat = Lattice.standard(2)
        sub = Lattice([[1, 0]], 2)
        ext = extend_to_full_rank(lat, sub, 10)
        box = unit_cube(2)
        lam_sub = successive_minima(box, sub, 1).values[0]
        lam_ext = successive_minima(box, ext, 1).values[0]
        assert lam_sub == lam_ext == 1

    def test_saturation(self):
        sat = saturate_rows([[2, 4]])
        assert Lattice(sat, 2).member([1, 2])
        sat2 = saturate_rows([[2, 0], [0, 3]])
        span = Lattice(sat2, 2)
        assert span.member([1, 0]) and span.member([0, 1])

    def test_saturation_on_skewed_rows(self):
        # independent rows R, sheared by a random integer matrix so their
        # minors share factors, then given as is, with dependent extra rows
        # or as zero rows; the saturation has R's rank, contains the given
        # rows, and det^2 == det(R R^T) / g^2 (g the gcd of R's r x r minors)
        rng = random.Random(157)
        kinds = set()
        for _ in range(200):
            n = rng.randint(1, 5)
            r = rng.randint(1, n)
            while True:
                base = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(r)]
                mix = [[rng.randint(-20, 20) for _ in range(r)] for _ in range(r)]
                rows = im.mat_mul(mix, base)
                if oracles.frac_rank(rows) == r:
                    break
            kind = rng.choice(("independent", "dependent", "zero"))
            given = [row[:] for row in rows]
            if kind == "dependent":
                for _ in range(rng.randint(1, 3)):
                    given.insert(rng.randint(0, len(given)),
                                 combine([rng.randint(-5, 5) for _ in rows], rows))
            elif kind == "zero":
                given = [[0] * n for _ in range(rng.randint(1, 3))]
            kinds.add(kind)
            sat = saturate_rows(given)
            if kind == "zero":
                assert sat == []
                continue
            span = Lattice(sat, n)  # raises if the rows were dependent
            assert span.rank == r
            assert all(span.member(row) for row in given)
            assert span.det_squared == oracles.det(gram(rows)) / minors_gcd(rows) ** 2
        assert kinds == {"independent", "dependent", "zero"}


# ---------------------------------------------------------------------------
# Hermite-form coordinates, membership, det and covers against the oracles
# ---------------------------------------------------------------------------


def skewed_rows(rng, n, rank):
    """Independent rational rows with entries far beyond the campaign
    generator's (up to ~10^4, denominators up to 12), sheared and shuffled
    so they are never given in Hermite order."""
    while True:
        rows = [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(rank)
        ]
        if oracles.frac_rank(rows) == rank:
            break
    for _ in range(4):
        i, j = rng.randrange(rank), rng.randrange(rank)
        if i != j:
            c = rng.randint(-40, 40)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def combine(coeffs, rows):
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]


def gram(rows):
    return [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]


def minors_gcd(rows):
    """gcd of the r x r minors of r integer rows."""
    r = len(rows)
    return math.gcd(*(
        int(oracles.det([[row[c] for c in cols] for row in rows]))
        for cols in itertools.combinations(range(len(rows[0])), r)
    ))


def oracle_cases(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        rank = rng.randint(1, n)
        yield rng, n, rank, skewed_rows(rng, n, rank)


class TestAgainstOracles:
    def test_coordinates_round_trip(self):
        for rng, n, rank, rows in oracle_cases(101):
            lat = Lattice(rows, n)
            assert lat.rank == rank
            for _ in range(5):
                z = [rng.randint(-6, 6) for _ in range(rank)]
                assert lat.coeffs_of(combine(z, lat.basis)) == z
                half = [Fraction(c, 2) for c in z]
                assert lat.coeffs_of(combine(half, lat.basis)) == half

    def test_off_span_has_no_coordinates(self):
        seen = 0
        for rng, n, rank, rows in oracle_cases(103):
            if rank == n:
                continue
            lat = Lattice(rows, n)
            e = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            if oracles.frac_rank(rows + [e]) == rank:
                continue
            x = [a + b for a, b in zip(combine([1] * rank, rows), e)]
            assert lat.coeffs_of(x) is None
            assert not lat.member(x) and not oracles.in_lattice(rows, x)
            seen += 1
        assert seen > 10

    def test_member_matches_oracle(self):
        hits = misses = 0
        for rng, n, rank, rows in oracle_cases(107):
            lat = Lattice(rows, n)
            for _ in range(6):
                y = [rng.randint(-5, 5) for _ in range(rank)]
                x = combine(y, rows)
                assert lat.member(x) and oracles.in_lattice(rows, x)
                # a rational perturbation in the span, and one in any direction
                k = rng.randint(2, 5)
                shifted = combine([c + Fraction(rng.randint(-k, k), k) for c in y], rows)
                moved = [v + Fraction(rng.randint(-1, 1), k) for v in x]
                for v in (shifted, moved):
                    expect = oracles.in_lattice(rows, v)
                    assert lat.member(v) == expect
                    hits, misses = hits + expect, misses + (not expect)
        assert hits > 50 and misses > 50

    def test_integer_points_stay_integer(self):
        lat = Lattice([[3, 1], [0, 5]])
        assert lat.member([6, 7]) and not lat.member([6, 8])
        assert lat.coeffs_of([6, 7]) == [2, 1]

    def test_det_matches_leibniz(self):
        for _, n, rank, rows in oracle_cases(109):
            if rank == n:
                assert Lattice(rows, n).det() == abs(oracles.det(rows))

    def test_dependent_rows_raise(self):
        for rng, n, rank, rows in oracle_cases(113):
            if rank == n:
                continue
            extra = combine([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rows], rows)
            with pytest.raises(RankError, match="dependent"):
                Lattice(rows + [extra], n)
            with pytest.raises(RankError, match="dependent"):
                Lattice([extra] + rows, n)

    def test_union_covers_matches_brute_force(self):
        # the index-2 and index-3 sublattices of Z^2 in coordinates, carried
        # onto skewed ambient lattices; their unions are periodic modulo 6 Z^2,
        # and all three index-2 ones (or all four index-3 ones) cover
        index2 = [[[1, 0], [0, 2]], [[2, 0], [0, 1]], [[1, 1], [0, 2]]]
        index3 = [[[1, 0], [0, 3]], [[3, 0], [0, 1]], [[1, 1], [0, 3]], [[1, 2], [0, 3]]]
        rng = random.Random(127)
        outcomes = set()
        for trial in range(40):
            basis = skewed_rows(rng, 2, 2)
            lat = Lattice(basis, 2)
            family = (index2, index3)[trial % 2]
            coeffs = rng.sample(family, rng.randint(len(family) - 1, len(family)))
            coeffs += rng.sample(index2 + index3, rng.randint(0, 2))
            subs = [Lattice(im.mat_mul(m, basis), 2) for m in coeffs]
            brute = all(
                any(oracles.in_lattice(m, [z1, z2]) for m in coeffs)
                for z1 in range(6)
                for z2 in range(6)
            )
            assert union_covers(lat, subs) == brute
            outcomes.add(brute)
        assert outcomes == {True, False}

    def test_coset_system_matches_oracle(self):
        # full-rank sublattices M B of skewed lattices B, index |det M| <= 500:
        # the index is det(sub) / det(lat), the representatives fall in
        # distinct cosets, each point's label is its coset representative's
        # coordinates, and two points share a label iff they differ by a
        # point of the sublattice
        rng = random.Random(163)
        indices, same = set(), 0
        for _ in range(40):
            n = rng.randint(1, 3)
            basis = skewed_rows(rng, n, n)
            while True:
                mix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                if 0 < abs(oracles.det(mix)) <= 500:
                    break
            sub_rows = im.mat_mul(mix, basis)
            lat, sub = Lattice(basis, n), Lattice(sub_rows, n)
            cs = coset_system(lat, sub)
            assert cs.index == sub.det() / lat.det() == abs(oracles.det(mix))
            indices.add(cs.index)
            rep_coords = [tuple(lat.coeffs_of(rep)) for rep in cs.representatives]
            assert len(set(rep_coords)) == cs.index
            assert [cs.label_of(rep) for rep in cs.representatives] == rep_coords
            points = [combine([rng.randint(-30, 30) for _ in range(n)], basis)
                      for _ in range(12)]
            points += [combine(z, basis) for z in rep_coords[:4]]
            labels = [cs.label_of(x) for x in points]
            assert set(labels) <= set(rep_coords)
            for (x, lx), (y, ly) in itertools.combinations(zip(points, labels), 2):
                diff = [a - b for a, b in zip(x, y)]
                assert (lx == ly) == oracles.in_lattice(sub_rows, diff)
                same += lx == ly
        assert same > 20 and max(indices) > 100

    def test_from_generators_matches_basis_constructor(self):
        # dependent generating sets: a basis, integer and rational
        # combinations of it that stay in the lattice, and zero rows
        seen = 0
        for rng, n, rank, rows in oracle_cases(131):
            lat = Lattice(rows, n)
            gens = [list(r) for r in rows]
            for _ in range(rng.randint(1, 4)):
                gens.append(combine([rng.randint(-50, 50) for _ in rows], rows))
            gens.append([Fraction(0)] * n)
            rng.shuffle(gens)
            got = Lattice.from_generators(gens, n)
            assert got == lat and hash(got) == hash(lat) and got.basis == lat.basis
            assert (got._hermite, got._denom, got._pivots) == (
                lat._hermite, lat._denom, lat._pivots)
            seen += 1
        assert seen == 60
        # == and hash read (H, d): they must agree with comparing bases on
        # skewed pairs, equal (another basis of one lattice) and not
        # (a rescaled copy, an unrelated lattice of the same shape)
        outcomes = set()
        for rng, n, rank, rows in oracle_cases(139):
            lat = Lattice(rows, n)
            unimodular = [list(r) for r in rows]
            for _ in range(3):
                i, j = rng.randrange(rank), rng.randrange(rank)
                if i != j:
                    c = rng.randint(-40, 40)
                    unimodular[i] = [a + c * b for a, b in zip(unimodular[i], unimodular[j])]
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
            for other in (
                Lattice(unimodular, n),
                Lattice([[scale * x for x in row] for row in rows], n),
                Lattice(skewed_rows(rng, n, rank), n),
            ):
                same = lat.basis == other.basis
                assert (lat == other) == same and (other == lat) == same
                assert not same or hash(lat) == hash(other)
                outcomes.add(same)
        assert outcomes == {True, False}

    def test_from_generators_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="mixed dimension"):
            Lattice.from_generators([[1, 0], [1]])
        with pytest.raises(ValueError, match="mixed dimension"):
            Lattice.from_generators([[1, 0]], 3)
        with pytest.raises(ValueError, match="ambient_dim required"):
            Lattice.from_generators([])

    def test_intersections_unchanged(self):
        # the intersection built from the dual generators' Hermite form
        # through the basis constructor, as before from_generators reused it
        rng = random.Random(137)
        for _ in range(40):
            n = rng.randint(1, 3)
            lats = [Lattice(skewed_rows(rng, n, n), n) for _ in range(rng.randint(2, 3))]
            dual_rows = [list(r) for lat in lats for r in lat.dual().basis]
            h, d = lattice_module._hermite(dual_rows)
            expected = Lattice([[Fraction(x, d) for x in row] for row in h], n).dual()
            got = intersect(lats)
            assert got == expected and got.basis == expected.basis
            assert all(lat.contains_lattice(got) for lat in lats)
