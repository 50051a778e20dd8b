import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

import oracles
from latmin import _intmat as im
from latmin import lattice
from latmin.errors import InputError, NotSublatticeError, RankError
from latmin.harness import generate
from latmin.lattice import (
    _MAX_TERMS,
    Lattice,
    _coset_label,
    _spans_cover,
    intersect,
    kernel_lattice,
    m_value,
    minors_vector,
    saturate_rows,
    union_covers,
)


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
        # coordinates in the Hermite basis, integers or None
        lat = Lattice([[1, 1], [0, 2]])
        assert lat._solve([1, 3]) == [1, 1]
        assert lat._solve([1, 2]) is None


def dual_of(lat):
    """The dual of a full-rank lattice from its dual rows D / m, which at
    full rank are the dual basis of the stored basis."""
    rows, m = lat.dual_in_span()
    return Lattice([[Fraction(x, m) for x in row] for row in rows], lat.ambient_dim)


def oracle_dual(lat):
    return Lattice(oracles.dual_basis([list(b) for b in lat.basis]), lat.ambient_dim)


class TestDual:
    def test_standard_self_dual(self):
        assert dual_of(Lattice.standard(2)) == Lattice.standard(2)
        assert oracle_dual(Lattice.standard(2)) == Lattice.standard(2)

    def test_scaled(self):
        for diag in ([2, 2], [2, 3]):
            expected = Lattice.from_diagonal([Fraction(1, a) for a in diag])
            assert dual_of(Lattice.from_diagonal(diag)) == expected
            assert oracle_dual(Lattice.from_diagonal(diag)) == expected

    def test_involution_and_reciprocity(self):
        rng = random.Random(31)
        for _ in range(40):
            lat = random_lattice(rng, rng.randint(2, 4))
            dual = dual_of(lat)
            assert dual == oracle_dual(lat)
            assert dual_of(dual) == lat
            assert dual.det_squared * lat.det_squared == 1

    def test_inverse_transpose_on_skewed_bases(self):
        rng = random.Random(149)
        for _ in range(60):
            n = rng.randint(1, 4)
            rows = skewed_rows(rng, n, n)
            expected = Lattice(oracles.dual_basis(rows), n)
            assert dual_of(Lattice(rows, n)) == expected

    def test_dual_in_span_matches_oracle(self):
        # every rank 1..n: integer rows over a positive denominator, in
        # lin(L) and biorthogonal to the stored basis, against the oracle's
        # inverse Gram matrix times the basis
        rng = random.Random(163)
        for _ in range(40):
            n = rng.randint(1, 4)
            for rank in range(1, n + 1):
                lat = Lattice(skewed_rows(rng, n, rank), n)
                basis = [list(b) for b in lat.basis]
                rows, m = lat.dual_in_span()
                assert type(m) is int and m > 0
                assert all(type(x) is int for row in rows for x in row)
                got = [[Fraction(x, m) for x in row] for row in rows]
                assert got == oracles._dual_in_span(basis)


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
                assert oracles.contains(sub.basis, inter.basis)

    def test_lower_rank_rejected(self):
        with pytest.raises(RankError):
            intersect([Lattice([[1, 0]], 2)])

    def test_two_members_make_two_hermite_forms(self, monkeypatch):
        # the kernel's and the result's: the kernel rows times the first
        # member's basis are reduced once, by the result's constructor
        lats = [Lattice([[2, 1], [0, 3]]), Lattice([[5, 0], [1, 1]])]
        calls = []
        monkeypatch.setattr(lattice, "hnf", lambda rows: calls.append(rows) or im.hnf(rows))
        inter = intersect(lats)
        assert len(calls) == 2
        assert inter.det() == 30 and all(oracles.contains(lat.basis, inter.basis) for lat in lats)


def random_hermite(rng, n, index):
    """Hermite rows of a random sublattice of Z^n of the given index: its
    prime factors spread over the diagonal, and each entry right of a
    pivot reduced modulo the pivot of its column."""
    diag = [1] * n
    p = 2
    while index > 1:
        while index % p == 0:
            diag[rng.randrange(n)] *= p
            index //= p
        p += 1
    return [[diag[i] if j == i else rng.randrange(diag[j]) if j > i else 0 for j in range(n)]
            for i in range(n)]


def coset_labels(lat, sub, radius):
    """{coordinates z of lat in [-radius, radius]^rank: the label of z
    modulo sub}."""
    span = lat.in_coords(sub)
    return {
        z: _coset_label(z, span)
        for z in itertools.product(range(-radius, radius + 1), repeat=lat.rank)
    }


class TestCosets:
    def test_two_by_two(self):
        z2, sub = Lattice.standard(2), Lattice([[2, 0], [0, 2]])
        assert sub.index_in(z2) == 4
        labels = coset_labels(z2, sub, 3)
        assert set(labels.values()) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert all(label == (z[0] % 2, z[1] % 2) for z, label in labels.items())

    def test_golden_twelve(self):
        inter = intersect(
            [Lattice([[1, 0], [0, 2]]), Lattice([[2, 0], [0, 1]]), Lattice([[1, 0], [0, 3]])]
        )
        assert inter.index_in(Lattice.standard(2)) == 12
        assert len(set(coset_labels(Lattice.standard(2), inter, 6).values())) == 12

    def test_trivial(self):
        lat = Lattice([[2, 1], [0, 1]])
        assert lat.index_in(lat) == 1
        assert set(coset_labels(lat, lat, 2).values()) == {(0, 0)}

    def test_representatives_pairwise_distinct(self):
        lat = Lattice.standard(2)
        sub = Lattice([[2, 1], [0, 3]])
        assert sub.index_in(lat) == 6
        labels = coset_labels(lat, sub, 4)
        assert len(set(labels.values())) == 6
        for (x, lx), (y, ly) in itertools.combinations(labels.items(), 2):
            diff = [a - b for a, b in zip(x, y)]
            assert (lx == ly) == sub.member(diff)

    def test_not_sublattice_rejected(self):
        half = Lattice([[Fraction(1, 2), 0], [0, 1]])
        with pytest.raises(NotSublatticeError):
            half.index_in(Lattice.standard(2))
        with pytest.raises(NotSublatticeError):
            Lattice.standard(2).in_coords(half)

    def test_index_cap(self, monkeypatch):
        # index 1,001,000, once above the old cap of 10^6, and a pair whose
        # intersection has index 1009 * 1013: each is decided as a
        # non-cover, and no coset representative is ever tested
        span = Lattice.standard(2).in_coords(Lattice([[1001, 0], [0, 1000]]))
        pair = [Lattice.from_diagonal([1009, 1]), Lattice.from_diagonal([1, 1013])]
        monkeypatch.setattr(Lattice, "_solve", lambda *a: pytest.fail("a coset was streamed"))
        assert not _spans_cover([span])
        assert not _spans_cover(pair)


class TestMValueAndCovering:
    def test_golden_m(self):
        lat = Lattice.standard(2)
        lats = [
            Lattice([[1, 0], [0, 2]]),
            Lattice([[2, 0], [0, 1]]),
            Lattice([[1, 0], [0, 3]]),
        ]
        assert m_value(lat, lats) == 14

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

    def test_large_index_short_circuits(self, monkeypatch):
        # index 1,001,000: the only membership solves are the two that put
        # the member in the lattice's coordinates, so no coset is streamed
        calls = []
        real = Lattice._solve
        monkeypatch.setattr(Lattice, "_solve", lambda *a: calls.append(a) or real(*a))
        lat = Lattice.standard(2)
        assert union_covers(lat, [Lattice([[1001, 0], [0, 1000]])]) is False
        assert len(calls) == 2

    def test_non_cover_stops_at_first_uncovered_coset(self):
        # a non-cover of index 10^6 is decided without building its cosets
        tracemalloc.start()
        try:
            assert not union_covers(Lattice.standard(2), [Lattice([[1000, 0], [0, 1000]])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_term_limit(self):
        # the 40 sublattices of Z^2 of index 2..7 meet in more than
        # _MAX_TERMS distinct intersections, which is an input error
        members = [Lattice([[a, c], [0, d]])
                   for a in range(1, 8) for d in range(1, 8) if 2 <= a * d <= 7
                   for c in range(d)]
        assert len(members) == 40
        with pytest.raises(InputError, match=f"more than {_MAX_TERMS} distinct"):
            _spans_cover(members)

    def test_matches_the_coset_stream(self):
        # inclusion-exclusion against streaming the cosets of N Z^r: seeded
        # collections of members of index <= 4 in Z^2 and Z^3, the three
        # index-2 sublattices of Z^2, and generated full and mixed members
        rng = random.Random(2718)
        collections = [[[[1, 0], [0, 2]], [[2, 0], [0, 1]], [[1, 1], [0, 2]]]]
        for _ in range(240):
            n, s = rng.choice((2, 3)), rng.randint(1, 6)
            collections.append([random_hermite(rng, n, rng.randint(1, 4)) for _ in range(s)])
        for seed in range(6):
            for n, s, kind in ((2, 3, "full"), (3, 3, "full"), (2, 3, "mixed"), (3, 4, "mixed")):
                inst = generate(seed, n, s, kind)
                spans = [inst.lattice.in_coords(sub) for sub in inst.forbidden if sub.rank == n]
                collections.append([[[int(x) for x in row] for row in span.basis]
                                    for span in spans])
        outcomes = set()
        for rows in collections:
            covers = oracles.spans_cover_by_cosets(rows)
            assert _spans_cover([Lattice(m, len(m)) for m in rows]) == covers
            outcomes.add((len(rows[0]), covers))
        assert outcomes == {(2, True), (2, False), (3, True), (3, False)}

    def test_neumann_lemma(self):
        # a group covered by s subgroups has one of index <= s (B. H.
        # Neumann, Publ. Math. Debrecen 3, 1954): members whose indices all
        # exceed s never cover
        rng = random.Random(1954)
        for _ in range(200):
            n, s = rng.choice((2, 3)), rng.randint(1, 6)
            members = [Lattice(random_hermite(rng, n, rng.randint(s + 1, s + 6)), n)
                       for _ in range(s)]
            assert not _spans_cover(members)

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

    def test_empty_or_ragged_rejected(self):
        for a in ([], [[1, 2, 3], [1, 2]], [[1], [1, 2, 3]]):
            with pytest.raises(InputError, match="empty or ragged"):
                kernel_lattice(a)

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
        # integer coordinates in the basis H / d come back from the solve of
        # d x, and halved ones only where they stay integers
        for rng, n, rank, rows in oracle_cases(101):
            lat = Lattice(rows, n)
            assert lat.rank == rank
            for _ in range(5):
                z = [rng.randint(-6, 6) for _ in range(rank)]
                assert lat._solve([lat._denom * v for v in combine(z, lat.basis)]) == z
                half = [Fraction(c, 2) for c in z]
                got = lat._solve([lat._denom * v for v in combine(half, lat.basis)])
                assert got == (half if all(c % 2 == 0 for c in z) else None)

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
            assert not lat.member(x) and not oracles.in_lattice(rows, x)
            # scaled so that every pivot division is exact, the solve fails
            # on the residue off the span alone, and succeeds in the span
            pivots = math.prod(row[p] for row, p in zip(lat._hermite, lat._pivots))
            for y, on_span in ((x, False), (combine([Fraction(1, 3)] * rank, rows), True)):
                w = [lat._denom * v for v in y]
                m = math.lcm(*(Fraction(v).denominator for v in w)) * pivots**rank
                assert (lat._solve([m * v for v in w]) is not None) == on_span
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
        z = lat._solve([6, 7])
        assert z == [2, 1] and all(type(c) is int for c in z)

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
        # onto skewed ambient lattices of rank 2 in R^2 and in R^3; their
        # unions are periodic modulo 6 Z^2, and all three index-2 ones (or
        # all four index-3 ones) cover
        index2 = [[[1, 0], [0, 2]], [[2, 0], [0, 1]], [[1, 1], [0, 2]]]
        index3 = [[[1, 0], [0, 3]], [[3, 0], [0, 1]], [[1, 1], [0, 3]], [[1, 2], [0, 3]]]
        rng = random.Random(127)
        outcomes = set()
        for trial in range(40):
            family = (index2, index3)[trial % 2]
            coeffs = rng.sample(family, rng.randint(len(family) - 1, len(family)))
            coeffs += rng.sample(index2 + index3, rng.randint(0, 2))
            brute = all(
                any(oracles.in_lattice(m, [z1, z2]) for m in coeffs)
                for z1 in range(6)
                for z2 in range(6)
            )
            for n in (2, 3):
                basis = skewed_rows(rng, n, 2)
                lat = Lattice(basis, n)
                subs = [Lattice(im.mat_mul(m, basis), n) for m in coeffs]
                assert union_covers(lat, subs) == brute
                outcomes.add((n, brute))
        assert outcomes == {(2, True), (2, False), (3, True), (3, False)}

    def test_union_covers_rejects_lower_rank_and_off_lattice_members(self):
        # at either ambient rank: a member of lower rank than the lattice is
        # a RankError, a member off the lattice a NotSublatticeError
        for basis in ([[1, 0], [0, 1]], [[1, 0, 1], [0, 1, 1]]):
            n = len(basis[0])
            lat = Lattice(basis, n)
            full = Lattice(im.mat_mul([[1, 0], [0, 2]], basis), n)
            with pytest.raises(RankError):
                union_covers(lat, [full, Lattice([basis[0]], n)])
            half = Lattice([[Fraction(x, 2) for x in basis[0]], basis[1]], n)
            with pytest.raises(NotSublatticeError):
                union_covers(lat, [full, half])

    def test_coset_system_matches_oracle(self):
        # full-rank sublattices M B of skewed lattices B, index |det M| <= 500:
        # the index is det(sub) / det(lat), the box 0 <= z_i < H_ii of the
        # sublattice's Hermite form in lattice coordinates holds one point of
        # each coset and labels each of them itself, every point's label is
        # one of those, and two points share a label iff they differ by a
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
            span = lat.in_coords(sub)
            index = sub.index_in(lat)
            assert index == sub.det() / lat.det() == abs(oracles.det(mix))
            indices.add(index)
            rep_coords = list(itertools.product(
                *(range(row[i]) for i, row in enumerate(span._hermite))))
            assert len(rep_coords) == index
            assert [_coset_label(z, span) for z in rep_coords] == rep_coords
            for z, w in itertools.combinations(rep_coords[:12], 2):
                diff = combine([a - b for a, b in zip(z, w)], lat.basis)
                assert not oracles.in_lattice(sub_rows, diff)
            points = [combine([rng.randint(-30, 30) for _ in range(n)], basis)
                      for _ in range(12)]
            points += [combine(z, lat.basis) for z in rep_coords[:4]]
            columns = [list(col) for col in zip(*lat.basis)]
            labels = [_coset_label([int(c) for c in oracles.solve(columns, x)], span)
                      for x in points]
            assert set(labels) <= set(rep_coords)
            for (x, lx), (y, ly) in itertools.combinations(zip(points, labels), 2):
                diff = [a - b for a, b in zip(x, y)]
                assert (lx == ly) == oracles.in_lattice(sub_rows, diff)
                same += lx == ly
        assert same > 20 and max(indices) > 100

    def test_from_generators_matches_basis_constructor(self):
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
            Lattice([[1, 0], [1]])
        with pytest.raises(ValueError, match="mixed dimension"):
            Lattice([[1, 0]], 3)
        with pytest.raises(ValueError, match="ambient_dim required"):
            Lattice([])

    def test_integer_rows_give_the_fraction_lattice(self):
        # rows of ints skip the Fraction pass; rational (ints mixed with
        # Fractions), str and bool rows take it: each must give the lattice
        # of the same values as Fractions, and the same errors
        forms = {
            "int": int,
            "rational": lambda x: int(x) if x.denominator == 1 else x,
            "str": str,
            "bool": bool,
        }
        seen = set()
        for trial in range(240):
            rng = random.Random(trial)
            form = list(forms)[trial % 4]
            n = rng.randint(1, 4)
            rank = rng.randint(1, n)
            if form == "bool":
                rows = [[Fraction(rng.randint(0, 1)) for _ in range(n)] for _ in range(rank)]
            elif form == "int":
                rows = [[Fraction(rng.randint(-10**4, 10**4)) for _ in range(n)]
                        for _ in range(rank)]
            else:
                rows = skewed_rows(rng, n, rank)
            given = [[forms[form](x) for x in row] for row in rows]
            bad = [
                (rows + [rows[0]], given + [given[0]]),  # dependent
                (rows[:-1] + [rows[-1][:-1]], given[:-1] + [given[-1][:-1]]),  # ragged
                (rows + [rows[0]] * (n + 1 - rank), given + [given[0]] * (n + 1 - rank)),
            ]
            for ref_rows, form_rows in bad:
                with pytest.raises((RankError, ValueError)) as ref:
                    Lattice(ref_rows, n)
                with pytest.raises(ref.type, match=f"^{re.escape(str(ref.value))}$"):
                    Lattice(form_rows, n)
            if oracles.frac_rank(rows) < rank:
                with pytest.raises(RankError, match="dependent"):
                    Lattice(given, n)
                seen.add((form, "dependent"))
                continue
            ref, got = Lattice(rows, n), Lattice(given, n)
            assert got == ref and hash(got) == hash(ref)
            assert got.basis == ref.basis
            assert all(type(x) is Fraction for row in got.basis for x in row)
            assert (got._hermite, got._denom, got._pivots) == (
                ref._hermite, ref._denom, ref._pivots)
            assert got.to_dict() == ref.to_dict() and repr(got) == repr(ref)
            seen.add((form, got._denom > 1))
        assert seen >= {("int", False), ("bool", False), ("bool", "dependent"),
                        ("rational", True), ("str", True)}

    def test_coeff_matrix_matches_oracle(self):
        # integer combinations of skewed rational bases, with d > 1 on the
        # lattice, on the sublattice, or on both; half-integer ones are not
        # sublattices
        kinds = set()
        for rng, n, rank, rows in oracle_cases(157, 80):
            lat = Lattice(rows, n)
            sub_rank = rng.randint(1, rank)
            while True:
                coeffs = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(sub_rank)]
                if oracles.frac_rank(coeffs) == sub_rank:
                    break
            if rng.random() < 0.3:
                coeffs = [[lat._denom * c for c in row] for row in coeffs]
            sub = Lattice([combine(c, rows) for c in coeffs], n)
            got = lat.in_coords(sub)
            columns = [list(col) for col in zip(*lat.basis)]
            assert got == Lattice([oracles.solve(columns, b) for b in sub.basis], rank)
            assert got.ambient_dim == rank and got._denom == 1
            assert all(type(c) is int for z in got._hermite for c in z)
            assert Lattice([combine(z, lat.basis) for z in got._hermite], n) == sub
            assert oracles.contains(lat.basis, sub.basis)
            kinds.add((lat._denom > 1, sub._denom > 1))
            halves = [[Fraction(c, 2) for c in coeffs[0]]] + coeffs[1:]
            if all(c.denominator == 1 for c in halves[0]):
                continue
            off = Lattice([combine(c, rows) for c in halves], n)
            with pytest.raises(NotSublatticeError):
                lat.in_coords(off)
            assert not oracles.contains(lat.basis, off.basis)
            kinds.add("not a sublattice")
            with pytest.raises(ValueError, match="dimension mismatch"):
                lat.in_coords(Lattice.standard(n + 1))
        assert kinds == {(False, False), (True, False), (True, True), "not a sublattice"}

    def test_intersections_unchanged(self):
        # the intersection built from the dual generators' Hermite form
        # through the basis constructor, on skewed rational lattices and on
        # the generator's full-rank forbidden collections
        rng = random.Random(137)
        cases = []
        for _ in range(40):
            n = rng.randint(1, 3)
            cases.append([Lattice(skewed_rows(rng, n, n), n)
                          for _ in range(rng.randint(2, 3))])
        for seed in range(20):
            inst = generate(seed, rng.randint(2, 4), rng.randint(2, 3), "full")
            cases.append(list(inst.forbidden))
        for _ in range(20):  # longer lists: each member meets the running basis
            n = rng.randint(1, 3)
            cases.append([Lattice(skewed_rows(rng, n, n), n)
                          for _ in range(rng.randint(4, 6))])
        for lats in cases:
            n = lats[0].ambient_dim
            dual_rows = [list(r) for lat in lats for r in oracle_dual(lat).basis]
            d = im.lcm_denominators(dual_rows)
            h = im.hnf([[int(x * d) for x in row] for row in dual_rows])
            expected = oracle_dual(Lattice([[Fraction(x, d) for x in row] for row in h], n))
            got = intersect(lats)
            assert got == expected and got.basis == expected.basis
            assert hash(got) == hash(expected)
            assert all(oracles.contains(lat.basis, got.basis) for lat in lats)
