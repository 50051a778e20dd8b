import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from latmin import kernel, minima
from latmin.body import Box, SymmetricPolytope, cross_polytope, unit_cube
from latmin.bounds import vdc_lower
from latmin.errors import (
    BudgetExceededError,
    EmptyAdmissibleSetError,
    PackingConditionError,
    RankError,
    UnsupportedBodyError,
)
from latmin.harness import generate, rectangle_fixture
from latmin.lattice import Lattice, kernel_lattice
from latmin.minima import (
    ForbiddenCollection,
    count_points,
    covering_radius_diagonal,
    distinct_cosets_in_body,
    enumerate_points,
    point_sort_key,
    restricted_minima,
    successive_minima,
    torus_packing_volume,
)

Z2 = Lattice.standard(2)
Z3 = Lattice.standard(3)
BOX2 = unit_cube(2)
RECT = Box([1, Fraction(2, 25)])


class TestEnumerate:
    def test_unit_box_radius_one(self):
        pts = enumerate_points(BOX2, Z2, 1)
        assert len(pts) == 8
        assert all(g <= 1 for _, g in pts)

    def test_thin_rectangle(self):
        pts = enumerate_points(RECT, Z2, 1)
        assert {x for x, _ in pts} == {(1, 0), (-1, 0)}

    def test_scaled_lattice_empty(self):
        assert enumerate_points(BOX2, Lattice([[2, 0], [0, 2]]), 1) == []

    def test_radius_zero(self):
        assert enumerate_points(BOX2, Z2, 0) == []

    def test_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 3)
            hw = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]
            body = Box(hw)
            inst = generate(rng.randint(0, 10**6), n, 1, "lower")
            lat = inst.lattice
            radius = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            got = enumerate_points(body, lat, radius)
            expected = oracles.points_within(
                body.to_dict(), [list(r) for r in lat.basis], radius
            )
            assert {x for x, _ in got} == {x for x, _ in expected}
            assert dict(got) == dict(expected)

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            enumerate_points(BOX2, Z2, 10**6, budget=100)

    def test_deterministic_order(self):
        a = enumerate_points(BOX2, Z2, 2)
        b = enumerate_points(BOX2, Z2, 2)
        assert a == b
        gauges = [g for _, g in a]
        assert gauges == sorted(gauges)


class TestSuccessiveMinima:
    def test_unit_box(self):
        res = successive_minima(BOX2, Z2, 2)
        assert res.values == (1, 1)
        assert res.certificate_kind == "minkowski"

    def test_golden_intersection(self):
        res = successive_minima(RECT, Lattice([[5, 0], [0, 2]]), 1)
        assert res.values == (5,)
        assert abs(res.witnesses[0][0]) == 5 and res.witnesses[0][1] == 0

    def test_diagonal(self):
        res = successive_minima(BOX2, Lattice([[1, 0], [0, 3]]), 2)
        assert res.values == (1, 3)

    def test_lower_rank_lattice(self):
        res = successive_minima(BOX2, Lattice([[1, 0]], 2), 1)
        assert res.values == (1,)
        res = successive_minima(unit_cube(3), kernel_lattice([[1, 1, 1]]), 2)
        assert res.values == (1, 1)

    def test_witness_invariants(self):
        res = successive_minima(RECT, Z2, 2)
        assert res.values == (1, Fraction(25, 2))
        for w, v in zip(res.witnesses, res.values):
            assert RECT.gauge(w) == v
        assert oracles.frac_rank([list(w) for w in res.witnesses]) == 2

    def test_k_out_of_range(self):
        with pytest.raises(RankError):
            successive_minima(BOX2, Z2, 3)
        with pytest.raises(RankError):
            successive_minima(BOX2, Lattice([[1, 0]], 2), 2)

    def test_matches_oracle_random(self):
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(2, 3)
            inst = generate(rng.randint(0, 10**6), n, 1, "lower")
            res = successive_minima(inst.body, inst.lattice, n)
            expected = oracles.brute_minima(
                inst.body.to_dict(), [list(r) for r in inst.lattice.basis], [], n
            )
            assert res.values == expected


class TestRestrictedMinima:
    def test_golden_rectangle(self):
        fx = rectangle_fixture(5)
        fc = ForbiddenCollection(fx["lattice"], fx["subs"])
        res = restricted_minima(fx["body"], fx["lattice"], fc, 1)
        assert res.values == (Fraction(25, 2),)
        assert res.witnesses == ((1, 1),)
        assert res.certificate_kind == "theorem-1.2"
        assert res.certificate_radius == 20

    def test_axis_forbidden(self):
        fc = ForbiddenCollection(Z2, [Lattice([[1, 0]], 2)])
        res = restricted_minima(BOX2, Z2, fc, 1)
        assert res.values == (1,) and res.witnesses == ((0, 1),)
        assert res.certificate_kind == "theorem-1.1"

    def test_full_sublattice_k2(self):
        fc = ForbiddenCollection(Z2, [Lattice([[2, 0], [0, 2]])])
        res = restricted_minima(BOX2, Z2, fc, 2)
        assert res.values == (1, 1)
        assert {tuple(map(abs, w)) for w in res.witnesses} == {(0, 1), (1, 0)}

    def test_covering_union_rejected(self):
        subs = [
            Lattice([[1, 0], [0, 2]]),
            Lattice([[2, 0], [0, 1]]),
            Lattice([[1, 1], [0, 2]]),
        ]
        fc = ForbiddenCollection(Z2, subs)
        with pytest.raises(EmptyAdmissibleSetError):
            restricted_minima(BOX2, Z2, fc, 1)
        with pytest.raises(EmptyAdmissibleSetError):
            restricted_minima(BOX2, Z2, fc, 1, method="doubling")

    def test_polytope_body(self):
        cp = cross_polytope(2)
        fc = ForbiddenCollection(Z2, [Lattice([[1, 0]], 2)])
        res = restricted_minima(cp, Z2, fc, 1)
        assert res.values == (1,) and res.witnesses == ((0, 1),)

    def test_classifications(self):
        low = ForbiddenCollection(Z2, [Lattice([[1, 0]], 2)])
        full = ForbiddenCollection(Z2, [Lattice([[2, 0], [0, 2]])])
        mixed = ForbiddenCollection(
            Z2, [Lattice([[1, 0]], 2), Lattice([[2, 0], [0, 2]])]
        )
        assert low.classification == "all-lower-rank"
        assert full.classification == "all-full-rank"
        assert mixed.classification == "mixed"

    def test_mixed_uses_doubling(self):
        fc = ForbiddenCollection(Z2, [Lattice([[1, 0]], 2), Lattice([[2, 0], [0, 2]])])
        res = restricted_minima(BOX2, Z2, fc, 1)
        assert res.certificate_kind == "doubling"
        assert res.values == (1,)  # (0,1) avoids both

    def test_oracle_equivalence_all_kinds(self):
        rng = random.Random(21)
        cases = [(2, "lower"), (2, "full"), (2, "mixed"), (3, "lower"), (3, "full")]
        for n, kind in cases:
            for _ in range(6 if n == 2 else 3):
                s = rng.randint(1, 2) if kind != "mixed" else 2
                inst = generate(rng.randint(0, 10**6), n, s, kind)
                fc = inst.forbidden_collection()
                k = min(2, n)
                certified = restricted_minima(inst.body, inst.lattice, fc, k)
                doubled = restricted_minima(
                    inst.body, inst.lattice, fc, k, method="doubling"
                )
                assert certified.values == doubled.values
                assert certified.witnesses == doubled.witnesses
                expected = oracles.brute_minima(
                    inst.body.to_dict(),
                    [list(r) for r in inst.lattice.basis],
                    [[list(r) for r in sub.basis] for sub in inst.forbidden],
                    k,
                )
                assert certified.values == expected

    def test_monotonicity(self):
        rng = random.Random(33)
        for _ in range(8):
            inst = generate(rng.randint(0, 10**6), 2, 1, "lower")
            lat, body = inst.lattice, inst.body
            unres = successive_minima(body, lat, 2)
            fc1 = inst.forbidden_collection()
            r1 = restricted_minima(body, lat, fc1, 2)
            assert r1.values[0] <= r1.values[1]
            assert r1.values[0] >= unres.values[0]
            # enlarging the forbidden set never decreases the minima
            extra = generate(inst.seed + 1, 2, 1, "lower").forbidden[0]
            if inst.lattice.contains_lattice(extra):
                fc2 = ForbiddenCollection(lat, list(inst.forbidden) + [extra])
                r2 = restricted_minima(body, lat, fc2, 2)
                assert all(b >= a for a, b in zip(r1.values, r2.values))

    def test_dilation_identity(self):
        fx = rectangle_fixture(5)
        fc = ForbiddenCollection(fx["lattice"], fx["subs"])
        base = restricted_minima(fx["body"], fx["lattice"], fc, 1)
        for mu in (Fraction(1, 3), Fraction(3, 2), 2, Fraction(5, 7), 5):
            scaled = restricted_minima(
                fx["body"].scale(mu), fx["lattice"], fc, 1, method="doubling"
            )
            assert scaled.values[0] == base.values[0] / mu
            assert fx["body"].scale(mu).gauge(scaled.witnesses[0]) == scaled.values[0]

    def test_unknown_method_rejected(self):
        fc = ForbiddenCollection(Z2, [Lattice([[1, 0]], 2)])
        with pytest.raises(ValueError, match="method"):
            restricted_minima(BOX2, Z2, fc, 1, method="bogus")

    def test_cover_decided_once_per_collection(self, monkeypatch):
        calls = []
        real = minima.union_covers
        monkeypatch.setattr(
            minima, "union_covers", lambda *a: calls.append(a) or real(*a)
        )
        fc = ForbiddenCollection(Z2, [Lattice([[2, 0], [0, 2]])])
        for k in (1, 2, 1):
            restricted_minima(BOX2, Z2, fc, k)
        assert len(calls) == 1
        covering = ForbiddenCollection(
            Z2, [Lattice([[1, 0], [0, 2]]), Lattice([[2, 0], [0, 1]]), Lattice([[1, 1], [0, 2]])]
        )
        for _ in range(2):
            with pytest.raises(EmptyAdmissibleSetError):
                restricted_minima(BOX2, Z2, covering, 1)
        assert len(calls) == 2

    def test_forbidden_collection_validation(self):
        from latmin.errors import NotSublatticeError

        with pytest.raises(NotSublatticeError):
            ForbiddenCollection(Z2, [Lattice([[Fraction(1, 2), 0]], 2)])
        with pytest.raises(ValueError):
            ForbiddenCollection(Z2, [])


class TestCounting:
    @pytest.mark.parametrize(
        "lam,expected", [(1, 9), (2, 25), (0, 1), (Fraction(3, 2), 9)]
    )
    def test_unit_box(self, lam, expected):
        assert count_points(BOX2, Z2, lam) == expected

    def test_golden_rectangle(self):
        assert count_points(RECT, Z2, Fraction(25, 2)) == 75

    def test_against_oracle(self):
        rng = random.Random(55)
        for _ in range(15):
            inst = generate(rng.randint(0, 10**6), 2, 1, "lower")
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 2))
            got = count_points(inst.body, inst.lattice, lam)
            expected = oracles.brute_count(
                inst.body.to_dict(), [list(r) for r in inst.lattice.basis], lam
            )
            assert got == expected


class TestCosetsInBody:
    def test_four_cosets(self):
        assert distinct_cosets_in_body(BOX2, Z2, Lattice([[2, 0], [0, 2]]), 1) == 4

    def test_origin_only(self):
        assert distinct_cosets_in_body(BOX2, Z2, Lattice([[2, 0], [0, 2]]), 0) == 1

    def test_golden_rectangle(self):
        # points of the unit dilate are (0,0), (+-1,0): three cosets mod (5Z)x(2Z)
        got = distinct_cosets_in_body(RECT, Z2, Lattice([[5, 0], [0, 2]]), 1)
        assert got == 3


class TestCoveringRadius:
    def test_unit(self):
        assert covering_radius_diagonal(BOX2, Z2) == Fraction(1, 2)

    def test_doubled(self):
        assert covering_radius_diagonal(BOX2, Lattice([[2, 0], [0, 2]])) == 1

    def test_rectangle(self):
        assert covering_radius_diagonal(RECT, Z2) == Fraction(25, 4)

    def test_non_diagonal_rejected(self):
        with pytest.raises(UnsupportedBodyError):
            covering_radius_diagonal(BOX2, Lattice([[2, 1], [0, 3]]))

    def test_non_box_rejected(self):
        with pytest.raises(UnsupportedBodyError):
            covering_radius_diagonal(cross_polytope(2), Z2)


class TestTorusPacking:
    def test_boundary(self):
        assert torus_packing_volume(BOX2, Lattice([[3, 0], [0, 3]]), Fraction(3, 2)) == 9

    def test_interior(self):
        assert torus_packing_volume(BOX2, Lattice([[3, 0], [0, 3]]), 1) == 4

    def test_exact_tiling(self):
        assert torus_packing_volume(BOX2, Z2, Fraction(1, 2)) == 1

    def test_violation_rejected(self):
        with pytest.raises(PackingConditionError):
            torus_packing_volume(BOX2, Lattice([[3, 0], [0, 3]]), 2)


class TestDimensionMismatch:
    """A body of the wrong dimension is an error, never a silent count."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: count_points(BOX2, Z3, 1),
            lambda: enumerate_points(BOX2, Z3, 1),
            lambda: distinct_cosets_in_body(BOX2, Z3, Z3.scale(2), 1),
            lambda: vdc_lower(BOX2, Z3, 1),
            lambda: count_points(BOX2, Z3, 0),
            lambda: count_points(unit_cube(3), Z2, 1),
            lambda: successive_minima(unit_cube(3), Z2, 1),
        ],
        ids=["count", "enumerate", "cosets", "vdc", "count-at-zero", "count-3d-body",
             "minima-3d-body"],
    )
    def test_raises(self, call):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()


# ---------------------------------------------------------------------------
# the integer candidate engine on inputs the campaign generator never builds
# ---------------------------------------------------------------------------

HEXAGON = [[1, 0], [0, 1], [1, 1]]
ORACLE_BOX_CAP = 1500


def rational_body(rng, n):
    """A box, a scaled cross-polytope, or a scaled and sheared hexagon."""
    mu = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    kind = rng.randrange(3)
    if kind == 0:
        return Box([Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(n)])
    if kind == 1 or n != 2:
        return cross_polytope(n).scale(mu)
    s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return SymmetricPolytope([[a / mu, (b + s * a) / mu] for a, b in HEXAGON])


def skewed_cases(seed, count):
    """(rng, body, short rows, lattice): the lattice is given by the short
    rational rows (common denominator up to 12) sheared by a unimodular
    map, so its Hermite form reaches entries near 10^3; ranks 1..n."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 3)
        rank = rng.randint(1, n)
        d = rng.randint(1, 12)
        while True:
            short = [[Fraction(rng.randint(-9, 9), d) for _ in range(n)] for _ in range(rank)]
            if oracles.frac_rank(short) == rank:
                break
        given = [row[:] for row in short]
        for _ in range(6):
            i, j = rng.randrange(rank), rng.randrange(rank)
            if i != j:
                c = rng.randint(-30, 30)
                given[i] = [a + c * b for a, b in zip(given[i], given[j])]
        yield rng, rational_body(rng, n), short, Lattice(given, n)


def oracle_box(body_dict, rows, radius):
    """Points the brute-force oracle visits at this radius."""
    duals = oracles._dual_in_span(rows)
    return math.prod(2 * math.floor(radius * oracles.support(body_dict, u)) + 1 for u in duals)


def combine(coeffs, rows):
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]


def forbidden_for(rng, short):
    """One or two forbidden sublattices, lower-rank, full-rank of index 2 or
    3, or mixed; at most two full-rank ones, so they never cover."""
    rank = len(short)
    subs = []
    for _ in range(rng.randint(1, 2)):
        if rank > 1 and rng.random() < 0.5:
            coeffs = [rng.randint(-2, 2) for _ in range(rank)]
            if any(coeffs):
                subs.append([combine(coeffs, short)])
        else:
            p = rng.choice((2, 3))
            c = [rng.randrange(p) for _ in range(rank)]
            rows = [combine([p] + [0] * (rank - 1), short)]
            rows += [combine([c[i]] + [int(i == j) for j in range(1, rank)], short)
                     for i in range(1, rank)]
            subs.append(rows)
    return subs or [[short[0]]]


class TestSkewedRationalInputs:
    def test_enumeration_matches_oracle_in_order(self):
        points = 0
        for rng, body, short, lat in skewed_cases(301, 40):
            bd = body.to_dict()
            radius = max(oracles.gauge(bd, row) for row in short) * rng.choice((1, 2))
            while oracle_box(bd, short, radius) > ORACLE_BOX_CAP:
                radius /= 2
            got = enumerate_points(body, lat, radius)
            expected = oracles.points_within(bd, short, radius)
            expected.sort(key=lambda p: point_sort_key(*p))
            assert got == expected
            points += len(got)
        assert points > 300

    def test_successive_minima_match_oracle(self):
        for _, body, short, lat in skewed_cases(303, 30):
            bd = body.to_dict()
            k = lat.rank
            cap = 2 * sorted(oracles.gauge(bd, row) for row in short)[k - 1]
            if oracle_box(bd, short, cap) > ORACLE_BOX_CAP:
                continue
            res = successive_minima(body, lat, k)
            assert res.values == oracles.brute_minima(bd, short, [], k)
            for w, v in zip(res.witnesses, res.values):
                assert oracles.gauge(bd, w) == v
                assert oracles.in_lattice(short, list(w))
            assert oracles.frac_rank([list(w) for w in res.witnesses]) == k

    def test_restricted_minima_match_oracle(self):
        checked = 0
        for rng, body, short, lat in skewed_cases(307, 30):
            bd = body.to_dict()
            if oracle_box(bd, short, 4 * max(oracles.gauge(bd, r) for r in short)) > ORACLE_BOX_CAP:
                continue
            subs = forbidden_for(rng, short)
            fc = ForbiddenCollection(lat, [Lattice(rows, lat.ambient_dim) for rows in subs])
            k = rng.randint(1, lat.rank)
            expected = oracles.brute_minima(bd, short, subs, k)
            for method in ("auto", "doubling"):
                res = restricted_minima(body, lat, fc, k, method=method)
                assert res.values == expected
                for w, v in zip(res.witnesses, res.values):
                    assert oracles.gauge(bd, w) == v
                    assert not any(oracles.in_lattice(rows, list(w)) for rows in subs)
                assert oracles.frac_rank([list(w) for w in res.witnesses]) == k
            checked += 1
        assert checked > 15

    def test_distinct_cosets_match_oracle(self):
        # cosets modulo M B met by lam K, against a brute-force grouping of
        # the oracle's points: x and x' share a coset iff their coordinates
        # in the sublattice basis differ by integers
        counts = []
        for rng, body, short, lat in skewed_cases(313, 60):
            n = lat.ambient_dim
            if lat.rank != n:
                continue
            while True:
                mix = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                if 0 < abs(oracles.det(mix)) <= 60:
                    break
            sub_rows = [combine(row, short) for row in mix]
            bd = body.to_dict()
            lam = max(oracles.gauge(bd, row) for row in short) * rng.choice((1, 2, 3))
            while oracle_box(bd, short, lam) > ORACLE_BOX_CAP // 4:
                lam /= 2
            columns = [list(col) for col in zip(*sub_rows)]
            cosets = {
                tuple(c % 1 for c in oracles.solve(columns, x))
                for x, _ in [((0,) * n, 0)] + oracles.points_within(bd, short, lam)
            }
            got = distinct_cosets_in_body(body, lat, Lattice(sub_rows, n), lam)
            assert got == len(cosets)
            counts.append(got)
        assert len(counts) > 15 and max(counts) > 10

    def test_integer_independence_matches_rank(self):
        rng = random.Random(311)
        dependent = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            echelon, chosen = [], []
            for _ in range(rng.randint(1, n + 2)):
                if chosen and rng.random() < 0.4:
                    z = combine([rng.randint(-10**6, 10**6) for _ in chosen], chosen)
                    if rng.random() < 0.5:
                        z[rng.randrange(n)] += rng.choice((-1, 1))
                else:
                    z = [rng.randint(-10**3, 10**3) * rng.randint(0, 1) for _ in range(n)]
                if not any(z):
                    continue
                expect = oracles.frac_rank(chosen + [z]) == len(chosen) + 1
                assert minima._add_if_independent(echelon, tuple(z)) == expect
                if expect:
                    chosen.append(z)
                else:
                    dependent += 1
        assert dependent > 100


class TestForbiddenSpans:
    def test_admissible_coords_match_member_and_oracle(self):
        # forbidden sublattices of full and lower rank, given by skewed
        # integer combinations of a skewed ambient basis
        hits = misses = 0
        for rng, _, short, lat in skewed_cases(313, 40):
            rank = lat.rank
            subs = []
            for _ in range(rng.randint(1, 2)):
                sub_rank = rng.randint(1, rank)
                while True:
                    coeffs = [[rng.randint(-20, 20) for _ in range(rank)]
                              for _ in range(sub_rank)]
                    if oracles.frac_rank(coeffs) == sub_rank:
                        break
                subs.append([combine(c, lat.basis) for c in coeffs])
            fc = ForbiddenCollection(lat, [Lattice(rows, lat.ambient_dim) for rows in subs])
            spans = [Lattice(lat.coeff_matrix(sub), rank) for sub in fc.sublattices]
            for _ in range(30):
                if rng.random() < 0.5:
                    z = [rng.randint(-40, 40) for _ in range(rank)]
                else:  # a point of one forbidden sublattice, maybe moved off it
                    rows = rng.choice(subs)
                    x = combine([rng.randint(-3, 3) for _ in rows], rows)
                    z = [int(c) for c in lat.coeffs_of(x)]
                    z[rng.randrange(rank)] += rng.choice((0, 0, 1, -2))
                x = combine(z, lat.basis)
                expect = not any(oracles.in_lattice(rows, x) for rows in subs)
                assert fc.admissible_coords(z) == expect
                assert expect == (not any(span.member(z) for span in spans))
                hits, misses = hits + expect, misses + (not expect)
        assert hits > 300 and misses > 150


def clear_caches():
    minima._successive_minima.cache_clear()
    minima._walk_setup.cache_clear()


class TestMemoSoundness:
    def test_smaller_budget_still_raises(self):
        plane = Lattice([[1, 2, 0], [0, 3, 5]], 3)
        for body, lat, k in ((RECT, Z2, 2), (unit_cube(3), plane, 1)):
            clear_caches()
            with pytest.raises(BudgetExceededError) as cold:
                successive_minima(body, lat, k, budget=2)
            clear_caches()
            warm = successive_minima(body, lat, k)
            assert successive_minima(body, lat, k) == warm
            with pytest.raises(BudgetExceededError) as again:
                successive_minima(body, lat, k, budget=2)
            assert str(again.value) == str(cold.value)
            assert str(cold.value).startswith("enumeration box has ")

    def test_equal_values_share_results(self):
        clear_caches()
        lat = Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        other = Lattice([[2, 1, 0], [2, 4, 1], [3, 1, 4]])
        body = Box([Fraction(3, 2), 1, Fraction(5, 4)])
        spelled = Box(["6/4", Fraction(2, 2), "1.25"])
        assert other == lat and spelled == body
        first = successive_minima(body, lat, 3)
        info = minima._successive_minima.cache_info()
        second = successive_minima(spelled, other, 3)
        assert second.to_dict() == first.to_dict()
        assert minima._successive_minima.cache_info().hits == info.hits + 1
        hexagon = SymmetricPolytope([[Fraction(1, 2), 0], [0, Fraction(1, 3)],
                                     [Fraction(1, 2), Fraction(-1, 3)]])
        spelled = SymmetricPolytope([["2/4", "0/7"], [0, Fraction(3, 9)], ["0.5", "-2/6"]])
        assert spelled == hexagon
        base, other = Lattice([[3, 1], [1, 2]]), Lattice([[4, 3], [1, 2]])
        assert other == base
        assert (successive_minima(spelled, other, 2).to_dict()
                == successive_minima(hexagon, base, 2).to_dict())

    def test_cold_and_warm_results_agree(self):
        def solve_all(cold):
            out = []
            # the restricted test's cases (inputs, forbidden sets and k),
            # then the successive test's inputs
            for rng, body, short, lat in itertools.chain(
                skewed_cases(307, 30), skewed_cases(303, 30)
            ):
                bd = body.to_dict()
                radius = 4 * max(oracles.gauge(bd, r) for r in short)
                if oracle_box(bd, short, radius) > ORACLE_BOX_CAP:
                    continue
                subs = forbidden_for(rng, short)
                fc = ForbiddenCollection(lat, [Lattice(r, lat.ambient_dim) for r in subs])
                k = rng.randint(1, lat.rank)
                for call in (
                    lambda: successive_minima(body, lat, k),
                    lambda: successive_minima(body, lat, lat.rank),
                    lambda: restricted_minima(body, lat, fc, k),
                    lambda: restricted_minima(body, lat, fc, k, method="doubling"),
                ):
                    if cold:
                        clear_caches()
                    out.append(call().to_dict())
            return out

        cold = solve_all(True)
        before = minima._successive_minima.cache_info().hits
        warm = solve_all(False)
        assert minima._successive_minima.cache_info().hits > before
        assert len(cold) > 80 and warm == cold

    def test_lambda_one_walked_once_per_full_rank_pair(self, monkeypatch):
        # k > 1 at full rank takes lambda_1 from the k = 1 entry, so after a
        # warm k = 1 call only the k = 2 radius is walked
        body = Box([Fraction(3, 2), 1, Fraction(5, 4)])
        lat = Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        clear_caches()
        cold = successive_minima(body, lat, 2).to_dict()
        clear_caches()
        successive_minima(body, lat, 1)
        walks = []
        walk = kernel.collect_passing
        monkeypatch.setattr(kernel, "collect_passing", lambda *a: walks.append(a) or walk(*a))
        assert successive_minima(body, lat, 2).to_dict() == cold
        assert len(walks) == 1

    def test_one_set_up_lookup_per_walk(self):
        # a walk hashes its body and lattice once, cold or warm, and also
        # when there is nothing to walk
        body = Box([Fraction(3, 2), 1, Fraction(5, 4)])
        lat = Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 4]])

        def lookups():
            info = minima._walk_setup.cache_info()
            return info.hits + info.misses

        clear_caches()
        for radius in (Fraction(5, 2), Fraction(7, 3), Fraction(0)):
            before = lookups()
            minima._sorted_candidates(body, lat, radius, minima.DEFAULT_BUDGET)
            assert lookups() == before + 1
        before = lookups()
        count_points(body, lat, 3)
        assert lookups() == before + 1

    def test_dimension_mismatch_raises_before_lookup(self):
        clear_caches()
        with pytest.raises(ValueError, match="dimension mismatch"):
            successive_minima(unit_cube(3), Z2, 1)
        assert minima._successive_minima.cache_info() == (0, 0, minima._CACHE_SIZE, 0)
        assert minima._walk_setup.cache_info().currsize == 0
