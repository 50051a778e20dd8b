import bisect
import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from latmin import bounds, cli, harness, kernel, minima
from latmin._intmat import dot
from latmin.body import Box, SymmetricPolytope, cross_polytope, unit_cube
from latmin.bounds import vdc_lower
from latmin.errors import (
    BudgetExceededError,
    CertificateError,
    EmptyAdmissibleSetError,
    PackingConditionError,
    RankError,
    UnsupportedBodyError,
)
from latmin.exactarith import Enclosure, nth_root_enclosure
from latmin.harness import Instance, generate, rectangle_fixture
from latmin.lattice import Lattice, _kernel_rows, kernel_lattice
from latmin.minima import (
    ForbiddenCollection,
    count_points,
    covering_radius_diagonal,
    distinct_cosets_in_body,
    enumerate_points,
    restricted_minima,
    successive_minima,
    torus_packing_volume,
    walk_budget,
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
        with pytest.raises(BudgetExceededError), walk_budget(100):
            enumerate_points(BOX2, Z2, 10**6)

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
            if oracles.contains(inst.lattice.basis, extra.basis):
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

    def test_budget_covers_the_certificate_bound(self, tmp_path, capsys):
        # lambda_1 and the doubling rungs fit in 25 box points, but the
        # Corollary 3.5 evaluator walks larger boxes, and the budget holds
        # for its walks too
        inst = generate(1, 3, 2, "full")
        fc = inst.forbidden_collection()
        with pytest.raises(BudgetExceededError), walk_budget(25):
            restricted_minima(inst.body, inst.lattice, fc, 2)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict()))
        argv = ["restricted", "--instance", str(path), "-k", "2", "--budget", "25"]
        assert cli.main(argv) == 4
        assert cli.main([*argv, "--method", "doubling"]) == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["kind"] == "doubling"

    def test_unknown_method_rejected(self):
        fc = ForbiddenCollection(Z2, [Lattice([[1, 0]], 2)])
        with pytest.raises(ValueError, match="method"):
            restricted_minima(BOX2, Z2, fc, 1, method="bogus")

    def test_cover_decided_once_per_collection(self, monkeypatch):
        calls = []
        real = minima._spans_cover
        monkeypatch.setattr(
            minima, "_spans_cover", lambda *a: calls.append(a) or real(*a)
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
        # the same cover carried onto a rank-2 lattice in R^3 is decided in
        # its coordinates too; without the cover the solve goes ahead
        lift = lambda rows: Lattice([[a, b, a + b] for a, b in rows], 3)
        plane = lift([[1, 0], [0, 1]])
        cube = unit_cube(3)
        members = [lift(m) for m in (
            [[1, 0], [0, 2]], [[2, 0], [0, 1]], [[1, 1], [0, 2]], [[1, 0], [0, 3]])]
        with pytest.raises(EmptyAdmissibleSetError):
            restricted_minima(cube, plane, ForbiddenCollection(plane, members[:3]), 1)
        assert len(calls) == 3
        res = restricted_minima(cube, plane, ForbiddenCollection(plane, members[::3]), 1)
        assert len(calls) == 4
        assert res.values == (1,)  # (0, 1, 1): z2 = 1 is neither even nor 0 mod 3

    def test_forbidden_collection_validation(self):
        from latmin.errors import NotSublatticeError

        with pytest.raises(NotSublatticeError):
            ForbiddenCollection(Z2, [Lattice([[Fraction(1, 2), 0]], 2)])
        with pytest.raises(ValueError):
            ForbiddenCollection(Z2, [])


STRIP = Box([1, Fraction(1, 50)])


def congruence_instance(path, moduli):
    """Write the box [-1, 1] x [-1/50, 1/50] over Z^2 with the members
    diag(p, 1) and diag(1, q) for the given (p, q), either None to leave
    its member out; return the forbidden bases."""
    members = []
    if moduli[0] is not None:
        members.append([[moduli[0], 0], [0, 1]])
    if moduli[1] is not None:
        members.append([[1, 0], [0, moduli[1]]])
    inst = Instance("congruence", "full", STRIP, Z2, tuple(Lattice(m) for m in members), 0)
    path.write_text(json.dumps(inst.to_dict()))
    return members


class TestLargeModuli:
    """Two congruence members never cover Z^2, however large their moduli:
    restricted solves answer lambda_1 = 50, the gauge of (1, 1)."""

    @pytest.mark.parametrize("moduli", [(1009, 1013), (10007, 10009), (999983, 1000003)])
    def test_restricted_answers(self, tmp_path, capsys, moduli):
        path = tmp_path / "inst.json"
        members = congruence_instance(path, moduli)
        for method, kind in (("auto", "theorem-1.2"), ("doubling", "doubling")):
            argv = ["restricted", "--instance", str(path), "-k", "1", "--method", method]
            assert cli.main(argv) == 0
            res = json.loads(capsys.readouterr().out)
            assert res["values"] == ["50"] and res["certificate"]["kind"] == kind
        assert oracles.brute_minima(STRIP.to_dict(), [[1, 0], [0, 1]], members, 1) == (50,)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moduli=st.tuples(st.none() | st.integers(1, 10**6), st.integers(1, 10**6))
           .flatmap(lambda t: st.sampled_from([t, t[::-1]])))
    def test_restricted_exits_cleanly(self, tmp_path, capsys, moduli):
        path = tmp_path / "inst.json"
        members = congruence_instance(path, moduli)
        code = cli.main(["restricted", "--instance", str(path), "-k", "1"])
        out, err = capsys.readouterr()
        assert code in (0, 3, 4) and "Traceback" not in err
        if code == 0:
            expected = oracles.brute_minima(STRIP.to_dict(), [[1, 0], [0, 1]], members, 1)
            assert [Fraction(v) for v in json.loads(out)["values"]] == list(expected)


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
            lambda: distinct_cosets_in_body(BOX2, Z3, Lattice.from_diagonal([2, 2, 2]), 1),
            lambda: vdc_lower(BOX2, Z3, 1),
            lambda: count_points(BOX2, Z3, 0),
            lambda: count_points(unit_cube(3), Z2, 1),
            lambda: successive_minima(unit_cube(3), Z2, 1),
            lambda: covering_radius_diagonal(Box([1, 1, Fraction(1, 100)]), Z2),
            lambda: unit_cube(3).gauge([5, 0]),
            lambda: unit_cube(3).support([5, 0]),
            lambda: cross_polytope(3).gauge([5, 0]),
            lambda: cross_polytope(2).support([5, 0, 1]),
        ],
        ids=["count", "enumerate", "cosets", "vdc", "count-at-zero", "count-3d-body",
             "minima-3d-body", "covering-radius-3d-body", "box-gauge", "box-support",
             "polytope-gauge", "polytope-support"],
    )
    def test_raises(self, call):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()


class TestCertificateCheck:
    """A proved radius that fails to contain the minima raises, never
    returns, also under python -O.  The memos are cleared first, so the
    patched radius is the one walked.  The Minkowski radius is patched on
    the unit square over rows (1, 5), (0, 11): its shortest basis gauge 5
    lies above the root of 2^n det / vol = 11, so the root is taken, and
    lambda_1 = 2, at (2, -1)."""

    HALF = Enclosure.point(Fraction(1, 2))
    SKEW = "Lattice([[1, 5], [0, 11]])"
    FULL = "ForbiddenCollection(Z2, [Lattice([[2, 0], [0, 2]])])"
    PATCHES = {
        # a Minkowski radius below lambda_1 = 2
        "successive": (
            "minima.nth_root_enclosure = lambda *a: HALF",
            f"successive_minima(BOX2, {SKEW}, 1)",
        ),
        # a Theorem 1.2 radius below the restricted minimum 1
        "restricted": (
            "bounds.avoidance_bound_full_rank = "
            "lambda *a, **kw: bounds.BoundBreakdown('patched', HALF, {})",
            f"restricted_minima(BOX2, Z2, {FULL}, 1)",
        ),
    }

    def test_minkowski_radius_below_lambda1(self, monkeypatch):
        lat = Lattice([[1, 5], [0, 11]])
        clear_caches()
        res = successive_minima(BOX2, lat, 1)
        assert res.values == (2,) and res.certificate_radius < 5
        clear_caches()
        monkeypatch.setattr(minima, "nth_root_enclosure", lambda *a: self.HALF)
        with pytest.raises(CertificateError, match="certified radius failed"):
            successive_minima(BOX2, lat, 1)

    def test_bound_below_restricted_minimum(self, monkeypatch):
        clear_caches()
        patched = bounds.BoundBreakdown("patched", self.HALF, {})
        monkeypatch.setattr(bounds, "avoidance_bound_full_rank", lambda *a, **kw: patched)
        fc = ForbiddenCollection(Z2, [Lattice([[2, 0], [0, 2]])])
        with pytest.raises(CertificateError, match="certified radius failed"):
            restricted_minima(BOX2, Z2, fc, 1)

    @pytest.mark.parametrize("case", sorted(PATCHES))
    def test_raises_under_optimize(self, case):
        patch, call = self.PATCHES[case]
        script = (
            "from fractions import Fraction\n"
            "from latmin import bounds, minima\n"
            "from latmin.body import unit_cube\n"
            "from latmin.errors import CertificateError\n"
            "from latmin.exactarith import Enclosure\n"
            "from latmin.lattice import Lattice\n"
            "from latmin.minima import ForbiddenCollection, restricted_minima,"
            " successive_minima\n"
            "assert False, 'asserts are stripped under -O'\n"
            "BOX2, Z2 = unit_cube(2), Lattice.standard(2)\n"
            "HALF = Enclosure.point(Fraction(1, 2))\n"
            f"{patch}\n"
            "try:\n"
            f"    {call}\n"
            "except CertificateError:\n"
            "    print('raised')\n"
        )
        src = str(Path(minima.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


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
    return sheared_hexagon(mu, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def sheared_hexagon(mu, s):
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
            expected.sort(key=lambda p: oracles.point_sort_key(*p))
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

    def test_setup_gauges_and_supports_match_body(self):
        # the walk set-up reads each basis gauge off its integer rows and
        # takes the supports at the dual span vectors as integer pairs
        bodies = set()
        for _, body, _, lat in skewed_cases(317, 40):
            setup = minima._walk_setup(body, lat)
            got = [Fraction(g, setup.big) for g in setup.basis_gauges]
            assert got == sorted(body.gauge(b) for b in lat.basis)
            got = [Fraction(num, den) for num, den in setup.supports]
            rows, m = lat.dual_in_span()
            assert got == [body.support([Fraction(x, m) for x in u]) for u in rows]
            bodies.add(type(body))
        assert bodies == {Box, SymmetricPolytope}

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
        # the greedy pass's test: z is independent of the chosen rows iff
        # some row of their integer complement is not orthogonal to it
        rng = random.Random(311)
        dependent = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            chosen = []
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
                comp = _kernel_rows(chosen, n)
                assert len(comp) == n - len(chosen)
                assert any(map(dot, comp, itertools.repeat(z))) == expect
                if expect:
                    chosen.append(z)
                else:
                    dependent += 1
        assert dependent > 100

    def test_cut_rows_span_the_complement(self):
        # the greedy pass updates its complement rows in place for each
        # chosen point; they span what ``_kernel_rows`` of the chosen points
        # spans, stay orthogonal to them and primitive
        rng = random.Random(313)
        cuts = {3: 0, 4: 0}
        for _ in range(200):
            n = rng.choice((3, 4))
            comp, chosen = [[int(i == j) for j in range(n)] for i in range(n)], []
            while len(chosen) < n:
                if chosen and rng.random() < 0.3:  # often a near-dependent point
                    z = combine([rng.randint(-50, 50) for _ in chosen], chosen)
                    z[rng.randrange(n)] += rng.choice((0, 1, -3))
                else:
                    z = [rng.randint(-20, 20) * rng.randint(0, 1) for _ in range(n)]
                if not any(map(dot, comp, itertools.repeat(z))):
                    continue  # dependent, or zero
                minima._cut(comp, z)
                chosen.append(z)
                ref = _kernel_rows(chosen, n)
                assert len(comp) == len(ref) == n - len(chosen)
                if comp:
                    assert oracles.frac_rank(comp) == oracles.frac_rank(comp + ref) == len(ref)
                assert all(dot(c, x) == 0 for c in comp for x in chosen)
                assert all(math.gcd(*c) == 1 for c in comp)
                cuts[n] += 1
        assert min(cuts.values()) > 200


def full_rank_cases():
    """(body, lattice) at full rank: the skewed inputs, boxes and polytopes
    alike, and generated campaign instances in dimensions 2 and 3."""
    for _, body, _, lat in skewed_cases(337, 60):
        if lat.rank == lat.ambient_dim:
            yield body, lat
    rng = random.Random(339)
    for _ in range(30):
        inst = generate(rng.randint(0, 10**6), rng.randint(2, 3), 1,
                        rng.choice(("lower", "full")))
        yield inst.body, inst.lattice


def minkowski_radius(body, lat):
    """(radius, rooted): the certified radius of lambda_1 at full rank,
    min(the upper end of the root of 2^n det / vol, the shortest basis
    gauge), and whether that gauge's n-th power exceeds 2^n det / vol,
    which is when the root is taken."""
    n = lat.ambient_dim
    ratio = 2**n * lat.det() / body.volume()
    gauge = min(body.gauge(b) for b in lat.basis)
    return min(nth_root_enclosure(ratio, n).hi, gauge), gauge**n > ratio


class TestMinkowskiRadius:
    def test_radius_is_the_smaller_of_root_and_basis_gauge(self):
        # the root is skipped when the basis gauge is at most Minkowski's
        # bound, and the radius is the same as if it were taken
        branches = set()
        for body, lat in full_rank_cases():
            clear_caches()
            radius, rooted = minkowski_radius(body, lat)
            res = successive_minima(body, lat, 1)
            assert res.certificate_radius == radius
            assert res.certificate_kind == minima.CERT_MINKOWSKI
            assert res.values[0] <= radius
            branches.add((type(body), rooted))
        assert branches == {(Box, False), (Box, True),
                            (SymmetricPolytope, False), (SymmetricPolytope, True)}

    def test_root_taken_only_when_the_gauge_test_fails(self, monkeypatch):
        calls = []
        root = minima.nth_root_enclosure
        monkeypatch.setattr(minima, "nth_root_enclosure",
                            lambda *a: calls.append(a) or root(*a))
        rooted = 0
        for body, lat in full_rank_cases():
            clear_caches()
            expected = minkowski_radius(body, lat)[1]
            before = len(calls)
            successive_minima(body, lat, 1)
            successive_minima(body, lat, lat.rank)  # reads the k = 1 entry
            assert len(calls) - before == expected
            rooted += expected
        assert rooted > 5


class TestHalfWalk:
    # the walk visits one member of each pair +-z; the minima keep the
    # canonical one, and the point list, counts and coset labels restore
    # the other, so every public result matches the oracle's full loops
    def test_points_counts_and_cosets_match_oracle(self):
        seen = set()
        for rng, body, short, lat in skewed_cases(331, 60):
            bd = body.to_dict()
            n, rank = lat.ambient_dim, lat.rank
            radius = max(oracles.gauge(bd, row) for row in short) * rng.choice((1, 2, 3))
            while oracle_box(bd, short, radius) > ORACLE_BOX_CAP:
                radius /= 2
            expected = oracles.points_within(bd, short, radius)
            expected.sort(key=lambda p: oracles.point_sort_key(*p))
            assert enumerate_points(body, lat, radius) == expected
            assert count_points(body, lat, radius) == len(expected) + 1
            while True:
                mix = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
                if 1 < abs(oracles.det(mix)) <= 30:
                    break
            sub_rows = [combine(row, short) for row in mix]
            columns = [list(col) for col in zip(*sub_rows)]
            cosets = {
                tuple(c % 1 for c in oracles.solve(columns, x))
                for x in [(0,) * n] + [x for x, _ in expected]
            }
            assert distinct_cosets_in_body(body, lat, Lattice(sub_rows, n), radius) == len(cosets)
            if len(expected) > 4:
                seen.add(type(body))
                seen.add("lower-rank" if rank < n else "full-rank")
                seen.add("d > 1" if lat._denom > 1 else "d = 1")
        assert seen == {Box, SymmetricPolytope, "lower-rank", "full-rank", "d > 1", "d = 1"}

    def test_first_nonzero_signs_of_z_and_x_agree(self):
        # H is echelon with positive pivots, so the first nonzero coordinate
        # of x = z H has the sign of the first nonzero coordinate of z
        def first_nonzero(v):
            return next(a for a in v if a)

        rng = random.Random(337)
        for _ in range(200):
            n = rng.randint(1, 4)
            rank = rng.randint(1, n)
            d = rng.randint(1, 6)
            while True:
                rows = [[Fraction(rng.randint(-20, 20), d) for _ in range(n)] for _ in range(rank)]
                if oracles.frac_rank(rows) == rank:
                    break
            lat = Lattice(rows, n)
            for _ in range(20):
                z = [rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(lat.rank)]
                if any(z):
                    x = [sum(c * row[j] for c, row in zip(z, lat._hermite)) for j in range(n)]
                    assert (first_nonzero(z) > 0) == (first_nonzero(x) > 0)

    def test_candidates_are_canonical_members(self):
        # the walk holds one member of each pair, and its canonical member
        # is the one the point order puts first; together with the
        # partners they are every point
        for _, body, short, lat in skewed_cases(347, 30):
            bd = body.to_dict()
            radius = max(oracles.gauge(bd, row) for row in short)
            while oracle_box(bd, short, radius) > ORACLE_BOX_CAP:
                radius /= 2
            walked, n = minima._points(body, lat, radius)
            records = [] if walked is None else [
                minima._canonical(z, walked.setup.cols) for _, z in walked.pairs[:n]]
            got = [tuple(Fraction(v, lat._denom) for v in rec[3]) for rec in records]
            first = {}
            for x, g in oracles.points_within(bd, short, radius):
                key = max(x, tuple(-v for v in x))
                if key not in first or (oracles.point_sort_key(x, g)
                                        < oracles.point_sort_key(*first[key])):
                    first[key] = (x, g)
            assert sorted(got) == sorted(x for x, _ in first.values())
            for rec in records:
                assert next(v for v in rec[2] if v) > 0


class TestForbiddenSpans:
    def test_admissible_coords_match_member_and_oracle(self):
        # forbidden sublattices of full and lower rank, given by skewed
        # integer combinations of a skewed ambient basis, and a full-rank
        # one of index up to 10^4: a triangular coefficient matrix with that
        # determinant, sheared by unimodular row operations
        hits = misses = 0
        indices = []
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
            while True:
                diag = [rng.randint(1, 60) for _ in range(rank)]
                if 10 < math.prod(diag) <= 10**4:
                    break
            coeffs = [[diag[i] if i == j else rng.randint(0, 40) * (j > i) for j in range(rank)]
                      for i in range(rank)]
            for _ in range(4):
                i, j, c = rng.randrange(rank), rng.randrange(rank), rng.randint(-3, 3)
                if i != j:
                    coeffs[i] = [a + c * b for a, b in zip(coeffs[i], coeffs[j])]
            subs.append([combine(c, lat.basis) for c in coeffs])
            indices.append(abs(oracles.det(coeffs)))
            fc = ForbiddenCollection(lat, [Lattice(rows, lat.ambient_dim) for rows in subs])
            spans = [lat.in_coords(sub) for sub in fc.sublattices]
            lat_columns = [list(col) for col in zip(*lat.basis)]
            for _ in range(30):
                if rng.random() < 0.5:
                    z = [rng.randint(-40, 40) for _ in range(rank)]
                else:  # a point of one forbidden sublattice, maybe moved off it
                    rows = rng.choice(subs)
                    x = combine([rng.randint(-3, 3) for _ in rows], rows)
                    z = [int(c) for c in oracles.solve(lat_columns, x)]
                    z[rng.randrange(rank)] += rng.choice((0, 0, 1, -2))
                x = combine(z, lat.basis)
                expect = not any(oracles.in_lattice(rows, x) for rows in subs)
                assert fc.admissible_coords(z) == expect
                assert expect == (not any(span.member(z) for span in spans))
                hits, misses = hits + expect, misses + (not expect)
        assert hits > 300 and misses > 150
        assert max(indices) > 5000 and all(i <= 10**4 for i in indices)


def clear_caches():
    minima._clear_caches()


class TestMemoSoundness:
    def test_smaller_budget_still_raises(self):
        plane = Lattice([[1, 2, 0], [0, 3, 5]], 3)
        line = ForbiddenCollection(Z2, [Lattice([[1, 0]], 2)])
        for call in (functools.partial(successive_minima, RECT, Z2, 2),
                     functools.partial(successive_minima, unit_cube(3), plane, 1),
                     functools.partial(restricted_minima, RECT, Z2, line, 2)):
            clear_caches()
            with pytest.raises(BudgetExceededError) as cold, walk_budget(2):
                call()
            clear_caches()
            warm = call()
            assert call() == warm
            with pytest.raises(BudgetExceededError) as again, walk_budget(2):
                call()
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
        # forbidden collections over equal lattices, spelled apart, share
        # one restricted entry, and the full-rank evaluators one set of
        # bound terms
        subs = [Lattice([[4, 2, 0], [0, 3, 1], [1, 0, 4]]),
                Lattice([[2, 1, 0], [0, 9, 3], [1, 0, 4]])]
        respelled = [Lattice([[4, 2, 0], [4, 5, 1], [1, 0, 4]]),
                     Lattice([[2, 1, 0], [0, 9, 3], [3, 1, 4]])]
        fc, other_fc = ForbiddenCollection(lat, subs), ForbiddenCollection(other, respelled)
        assert other_fc == fc and hash(other_fc) == hash(fc)
        first = restricted_minima(body, lat, fc, 2)
        info = minima._restricted_minima.cache_info()
        assert restricted_minima(spelled, other, other_fc, 2).to_dict() == first.to_dict()
        assert minima._restricted_minima.cache_info().hits == info.hits + 1
        lower = [Lattice([[2, 1, 0]], 3), Lattice([[0, 3, 1], [1, 0, 4]], 3)]
        for evaluate, given in (
            (bounds.avoidance_bound_full_rank, subs),
            (functools.partial(bounds.avoidance_bound_full_rank, improved=True), subs),
            (functools.partial(bounds.higher_minima_bound_full_rank, i=2), subs),
            (bounds.avoidance_bound_lower_rank, lower),
            (functools.partial(bounds.higher_minima_bound_lower_rank, j=1), lower),
        ):
            assert (evaluate(body, lat, list(given)).to_dict()
                    == evaluate(spelled, other, tuple(given)).to_dict())
        assert bounds._full_rank_terms.cache_info().currsize == 1
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

        # a breakdown's lists are its own: mutating them changes no memo entry
        body = Box([Fraction(3, 2), 1, Fraction(5, 4)])
        lat = Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        full = [Lattice([[4, 2, 0], [0, 3, 1], [1, 0, 4]]),
                Lattice([[2, 1, 0], [0, 9, 3], [1, 0, 4]])]
        lower = [Lattice([[2, 1, 0]], 3), Lattice([[0, 3, 1], [1, 0, 4]], 3)]
        evaluators = (
            lambda: bounds.avoidance_bound_full_rank(body, lat, full),
            lambda: bounds.avoidance_bound_lower_rank(body, lat, lower),
            lambda: bounds.higher_minima_bound_lower_rank(body, lat, lower, 1),
        )
        clear_caches()
        cold = [evaluate().to_dict() for evaluate in evaluators]
        mutated = 0
        for evaluate in evaluators:
            inters = evaluate().intermediates
            for key in ("lambda1_forbidden", "index_ratios"):
                if key in inters:
                    inters[key][0] = Fraction(-1)
                    inters[key].append(Fraction(-2))
                    mutated += 1
        assert mutated == 3
        assert [evaluate().to_dict() for evaluate in evaluators] == cold

    def test_lambda_one_walked_once_per_full_rank_pair(self, monkeypatch):
        # k > 1 at full rank takes lambda_1 from the k = 1 entry, so after a
        # warm k = 1 call only the k = 2 radius is walked, and not even that
        # when it lies within the radius lambda_1 was walked at
        for body, lat, expected in (
            (Box([Fraction(3, 2), 1, Fraction(5, 4)]),
             Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 4]]), 1),
            (unit_cube(2), Z2, 0),
        ):
            clear_caches()
            cold = successive_minima(body, lat, 2).to_dict()
            clear_caches()
            first = successive_minima(body, lat, 1)
            walks = count_walks(monkeypatch)
            hits = minima._successive_minima.cache_info().hits
            assert successive_minima(body, lat, 2).to_dict() == cold
            assert minima._successive_minima.cache_info().hits == hits + 1
            assert len(walks) == expected
            if expected:  # the walk's radius is lambda_2's, beyond lambda_1's
                radius = Fraction(cold["certificate"]["radius"])
                big = minima._walk_setup(body, lat).big
                for _, t, _, _ in walks[0]:
                    assert t == [radius.numerator * big // radius.denominator] * 3
                assert radius > first.certificate_radius
            else:
                assert Fraction(cold["certificate"]["radius"]) <= first.certificate_radius

    def test_one_set_up_lookup_per_walk(self):
        # a walk hashes its body and lattice once, cold or warm, and a read
        # with nothing to walk hashes nothing
        body = Box([Fraction(3, 2), 1, Fraction(5, 4)])
        lat = Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 4]])

        def lookups():
            info = minima._walk_setup.cache_info()
            return info.hits + info.misses

        clear_caches()
        for radius in (Fraction(5, 2), Fraction(7, 3), Fraction(0)):
            before = lookups()
            enumerate_points(body, lat, radius)
            assert lookups() == before + (radius > 0)
        before = lookups()
        count_points(body, lat, 3)
        assert lookups() == before + 1

    def test_dimension_mismatch_raises_before_lookup(self):
        clear_caches()
        with pytest.raises(ValueError, match="dimension mismatch"):
            successive_minima(unit_cube(3), Z2, 1)
        assert minima._successive_minima.cache_info() == (0, 0, minima._CACHE_SIZE, 0)
        assert minima._walk_setup.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the lazy greedy solve against the greedy pass over the sorted point list
# ---------------------------------------------------------------------------


def greedy_reference(body, lat, radius, k, forbidden_rows=()):
    """The first k points of ``enumerate_points`` at the radius that are
    linearly independent of those before them and lie in no forbidden
    lattice, with their gauges; admissibility and rank by the oracles.
    A point whose negation came first is skipped unread: it shares that
    one's admissibility and depends on it."""
    chosen, seen = [], set()
    for x, g in enumerate_points(body, lat, radius):
        seen.add(x)
        if tuple(-v for v in x) in seen:
            continue
        if any(oracles.in_lattice(rows, list(x)) for rows in forbidden_rows):
            continue
        if oracles.frac_rank([list(w) for w, _ in chosen] + [list(x)]) > len(chosen):
            chosen.append((x, g))
            if len(chosen) == k:
                break
    return tuple(g for _, g in chosen), tuple(x for x, _ in chosen)


def lazy_solve_cases():
    """(body, lattice, forbidden rows or None): sharpness rectangles, the
    skewed inputs, sheared hexagons, lower-rank lattices and a thin box
    whose doubling rungs find one witness long before the second."""
    for p, mus in ((5, (1, Fraction(3, 2), 7)), (7, (1, Fraction(2, 9))),
                   (11, (Fraction(5, 3), 4)), (73, (Fraction(17, 5),))):
        fx = rectangle_fixture(p)
        for mu in mus:
            body = Box([mu, mu * fx["alpha"]])
            rows = [[list(r) for r in sub.basis] for sub in fx["subs"]]
            yield body, fx["lattice"], rows
            yield body, fx["lattice"], None
    for rng, body, short, lat in skewed_cases(331, 30):
        bd = body.to_dict()
        if oracle_box(bd, short, 4 * max(oracles.gauge(bd, r) for r in short)) > ORACLE_BOX_CAP:
            continue
        yield body, lat, forbidden_for(rng, short)
        yield body, lat, None
    for mu, s in ((Fraction(1), Fraction(-2, 3)), (Fraction(7, 2), Fraction(3, 2))):
        hexagon = sheared_hexagon(mu, s)
        lat = Lattice([[3, 1], [1, 2]])
        yield hexagon, lat, [[[3, 1]]]
        yield hexagon, lat, [[[6, 2], [1, 2]]]
        yield hexagon, lat, None
    plane = Lattice([[1, 2, 0], [0, 3, 5]], 3)
    line = Lattice([[2, -1, 3]], 3)
    for body in (Box([1, Fraction(1, 2), Fraction(3, 4)]), cross_polytope(3).scale(2)):
        yield body, plane, [[[1, 5, 5]]]
        yield body, plane, [[[2, 4, 0], [0, 3, 5]]]
        yield body, plane, None
        yield body, line, None
    thin = Box([1, Fraction(1, 10)])
    yield thin, Z2, [[[1, 1]]]
    yield thin, Z2, [[[1, 0], [0, 2]]]
    yield thin, Z2, None


def count_walks(monkeypatch):
    """The walks of collect reads from now on: one walk is the list of
    kernel calls (g, t, lo, hi) one read of ``minima._points`` makes, one
    per slab of its shell, all with one t; a read that walks nothing adds
    no walk."""
    walks, calls = [], []
    walk, points = kernel.collect_passing, minima._points

    def read(*args):
        calls.clear()
        out = points(*args)
        if calls:
            assert len({tuple(t) for _, t, _, _ in calls}) == 1
            walks.append(list(calls))
        return out

    monkeypatch.setattr(kernel, "collect_passing", lambda *a: calls.append(a) or walk(*a))
    monkeypatch.setattr(minima, "_points", read)
    return walks


class TestWalkBudget:
    """One limit, set for a scope by ``walk_budget``, bounds every walk."""

    SQUARE = Lattice([[2, 0], [0, 2]])
    LINE = Lattice([[1, 0]], 2)
    HALVES = [Lattice([[2, 0], [0, 1]]), Lattice([[1, 0], [0, 2]])]

    def entry_points(self):
        """The public calls that walk, each on an input whose walks hold
        more than one box point."""
        inst = generate(5, 2, 1, "full")
        return {
            "enumerate_points": lambda: enumerate_points(BOX2, Z2, 1),
            "successive_minima": lambda: successive_minima(BOX2, Z2, 2),
            "restricted_minima": lambda: restricted_minima(
                BOX2, Z2, ForbiddenCollection(Z2, [self.LINE]), 1),
            "count_points": lambda: count_points(BOX2, Z2, 1),
            "distinct_cosets_in_body": lambda: distinct_cosets_in_body(
                BOX2, Z2, self.SQUARE, 1),
            "torus_packing_volume": lambda: torus_packing_volume(
                BOX2, self.SQUARE, Fraction(1, 2)),
            "siegel_bound": lambda: bounds.siegel_bound([[1, 1, 1]]),
            "avoidance_bound_lower_rank": lambda: bounds.avoidance_bound_lower_rank(
                BOX2, Z2, [self.LINE]),
            "higher_minima_bound_lower_rank": lambda: bounds.higher_minima_bound_lower_rank(
                BOX2, Z2, [self.LINE], 1),
            "avoidance_bound_full_rank": lambda: bounds.avoidance_bound_full_rank(
                BOX2, Z2, self.HALVES),
            "higher_minima_bound_full_rank": lambda: bounds.higher_minima_bound_full_rank(
                BOX2, Z2, self.HALVES, 2),
            "higher_minima_bound_single_full": lambda: bounds.higher_minima_bound_single_full(
                BOX2, Z2, self.SQUARE, 2),
            "torus_volume_lower_bound": lambda: bounds.torus_volume_lower_bound(
                BOX2, self.SQUARE, 1),
            "bhw_upper": lambda: bounds.bhw_upper(BOX2, Z2, 1),
            "henze_upper": lambda: bounds.henze_upper(BOX2, Z2, 2),
            "run_examples": harness.run_examples,
            "check_instance": lambda: harness.check_instance(
                inst, random.Random(0), mu_trials=1),
            "verify": lambda: harness.verify(trials=1, dims=(2,), kinds=("lower",), seed=0),
            "verify_torus": lambda: harness.verify_torus(trials=1, seed=0),
        }

    def test_every_entry_point_raises_under_a_limit_of_one(self):
        # cold, then after a warm call under the default limit: the memos
        # key on the limit, so the second call walks again and raises alike
        calls = self.entry_points()
        assert len(calls) == 19
        for name, call in calls.items():
            clear_caches()
            with pytest.raises(BudgetExceededError) as cold, walk_budget(1):
                call()
            call()
            with pytest.raises(BudgetExceededError) as warm, walk_budget(1):
                call()
            assert str(cold.value).startswith("enumeration box has "), name
            assert str(warm.value) == str(cold.value), name

    def test_scopes_nest_and_restore_the_outer_limit(self):
        clear_caches()
        # count_points(BOX2, Z2, 1) walks a box of 9 points, at 2 one of 25
        with walk_budget(9):
            with pytest.raises(BudgetExceededError, match="budget is 8$"), walk_budget(8):
                count_points(BOX2, Z2, 1)
            assert count_points(BOX2, Z2, 1) == 9
            with pytest.raises(BudgetExceededError, match="box has 25 points, budget is 9$"):
                count_points(BOX2, Z2, 2)
        assert count_points(BOX2, Z2, 2) == 25
        assert minima._budget.get() == minima.DEFAULT_BUDGET


class TestLazySolve:
    def test_matches_greedy_over_enumerated_points(self, monkeypatch):
        walks = count_walks(monkeypatch)
        solves = held = 0
        for body, lat, rows in lazy_solve_cases():
            fc = None if rows is None else ForbiddenCollection(
                lat, [Lattice(r, lat.ambient_dim) for r in rows])
            for k in range(1, lat.rank + 1):
                if fc is None:
                    # the second call bypasses the memo, so it solves again
                    calls = [functools.partial(successive_minima, body, lat, k),
                             functools.partial(minima._successive_minima.__wrapped__,
                                               body, lat, k, minima.DEFAULT_BUDGET)]
                else:
                    # the second pair bypasses the memo, so it solves again
                    calls = [functools.partial(restricted_minima, body, lat, fc, k, method=method)
                             for method in ("auto", "doubling")]
                    calls += [functools.partial(minima._restricted_minima.__wrapped__, body, lat,
                                                fc, k, minima.DEFAULT_BUDGET, method)
                              for method in ("auto", "doubling")]
                for i, call in enumerate(calls):
                    warm = i >= len(calls) // 2
                    if warm:
                        # the same solve again, the slot holding a walk of
                        # this (body, lattice) at 4 lambda_k, or the larger
                        # one held already with the tie levels it ordered
                        minima._points(body, lat, 4 * lam_k)
                        before = len(walks)
                    res = call()
                    lam_k = res.values[-1]
                    held += warm and len(walks) == before
                    # any radius from lambda_k on has the same first k
                    # points; twice lambda_k keeps the p = 73 lists short
                    assert res.values[-1] <= res.certificate_radius
                    radius = min(res.certificate_radius, 2 * res.values[-1])
                    expected = greedy_reference(body, lat, radius, k, rows or ())
                    assert (res.values, res.witnesses) == expected
                    solves += 1
        # every warm solve read the held walk and walked nothing
        assert solves > 300 and 2 * held == solves

    def test_admissibility_tested_lazily(self, monkeypatch):
        # restricted lambda_1 of the p = 73 rectangle: the rungs below it
        # test each of their points once and its own rung stops at the
        # witness, so no more tests than canonical points with gauge <= it
        fx = rectangle_fixture(73)
        body, lat = fx["body"], fx["lattice"]
        clear_caches()
        calls = []
        test = ForbiddenCollection.admissible_coords
        monkeypatch.setattr(ForbiddenCollection, "admissible_coords",
                            lambda self, z: calls.append(z) or test(self, z))
        res = restricted_minima(body, lat, ForbiddenCollection(lat, fx["subs"]), 1)
        assert res.values == (Fraction(73 * 73, 2),)
        within = len(enumerate_points(body, lat, res.values[0])) // 2
        assert 0 < len(calls) <= within
        assert len(set(calls)) == len(calls)

    def test_solves_never_sort_every_candidate(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a solve sorted every candidate")

        monkeypatch.setattr(minima, "enumerate_points", refuse)
        clear_caches()
        fx = rectangle_fixture(11)
        fc = ForbiddenCollection(fx["lattice"], fx["subs"])
        for method in ("auto", "doubling"):
            restricted_minima(fx["body"], fx["lattice"], fc, 2, method=method)
        successive_minima(fx["body"], fx["lattice"], 2)


class TestHeldWalk:
    """The walk of the last collect read, kept for the next read of the same
    (body, lattice) at or below its radius; the p = 73 rectangle's minima
    lie on one gauge level of 5,329 tied points."""

    def rectangle(self):
        fx = rectangle_fixture(73)
        return fx["body"], fx["lattice"], ForbiddenCollection(fx["lattice"], fx["subs"])

    def test_successive_after_restricted_walks_nothing(self, monkeypatch):
        body, lat, fc = self.rectangle()
        clear_caches()
        restricted = restricted_minima(body, lat, fc, 1)
        walks = count_walks(monkeypatch)
        successive = successive_minima(body, lat, 2)
        assert walks == []
        assert successive.values == (1, Fraction(73 * 73, 2))
        assert successive.certificate_radius <= restricted.certificate_radius

    def test_tie_level_keyed_once(self, monkeypatch):
        # the level is sorted by |z_0| and only the runs the passes reach
        # are keyed; the parent keyed all 5,329 points in each solve
        body, lat, fc = self.rectangle()
        clear_caches()
        keyed = []
        canonical = minima._canonical
        monkeypatch.setattr(minima, "_canonical",
                            lambda z, cols: keyed.append(z) or canonical(z, cols))
        restricted_minima(body, lat, fc, 1)
        successive_minima(body, lat, 2)
        assert 0 < len(keyed) < 100

    def test_budget_checked_on_a_held_walk(self):
        body, lat, fc = self.rectangle()
        for call in (lambda: successive_minima(body, lat, 2),
                     lambda: restricted_minima(body, lat, fc, 1)):
            clear_caches()
            with pytest.raises(BudgetExceededError) as cold, walk_budget(2):
                call()
            clear_caches()
            held, n = minima._points(body, lat, Fraction(2 * 73 * 73))
            assert n == len(held.pairs) > 0
            with pytest.raises(BudgetExceededError) as warm, walk_budget(2):
                call()
            assert str(warm.value) == str(cold.value)
            assert str(cold.value).startswith("enumeration box has ")
            assert minima._slot is held


class TestHeldCounts:
    """A count of (body, lattice) at or below the radius of the walk the
    slot holds for the pair is read off that walk."""

    def solved(self):
        """(body, lattice, held radius, dilates at or below it) after a
        solve of all minima of each pair, which leaves its walk held."""
        for body, lat, _ in lazy_solve_cases():
            clear_caches()
            res = successive_minima(body, lat, lat.rank)
            held = minima._slot
            assert held.setup is minima._walk_setup(body, lat)
            radius = held.radius
            lams = {*res.values, radius, radius / 3, res.values[0] / 2, Fraction(0)}
            yield body, lat, radius, sorted(lam for lam in lams if lam <= radius)

    def test_held_counts_match_fresh_counts(self, monkeypatch):
        strips = []
        count = kernel.count_passing
        monkeypatch.setattr(kernel, "count_passing",
                            lambda *a: strips.append(a) or count(*a))
        checked = 0
        for body, lat, radius, lams in self.solved():
            got = [count_points(body, lat, lam) for lam in lams]
            assert strips == []
            lams.append(2 * radius)  # beyond the held walk: counted afresh
            got.append(count_points(body, lat, lams[-1]))
            # one count: a call per slab of the origin shell, all with one t
            hi = minima._walk_system(body, lat, lams[-1])[1]
            top = minima._top(lams[-1], minima._walk_setup(body, lat).big)
            assert [(lo, up) for _, _, lo, up in strips] == minima._shell([0] * len(hi), hi)
            assert all(t == [top] * len(t) for _, t, _, _ in strips)
            clear_caches()
            assert got == [count_points(body, lat, lam) for lam in lams]
            assert minima._slot is None  # a fresh count holds nothing
            strips.clear()
            checked += len(lams)
        assert checked > 200

    def test_smaller_budget_raises_on_a_held_walk(self):
        # the budget decides as if the whole box were walked, held or not
        checked = 0
        for body, lat, radius, _ in self.solved():
            held = minima._slot
            hi = minima._walk_system(body, lat, radius)[1]
            size = kernel.box_size([-v for v in hi], hi)
            expected = count_points(body, lat, radius)
            with pytest.raises(BudgetExceededError, match=f"box has {size} points"):
                with walk_budget(size - 1):
                    count_points(body, lat, radius)
            with walk_budget(size):
                assert count_points(body, lat, radius) == expected
            assert minima._slot is held
            checked += 1
        assert checked > 50

    def test_held_count_looks_up_once_and_walks_nothing(self, monkeypatch):
        body = Box([Fraction(3, 2), 1, Fraction(5, 4)])
        lat = Lattice([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
        clear_caches()
        radius = successive_minima(body, lat, 3).certificate_radius
        assert minima._slot.radius >= radius
        strips = []
        monkeypatch.setattr(kernel, "count_passing", lambda *a: strips.append(a))
        info = minima._walk_setup.cache_info()
        count_points(body, lat, radius)
        after = minima._walk_setup.cache_info()
        assert (after.hits + after.misses) - (info.hits + info.misses) == 1
        assert strips == []


# ---------------------------------------------------------------------------
# capped solves: every rung collects at the cap, and a rung beyond the held
# walk walks only the shell its box adds
# ---------------------------------------------------------------------------


def canonical_pairs(pairs, cols):
    """(gauge numerator, canonical member) of each pair, sorted."""
    return sorted((g, minima._canonical(z, cols)[2]) for g, z in pairs)


def fresh_walk(body, lat, radius):
    """One fresh collect walk at the radius: the slabs of the shell between
    the origin and the box of the radius, one member of each pair."""
    setup = minima._walk_setup(body, lat)
    hi = minima._walk_system(body, lat, radius)[1]
    t = [minima._top(radius, setup.big)] * len(setup.weighted)
    return [pair for lo, up in minima._shell([0] * len(hi), hi)
            for pair in kernel.collect_passing(setup.weighted, t, lo, up)]


class TestOriginShell:
    def test_slabs_are_the_half_box_after_zero(self):
        # every box with half-widths 0..2 in r = 1..4 dimensions: the slabs
        # of the shell around the origin hold, slab after slab, the members
        # of the pairs +-z whose last nonzero coordinate is positive, in
        # odometer order, so each nonzero point or its negation exactly once
        def odometer(lo, hi):  # every z in the box, axis 0 fastest
            axes = [range(a, b + 1) for a, b in zip(lo, hi)]
            return [z[::-1] for z in itertools.product(*reversed(axes))]

        boxes = 0
        for r in range(1, 5):
            for hi in itertools.product(range(3), repeat=r):
                hi = list(hi)
                box = odometer([-h for h in hi], hi)
                got = [z for lo, up in minima._shell([0] * r, hi) for z in odometer(lo, up)]
                assert got == box[box.index((0,) * r) + 1:]
                assert all([v for v in z if v][-1] > 0 for z in got)
                partners = [tuple(-v for v in z) for z in got]
                assert sorted(got + partners) == sorted(z for z in box if any(z))
                boxes += 1
        assert boxes == 3 + 9 + 27 + 81


def key_tie_levels(held, n):
    """Put every tie level among the first n pairs in key order, as the
    greedy pass does when it reaches them, and return how many there are."""
    levels, i = 0, 0
    while i < n:
        j = bisect.bisect_right(held.pairs, held.pairs[i][0], i, n, key=lambda p: p[0])
        if j - i > 1:
            list(minima._tie_level(held, i, j))
            levels += 1
        i = j
    return levels


def keyed_runs_in_key_order(held):
    """Whether each run that ``keyed`` marks holds canonical members in key
    order: the pairs from its start that share its gauge and |z_0|."""
    pairs, cols = held.pairs, held.setup.cols
    for a in held.keyed:
        b = a + 1
        while (b < len(pairs) and pairs[b][0] == pairs[a][0]
               and abs(pairs[b][1][0]) == abs(pairs[a][1][0])):
            b += 1
        keys = [minima._canonical(z, cols) for _, z in pairs[a:b]]
        if b - a > 1 and (keys != sorted(keys) or any(k[2] != z for k, (_, z) in zip(keys, pairs[a:b]))):
            return False
    return True


class TestShellRungs:
    def test_extensions_match_a_fresh_walk(self, monkeypatch):
        # rungs doubling up to a cap, with uncapped reads in between that
        # extend the slot under a lower gauge bound; after each read the
        # slot's pairs up to the held radius are those of one fresh walk,
        # and the tie levels put in key order before it stay so
        walks = count_walks(monkeypatch)
        levels = 0
        rng = random.Random(401)
        extended = 0
        kinds = set()
        for body, lat, _ in lazy_solve_cases():
            lam = successive_minima(body, lat, lat.rank).values
            cap = 2 * lam[-1]
            minima._slot = None
            radius = lam[0] / 2
            while True:
                reads = [(radius, cap)]
                if rng.random() < 0.3:
                    reads.append((min(radius * Fraction(5, 4), cap), None))
                for r, c in reads:
                    before, prev = len(walks), minima._slot
                    held, n = minima._points(body, lat, r, c)
                    if len(walks) > before and held is prev:  # extended the held walk
                        extended += 1
                        kinds.add((type(body), lat.rank, lat.ambient_dim))
                    cols = held.setup.cols
                    assert held.radius >= r and n == held.upto(r)
                    assert [g for g, _ in held.pairs] == sorted(g for g, _ in held.pairs)
                    top = minima._top(held.radius, held.setup.big)
                    got = [pair for pair in held.pairs if pair[0] <= top]
                    assert canonical_pairs(got, cols) == canonical_pairs(
                        fresh_walk(body, lat, held.radius), cols)
                    # nothing outside the held box, and no pair twice
                    assert all(abs(v) <= h for _, z in held.pairs for v, h in zip(z, held.hi))
                    assert len(canonical_pairs(held.pairs, cols)) == len(
                        {minima._canonical(z, cols)[2] for _, z in held.pairs})
                    assert keyed_runs_in_key_order(held)
                    levels += key_tie_levels(held, n)
                if radius >= cap:
                    break
                radius = min(2 * radius, cap)
        assert extended > 100 and levels > 100
        assert {(Box, 2, 2), (SymmetricPolytope, 2, 2), (Box, 2, 3), (Box, 1, 3),
                (SymmetricPolytope, 2, 3), (SymmetricPolytope, 1, 3)} <= kinds

    def test_capped_solve_holds_no_more_than_the_cap_walk(self, monkeypatch):
        held = []
        points = minima._points

        def recorded(*args):
            out = points(*args)
            held.append(len(minima._slot.pairs) if minima._slot else 0)
            return out

        monkeypatch.setattr(minima, "_points", recorded)
        solves = 0
        for body, lat, rows in lazy_solve_cases():
            if rows is None:
                continue
            fc = ForbiddenCollection(lat, [Lattice(r, lat.ambient_dim) for r in rows])
            if fc.classification == "mixed" or lat.rank != lat.ambient_dim:
                continue
            for k in range(1, lat.rank + 1):
                _, cap = minima._certificate(body, lat, fc, k)
                lam1 = successive_minima(body, lat, 1).values[0]
                minima._slot = None
                held.clear()
                minima._solve(body, lat, k, min(lam1, cap), cap, fc.admissible_coords)
                assert held and max(held) <= len(fresh_walk(body, lat, cap))
                solves += 1
        assert solves > 30

    def test_rectangle_solves_visit_each_box_point_once(self, monkeypatch):
        # restricted lambda_1, then lambda_2, on the p = 73 rectangle: the
        # final rung's half box holds 8,323 points, and the Minkowski walk
        # of lambda_1 and the first rung's few more; re-walking every rung
        # visited 12,419
        visited = []
        walk = kernel.collect_passing

        def counted(g, t, lo, hi):
            visited.append(kernel.box_size(lo, hi))
            return walk(g, t, lo, hi)

        fx = rectangle_fixture(73)
        body, lat = fx["body"], fx["lattice"]
        clear_caches()
        monkeypatch.setattr(kernel, "collect_passing", counted)
        restricted = restricted_minima(body, lat, ForbiddenCollection(lat, fx["subs"]), 1)
        successive = successive_minima(body, lat, 2)
        assert restricted.values == (Fraction(73 * 73, 2),)
        assert successive.values == (1, Fraction(73 * 73, 2))
        assert sum(visited) <= 8400
