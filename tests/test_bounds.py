import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from latmin import bounds
from latmin.body import Box, coordinate_section, unit_cube
from latmin.errors import (
    CertificateError,
    InputError,
    MissingSectionError,
    RankError,
    UnsupportedBodyError,
)
from latmin.exactarith import Enclosure
from latmin.harness import generate, rectangle_fixture
from latmin.lattice import Lattice, intersect
from latmin.minima import (
    ForbiddenCollection,
    count_points,
    enumerate_points,
    restricted_minima,
    successive_minima,
)

Z2 = Lattice.standard(2)
BOX2 = unit_cube(2)
RECT = Box([1, Fraction(2, 25)])


class TestMinkowskiFirst:
    def test_tight_unit(self):
        bd = bounds.minkowski_first_bound(BOX2, Z2)
        assert bd.final.lo == bd.final.hi == 1

    def test_tight_scaled(self):
        bd = bounds.minkowski_first_bound(BOX2, Lattice([[2, 0], [0, 2]]))
        assert bd.final.lo == 2

    def test_rectangle_root(self):
        bd = bounds.minkowski_first_bound(RECT, Z2)
        assert bd.final.lo**2 <= Fraction(25, 2) <= bd.final.hi**2
        assert successive_minima(RECT, Z2, 1).values[0] <= bd.final.hi

    def test_lower_rank_with_section(self):
        lat = Lattice([[1, 0]], 2)
        sec = coordinate_section(BOX2, [0])
        bd = bounds.minkowski_first_bound(BOX2, lat, section=sec)
        assert bd.final.lo == 1  # (2 * 1 / 2) ** 1

    def test_lower_rank_without_section_rejected(self):
        with pytest.raises(MissingSectionError):
            bounds.minkowski_first_bound(BOX2, Lattice([[1, 0]], 2))

    def test_wrong_section_rejected(self):
        sec = coordinate_section(BOX2, [1])
        with pytest.raises(InputError):
            bounds.minkowski_first_bound(BOX2, Lattice([[1, 0]], 2), section=sec)


class TestSiegel:
    def test_all_ones(self):
        bd = bounds.siegel_bound([[1, 1, 1]])
        assert bd.final.lo**4 <= 3 <= bd.final.hi**4
        assert bd.intermediates["exact_min_sup_norm"] == 1
        assert bd.final.width <= Fraction(1, 10**9)

    def test_unit_row(self):
        bd = bounds.siegel_bound([[1, 0, 0]])
        assert bd.final.lo == bd.final.hi == 1
        assert bd.intermediates["exact_min_sup_norm"] == 1

    def test_two_one(self):
        bd = bounds.siegel_bound([[2, 1]])
        assert bd.final.lo**2 <= 5 <= bd.final.hi**2
        assert bd.intermediates["exact_min_sup_norm"] == 2

    def test_matches_brute_force(self):
        rng = random.Random(61)
        for _ in range(12):
            n = rng.randint(2, 4)
            m = rng.randint(1, n - 1)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            if oracles.frac_rank(rows) != m:
                continue
            bd = bounds.siegel_bound(rows)
            exact = bd.intermediates["exact_min_sup_norm"]
            assert exact <= bd.final.hi
            if exact <= 10:  # within the oracle's exhaustive horizon
                assert exact == oracles.min_sup_norm_in_kernel(rows, search=10)

    def test_square_rejected(self):
        with pytest.raises(RankError):
            bounds.siegel_bound([[1, 0], [0, 1]])

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError, match="matrix must have full row rank"):
            bounds.siegel_bound([[1, 1, 1], [2, 2, 2]])

    def test_failed_check_raises(self, monkeypatch):
        # an enclosure below the exact minimum 1 must not pass silently
        monkeypatch.setattr(
            bounds, "nth_root_enclosure", lambda *a: Enclosure.point(Fraction(1, 2))
        )
        with pytest.raises(CertificateError, match="fell below"):
            bounds.siegel_bound([[1, 1, 1]])

    def test_failed_check_raises_under_optimize(self):
        script = (
            "from fractions import Fraction\n"
            "from latmin import bounds\n"
            "from latmin.errors import CertificateError\n"
            "assert False, 'asserts are stripped under -O'\n"
            "bounds.nth_root_enclosure = lambda *a: bounds.Enclosure.point(Fraction(1, 2))\n"
            "try:\n"
            "    bounds.siegel_bound([[1, 1, 1]])\n"
            "except CertificateError:\n"
            "    print('raised')\n"
        )
        src = str(Path(bounds.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"


class TestFukshansky:
    def test_single_axis(self):
        bd = bounds.fukshansky_bound(BOX2, Z2, [Lattice([[1, 0]], 2)])
        assert bd.final.lo == bd.final.hi == 13

    def test_two_axes(self):
        bd = bounds.fukshansky_bound(
            BOX2, Z2, [Lattice([[1, 0]], 2), Lattice([[0, 1]], 2)]
        )
        expected = 6 * (2 + math.sqrt(2)) + 1
        assert abs(float(bd.final.lo) - expected) < 1e-12
        assert bd.final.lo <= bd.final.hi

    def test_non_cube_rejected(self):
        with pytest.raises(UnsupportedBodyError):
            bounds.fukshansky_bound(RECT, Z2, [Lattice([[1, 0]], 2)])

    def test_empty_collection_rejected(self):
        with pytest.raises(InputError):
            bounds.fukshansky_bound(BOX2, Z2, [])

    def test_dominance_random(self):
        rng = random.Random(67)
        for _ in range(15):
            n = rng.randint(2, 3)
            inst = generate(rng.randint(0, 10**6), n, rng.randint(1, 2), "lower")
            cube = unit_cube(n)
            fc = ForbiddenCollection(inst.lattice, inst.forbidden)
            exact = restricted_minima(cube, inst.lattice, fc, 1).values[0]
            bd = bounds.fukshansky_bound(cube, inst.lattice, inst.forbidden)
            assert exact <= bd.final.hi


class TestGaudron:
    def test_axis_fixture(self):
        sec = coordinate_section(BOX2, [0])
        bd = bounds.gaudron_bound(BOX2, Z2, [Lattice([[1, 0]], 2)], [sec], [Fraction(1)])
        nu = bd.intermediates["nu"]
        assert abs(float(nu.lo) - 14 * math.sqrt(math.pi / 4)) < 1e-12
        assert bd.final.hi >= 1

    def test_exponent_zero_term(self):
        # r = 2 makes the third max-term (nu/lam)^0 = 1
        sec = coordinate_section(BOX2, [1])
        bd = bounds.gaudron_bound(
            BOX2, Z2, [Lattice([[0, 1]], 2)], [sec], [Fraction(1)]
        )
        assert bd.final.hi >= bd.intermediates["nu"].lo

    def test_missing_sections_rejected(self):
        with pytest.raises(MissingSectionError):
            bounds.gaudron_bound(BOX2, Z2, [Lattice([[1, 0]], 2)], None, [Fraction(1)])
        with pytest.raises(MissingSectionError):
            bounds.gaudron_bound(BOX2, Z2, [Lattice([[1, 0]], 2)], [], [Fraction(1)])

    def test_wrong_rank_rejected(self):
        with pytest.raises(RankError):
            bounds.gaudron_bound(
                unit_cube(3),
                Lattice.standard(3),
                [Lattice([[1, 0, 0]], 3)],
                [coordinate_section(unit_cube(3), [0])],
                [Fraction(1)],
            )

    def test_dominance_sweep_axis_lattices(self):
        # fifty random 2-d boxes with a coordinate-axis forbidden line
        rng = random.Random(71)
        for _ in range(50):
            body = Box(
                [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(2)]
            )
            axis = rng.choice([0, 1])
            sub = Lattice([[1, 0]], 2) if axis == 0 else Lattice([[0, 1]], 2)
            sec = coordinate_section(body, [axis])
            lam_span = successive_minima(body, sub, 1).values[0]
            bd = bounds.gaudron_bound(body, Z2, [sub], [sec], [lam_span])
            fc = ForbiddenCollection(Z2, [sub])
            exact = restricted_minima(body, Z2, fc, 1).values[0]
            assert exact <= bd.final.hi


class TestLowerRankAvoidance:
    def test_axis_fixture(self):
        bd = bounds.avoidance_bound_lower_rank(BOX2, Z2, [Lattice([[1, 0]], 2)])
        assert bd.final.lo == bd.final.hi == Fraction(5, 2)
        assert bd.intermediates["beta"] == Fraction(3, 2)
        assert bd.intermediates["rho"] == 1

    def test_no_forbidden_reduces_to_volume_root(self):
        bd = bounds.avoidance_bound_lower_rank(BOX2, Z2, [])
        mk = bounds.minkowski_first_bound(BOX2, Z2)
        assert bd.final.lo == mk.final.lo and bd.final.hi == mk.final.hi

    def test_rectangle_intermediates(self):
        bd = bounds.avoidance_bound_lower_rank(RECT, Z2, [Lattice([[1, 0]], 2)])
        assert bd.intermediates["beta"] == Fraction(75, 4)
        exact = restricted_minima(
            RECT, Z2, ForbiddenCollection(Z2, [Lattice([[1, 0]], 2)]), 1
        ).values[0]
        assert exact < bd.final.hi

    def test_higher_fixture(self):
        bd = bounds.higher_minima_bound_lower_rank(BOX2, Z2, [Lattice([[1, 0]], 2)], 1)
        assert bd.final.lo == bd.final.hi == 4
        assert bd.intermediates["alpha"] == Fraction(3, 2)

    def test_inner_exponent_one(self):
        # n - j = 1: no root needed, value stays rational
        bd = bounds.higher_minima_bound_lower_rank(BOX2, Z2, [Lattice([[1, 0]], 2)], 1)
        assert bd.final.is_point()

    def test_higher_dominance_n3(self):
        rng = random.Random(73)
        for _ in range(8):
            inst = generate(rng.randint(0, 10**6), 3, rng.randint(1, 2), "lower")
            fc = inst.forbidden_collection()
            res = restricted_minima(inst.body, inst.lattice, fc, 3)
            for j in (1, 2):
                bd = bounds.higher_minima_bound_lower_rank(
                    inst.body, inst.lattice, inst.forbidden, j
                )
                assert res.values[j] < bd.final.hi

    def test_bad_j_rejected(self):
        with pytest.raises(InputError):
            bounds.higher_minima_bound_lower_rank(BOX2, Z2, [Lattice([[1, 0]], 2)], 2)


class TestFullRankAvoidance:
    def test_golden_rectangle(self):
        fx = rectangle_fixture(5)
        bd = bounds.avoidance_bound_full_rank(fx["body"], fx["lattice"], fx["subs"])
        assert bd.final.lo == bd.final.hi == 20
        assert bd.intermediates["m"] == 6
        assert bd.intermediates["lambda1_intersection"] == 5

    def test_improved_golden(self):
        fx = rectangle_fixture(5)
        bd = bounds.avoidance_bound_full_rank(
            fx["body"], fx["lattice"], fx["subs"], improved=True
        )
        assert bd.final.lo == bd.final.hi == Fraction(135, 8)

    def test_single_uses_ambient_term(self):
        bd = bounds.avoidance_bound_full_rank(BOX2, Z2, [Lattice([[2, 0], [0, 2]])])
        assert bd.name == "avoidance-single-full"
        assert bd.final.lo == Fraction(3, 2)

    def test_strictness_where_rational(self):
        rng = random.Random(79)
        for _ in range(12):
            inst = generate(rng.randint(0, 10**6), 2, rng.randint(1, 2), "full")
            fc = inst.forbidden_collection()
            exact = restricted_minima(inst.body, inst.lattice, fc, 1).values[0]
            bd = bounds.avoidance_bound_full_rank(inst.body, inst.lattice, inst.forbidden)
            assert bd.final.is_point()
            assert exact < bd.final.lo

    def test_improved_never_worse_than_generic(self):
        rng = random.Random(83)
        for _ in range(12):
            inst = generate(rng.randint(0, 10**6), 2, 2, "full")
            plain = bounds.avoidance_bound_full_rank(
                inst.body, inst.lattice, inst.forbidden
            )
            improved = bounds.avoidance_bound_full_rank(
                inst.body, inst.lattice, inst.forbidden, improved=True
            )
            generic = (
                plain.intermediates["main_term"]
                + plain.intermediates["lambda1_intersection"]
            )
            assert improved.final.hi <= generic

    def test_higher_golden(self):
        fx = rectangle_fixture(5)
        bd = bounds.higher_minima_bound_full_rank(fx["body"], fx["lattice"], fx["subs"], 2)
        # main 15 + lambda_1(intersection) 5 + lambda_2(intersection) 25
        assert bd.final.lo == 45
        exact2 = restricted_minima(
            fx["body"], fx["lattice"], ForbiddenCollection(fx["lattice"], fx["subs"]), 2
        ).values[1]
        assert exact2 == Fraction(25, 2) <= bd.final.lo
        bd1 = bounds.higher_minima_bound_full_rank(fx["body"], fx["lattice"], fx["subs"], 1)
        plain = bounds.avoidance_bound_full_rank(fx["body"], fx["lattice"], fx["subs"])
        assert bd1.final.lo == plain.final.lo  # no extra term at i = 1

    def test_higher_needs_ith_intersection_minimum(self):
        # the instance where the (i-1)-st intersection minimum would undercount
        body = Box([3, Fraction(1, 2)])
        lat = Lattice([[1, 0], [0, 2]])
        sub = Lattice([[1, 2], [0, 4]])
        fc = ForbiddenCollection(lat, [sub])
        exact = restricted_minima(body, lat, fc, 2)
        assert exact.values == (Fraction(1, 3), 4)
        bd = bounds.higher_minima_bound_full_rank(body, lat, [sub], 2)
        assert exact.values[1] < bd.final.hi
        # the naive (i-1) variant would have produced 10/3 < 4
        naive = (
            bd.intermediates["main_term"]
            + 2 * bd.intermediates["lambda1_intersection"]
        )
        assert naive == Fraction(10, 3) < exact.values[1]

    def test_single_higher_golden(self):
        sub = Lattice([[2, 0], [0, 2]])
        bd = bounds.higher_minima_bound_single_full(BOX2, Z2, sub, 2)
        assert bd.final.lo == Fraction(5, 2)
        bd1 = bounds.higher_minima_bound_single_full(BOX2, Z2, sub, 1)
        assert bd1.final.lo == Fraction(5, 2)  # 1/2 + 1 + 1

    def test_single_higher_dominance_n3(self):
        rng = random.Random(89)
        lat = Lattice.standard(3)
        body = unit_cube(3)
        sub = Lattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        fc = ForbiddenCollection(lat, [sub])
        res = restricted_minima(body, lat, fc, 3)
        for i in (1, 2, 3):
            bd = bounds.higher_minima_bound_single_full(body, lat, sub, i)
            assert res.values[i - 1] <= bd.final.hi


class TestCoveringRadiusBound:
    def test_values(self):
        assert bounds.covering_radius_avoidance_bound(Fraction(1, 2), 1, 1) == 1
        assert bounds.covering_radius_avoidance_bound(Fraction(1, 2), 3, 2) == Fraction(5, 2)
        assert bounds.covering_radius_avoidance_bound(Fraction(25, 4), 2, 1) == Fraction(75, 4)

    def test_validation(self):
        with pytest.raises(InputError):
            bounds.covering_radius_avoidance_bound(Fraction(0), 1, 1)
        with pytest.raises(InputError):
            bounds.covering_radius_avoidance_bound(Fraction(1), 1, 0)


class TestTorusVolume:
    def test_saturated(self):
        lat3 = Lattice([[3, 0], [0, 3]])
        assert bounds.torus_volume_lower_bound(BOX2, lat3, 3) == 9
        assert bounds.torus_volume_lower_bound(BOX2, lat3, Fraction(9, 2)) == 9

    def test_zero(self):
        assert bounds.torus_volume_lower_bound(BOX2, Lattice([[3, 0], [0, 3]]), 0) == 0

    def test_packing_regime_matches_exact(self):
        from latmin.minima import torus_packing_volume

        lat3 = Lattice([[3, 0], [0, 3]])
        for lam in (Fraction(1, 2), 1, 2, 3):
            lower = bounds.torus_volume_lower_bound(BOX2, lat3, lam)
            exact = torus_packing_volume(BOX2, lat3, Fraction(lam) / 2)
            assert lower == min(exact, 9)

    def test_monte_carlo_consistency(self):
        lat3 = Lattice([[3, 0], [0, 3]])
        for lam in (Fraction(3, 2), 3, Fraction(9, 2)):
            lower = bounds.torus_volume_lower_bound(BOX2, lat3, lam)
            est, se = oracles.monte_carlo_torus_volume(
                BOX2, lat3, lam, samples=10**5, seed=12345
            )
            assert float(lower) <= est + 4 * se

    def test_monte_carlo_seed_reproducible(self):
        a = oracles.monte_carlo_torus_volume(BOX2, Z2, 1, samples=2000, seed=7)
        b = oracles.monte_carlo_torus_volume(BOX2, Z2, 1, samples=2000, seed=7)
        assert a == b


class TestCountingBounds:
    def test_fixture_lambda_one(self):
        assert bounds.vdc_lower(BOX2, Z2, 1) == 3
        assert bounds.bhw_upper(BOX2, Z2, 1) == 9
        assert bounds.henze_upper(BOX2, Z2, 1) == 14
        assert count_points(BOX2, Z2, 1) == 9

    def test_fixture_lambda_two(self):
        assert bounds.vdc_lower(BOX2, Z2, 2) == 9
        assert bounds.bhw_upper(BOX2, Z2, 2) == 25
        assert count_points(BOX2, Z2, 2) == 25

    def test_small_dilate(self):
        assert bounds.vdc_lower(BOX2, Z2, Fraction(1, 4)) == 1
        assert count_points(BOX2, Z2, Fraction(1, 4)) == 1

    def test_henze_hypothesis_rejected(self):
        with pytest.raises(InputError):
            bounds.henze_upper(RECT, Z2, 1)  # needs gauge 25/2 for two directions

    def test_sandwich_random(self):
        rng = random.Random(97)
        for _ in range(15):
            n = rng.randint(2, 3)
            inst = generate(rng.randint(0, 10**6), n, 1, "lower")
            lam_n = successive_minima(inst.body, inst.lattice, n).values[-1]
            cnt = count_points(inst.body, inst.lattice, lam_n)
            assert bounds.vdc_lower(inst.body, inst.lattice, lam_n) <= cnt
            assert cnt <= bounds.bhw_upper(inst.body, inst.lattice, lam_n)
            assert cnt <= bounds.henze_upper(inst.body, inst.lattice, lam_n)


class TestCertificateValidity:
    def test_enumeration_at_certificate_radius_finds_witnesses(self):
        rng = random.Random(101)
        for kind in ("lower", "full"):
            for _ in range(6):
                inst = generate(rng.randint(0, 10**6), 2, 1, kind)
                fc = inst.forbidden_collection()
                doubled = restricted_minima(
                    inst.body, inst.lattice, fc, 1, method="doubling"
                )
                certified = restricted_minima(inst.body, inst.lattice, fc, 1)
                pts = enumerate_points(
                    inst.body, inst.lattice, certified.certificate_radius
                )
                assert doubled.witnesses[0] in {x for x, _ in pts}
                assert certified.values == doubled.values
