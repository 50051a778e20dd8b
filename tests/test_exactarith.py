import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from latmin.exactarith import (
    DEFAULT_POLICY,
    Enclosure,
    PrecisionPolicy,
    ball_volume_enclosure,
    enclosure_max,
    format_rational,
    laguerre_at_minus_two,
    nth_root_enclosure,
    nth_root_of_enclosure,
    parse_rational,
    pi_enclosure,
    pow_enclosure,
    sqrt_enclosure,
)

# frozen 15-digit decimal bracket; independent of the package's pi series
PI_LO = Fraction(314159265358979, 10**14)
PI_HI = Fraction(314159265358980, 10**14)

rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1000), max_denominator=10**6
)


def contains(enc, x):
    return enc.lo <= x <= enc.hi


class TestNthRoot:
    def test_perfect_square_is_exact(self):
        assert nth_root_enclosure(4, 2) == Enclosure.point(2)
        assert nth_root_enclosure(Fraction(9, 4), 2) == Enclosure.point(Fraction(3, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_one_is_fixed_point(self, n):
        assert nth_root_enclosure(1, n) == Enclosure.point(1)

    def test_fourth_root_of_three(self):
        enc = nth_root_enclosure(3, 4)
        assert enc.lo**4 <= 3 <= enc.hi**4
        assert enc.width <= Fraction(1, 10**9)

    def test_zero(self):
        assert nth_root_enclosure(0, 5) == Enclosure.point(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            nth_root_enclosure(-1, 2)

    @given(x=rationals, n=st.integers(min_value=1, max_value=8))
    def test_soundness(self, x, n):
        enc = nth_root_enclosure(x, n)
        assert enc.lo**n <= x <= enc.hi**n

    @given(x=rationals, n=st.integers(min_value=1, max_value=6))
    def test_monotone_refinement(self, x, n):
        coarse = nth_root_enclosure(x, n, PrecisionPolicy(Fraction(1, 2**20)))
        fine = nth_root_enclosure(x, n, PrecisionPolicy(Fraction(1, 2**40)))
        assert fine.lo >= coarse.lo
        assert fine.hi <= coarse.hi
        assert fine.width <= coarse.width

    def test_refinement_halves_width(self):
        widths = []
        for bits in (10, 11, 12, 13):
            enc = nth_root_enclosure(3, 4, PrecisionPolicy(Fraction(1, 2**bits)))
            widths.append(enc.width)
        for a, b in zip(widths, widths[1:]):
            assert b <= a / 2


class TestPi:
    def test_pi_matches_reference_digits(self):
        enc = pi_enclosure()
        assert PI_LO <= enc.lo <= PI_HI
        assert PI_LO <= enc.hi <= PI_HI
        assert enc.width <= DEFAULT_POLICY.target_width


class TestBallVolume:
    def test_dimension_one(self):
        assert ball_volume_enclosure(1) == Enclosure.point(2)

    def test_dimension_two_is_pi(self):
        enc = ball_volume_enclosure(2)
        assert enc.lo >= PI_LO - Fraction(1, 10**12)
        assert enc.hi <= PI_HI + Fraction(1, 10**12)
        assert enc.width <= Fraction(1, 10**9)

    def test_dimension_four_recurrence(self):
        # vol_4 = pi^2 / 2
        enc = ball_volume_enclosure(4)
        cushion = Fraction(1, 10**12)
        assert enc.lo >= PI_LO**2 / 2 - cushion
        assert enc.hi <= PI_HI**2 / 2 + cushion

    def test_dimension_three(self):
        # vol_3 = 4 pi / 3
        enc = ball_volume_enclosure(3)
        cushion = Fraction(1, 10**12)
        assert enc.lo >= 4 * PI_LO / 3 - cushion
        assert enc.hi <= 4 * PI_HI / 3 + cushion


class TestLaguerre:
    @pytest.mark.parametrize("n,expected", [(1, 3), (2, 7), (3, Fraction(43, 3))])
    def test_small_values(self, n, expected):
        assert laguerre_at_minus_two(n) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_symbolic_oracle(self, n):
        expected = Fraction(str(sympy.Rational(sympy.laguerre(n, sympy.Rational(-2)))))
        assert laguerre_at_minus_two(n) == expected


class TestEnclosureArithmetic:
    @given(
        a=rationals, b=rationals, c=rationals, d=rationals,
        x=st.fractions(min_value=0, max_value=1, max_denominator=100),
        y=st.fractions(min_value=0, max_value=1, max_denominator=100),
    )
    def test_containment_under_ops(self, a, b, c, d, x, y):
        e1 = Enclosure(min(a, b), max(a, b))
        e2 = Enclosure(min(c, d), max(c, d))
        # pick actual values inside each interval
        v1 = e1.lo + x * (e1.hi - e1.lo)
        v2 = e2.lo + y * (e2.hi - e2.lo)
        assert contains(e1 + e2, v1 + v2)
        assert contains(e1 - e2, v1 - v2)
        assert contains(e1 * e2, v1 * v2)
        if e2.lo > 0:
            assert contains(e1 / e2, v1 / v2)
        assert contains(enclosure_max(e1, e2), max(v1, v2))
        assert contains(-e1, -v1)

    def test_division_straddling_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Enclosure.point(1) / Enclosure(Fraction(-1), Fraction(1))

    def test_int_pow(self):
        e = Enclosure(Fraction(2), Fraction(3))
        assert e.int_pow(2) == Enclosure(Fraction(4), Fraction(9))
        assert e.int_pow(0) == Enclosure.point(1)

    def test_root_of_enclosure(self):
        e = Enclosure(Fraction(4), Fraction(9))
        root = nth_root_of_enclosure(e, 2)
        assert root.lo == 2 and root.hi == 3

    def test_pow_enclosure_half(self):
        assert pow_enclosure(Enclosure.point(4), 1, 2) == Enclosure.point(2)
        e = pow_enclosure(Enclosure.point(2), 3, 2)  # 2^(3/2)
        assert e.lo**2 <= 8 <= e.hi**2

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Enclosure(Fraction(1), Fraction(0))

    def test_sqrt_helper(self):
        assert sqrt_enclosure(Fraction(49, 4)) == Enclosure.point(Fraction(7, 2))


class TestRationalWire:
    @given(
        st.fractions(
            min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
        )
    )
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    def test_integer_form(self):
        assert format_rational(Fraction(6, 2)) == "3"
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert parse_rational("25/2") == Fraction(25, 2)

    @given(a=rationals, b=rationals)
    def test_exact_round_trip_arith(self, a, b):
        assert (a + b) - b == a
        assert a * b == b * a


class TestScaleBits:
    @staticmethod
    def loop_scale_bits(width):
        """The definition: the smallest s with 2^-s <= width, by search."""
        s = 0
        while Fraction(1, 1 << s) > width:
            s += 1
        return s

    def test_matches_search_on_random_widths(self):
        rng = random.Random(2026)
        for _ in range(2000):
            num = rng.randint(1, 10 ** rng.randint(0, 30))
            den = rng.randint(1, 10 ** rng.randint(0, 30))
            width = Fraction(num, den)
            assert PrecisionPolicy(width).scale_bits() == self.loop_scale_bits(width)

    def test_matches_search_at_powers_of_two(self):
        for b in range(200):
            for width in (Fraction(1, 2**b) * f for f in (1, Fraction(3, 4), Fraction(5, 4))):
                assert PrecisionPolicy(width).scale_bits() == self.loop_scale_bits(width)
        assert DEFAULT_POLICY.scale_bits() == 64
