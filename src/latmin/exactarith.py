"""Exact rationals and directed-rounded enclosures.

All scalar arithmetic in this package is done with ``fractions.Fraction``
(arbitrary precision, always reduced, positive denominator, no rounding).
Irrational quantities (n-th roots, pi, unit-ball volumes) are represented by
an Enclosure: a rational interval [lo, hi] certified to contain the true
real value.  Enclosure operations round outward, so a chain of operations
stays sound; soundness checks reduce to exact integer comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

Rational = Fraction


def parse_rational(s: str) -> Fraction:
    """Parse the wire form "p/q" (or "p" when the denominator is 1); a zero
    denominator, or anything but a string, is an ``InputError``."""
    if not isinstance(s, str):
        raise InputError(f"rational {s!r} is not a string")
    try:
        return Fraction(s.strip())
    except ZeroDivisionError as exc:
        raise InputError(f"rational {s!r} has a zero denominator") from exc


def parse_array(value, parse=parse_rational) -> list:
    """The items of a wire-format JSON array, each read by ``parse``;
    anything but an array is an ``InputError``, so a string is never read
    as its characters."""
    if not isinstance(value, list):
        raise InputError(f"expected a JSON array, got {value!r}")
    return [parse(x) for x in value]


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class PrecisionPolicy:
    """Width target for enclosures of irrational values.

    ``target_width`` bounds hi - lo relative to max(1, |value|); repeated
    refinement halves the width, so refinement loops terminate.
    """

    target_width: Fraction = Fraction(1, 2**64)

    def __post_init__(self):
        if self.target_width <= 0:
            raise ValueError("target width must be positive")

    def scale_bits(self) -> int:
        """Smallest s with 2^-s <= target_width, that is 2^s >= ceil(1/width)."""
        return (math.ceil(1 / self.target_width) - 1).bit_length()


DEFAULT_POLICY = PrecisionPolicy()


@dataclass(frozen=True)
class Enclosure:
    """Rational interval [lo, hi] containing a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "Enclosure":
        x = Fraction(x)
        return Enclosure(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other) -> "Enclosure":
        other = _as_enclosure(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        other = _as_enclosure(other)
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other) -> "Enclosure":
        return _as_enclosure(other) - self

    def __mul__(self, other) -> "Enclosure":
        other = _as_enclosure(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        other = _as_enclosure(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("enclosure divisor straddles zero")
        return self * Enclosure(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other) -> "Enclosure":
        return _as_enclosure(other) / self

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def int_pow(self, k: int) -> "Enclosure":
        if k < 0:
            return Enclosure.point(1) / self.int_pow(-k)
        result = Enclosure.point(1)
        for _ in range(k):
            result = result * self
        return result

    def to_dict(self) -> dict:
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi)}

    def __float__(self) -> float:
        return float((self.lo + self.hi) / 2)


def _as_enclosure(x) -> Enclosure:
    if isinstance(x, Enclosure):
        return x
    return Enclosure.point(x)


def enclosure_max(*encs: Enclosure) -> Enclosure:
    """Interval hull of max over the true values of the arguments."""
    return Enclosure(max(e.lo for e in encs), max(e.hi for e in encs))


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for nonnegative integer n and k >= 1."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    # Newton iteration on integers, started above the root.
    x = 1 << (-(-n.bit_length() // k) + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def nth_root_enclosure(
    x, n: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Enclosure:
    """Sound enclosure of x^(1/n) for rational x >= 0.

    Guarantees lo^n <= x <= hi^n.  Exact rational roots come back as point
    intervals; otherwise the width is at most the policy target (the value
    is bracketed between consecutive multiples of 2^-s).
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root index must be >= 1")
    if x == 0:
        return Enclosure.point(0)
    p, q = x.numerator, x.denominator
    rp, rq = _iroot(p, n), _iroot(q, n)
    if rp**n == p and rq**n == q:
        return Enclosure.point(Fraction(rp, rq))
    s = policy.scale_bits()
    scaled = (p << (n * s)) // q
    m = _iroot(scaled, n)
    return Enclosure(Fraction(m, 1 << s), Fraction(m + 1, 1 << s))


def sqrt_enclosure(x, policy: PrecisionPolicy = DEFAULT_POLICY) -> Enclosure:
    return nth_root_enclosure(x, 2, policy)


def nth_root_of_enclosure(
    e: Enclosure, n: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Enclosure:
    """Enclosure of y^(1/n) for y inside e (e must be nonnegative)."""
    return Enclosure(
        nth_root_enclosure(e.lo, n, policy).lo,
        nth_root_enclosure(e.hi, n, policy).hi,
    )


def pow_enclosure(
    e: Enclosure, num: int, den: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Enclosure:
    """Enclosure of y^(num/den) for nonnegative y inside e, num >= 0, den >= 1."""
    if e.lo < 0:
        raise ValueError("rational powers need a nonnegative enclosure")
    if num == 0:
        return Enclosure.point(1)
    return nth_root_of_enclosure(e.int_pow(num), den, policy)


def _arctan_inv_enclosure(x: int, terms: int) -> Enclosure:
    """Alternating-series bracket of arctan(1/x) for integer x >= 2."""
    s = Fraction(0)
    sign = 1
    xsq = x * x
    power = x  # x^(2i+1)
    for i in range(terms):
        s += Fraction(sign, (2 * i + 1) * power)
        sign = -sign
        power *= xsq
    tail = Fraction(1, (2 * terms + 1) * power)
    if terms % 2 == 1:
        return Enclosure(s - tail, s)  # last added term positive: s overshoots
    return Enclosure(s, s + tail)


def pi_enclosure(policy: PrecisionPolicy = DEFAULT_POLICY) -> Enclosure:
    """Machin's formula with two-sided alternating-series tails."""
    terms = 2
    while True:
        a = _arctan_inv_enclosure(5, terms)
        b = _arctan_inv_enclosure(239, max(2, terms // 3))
        enc = 16 * a - 4 * b
        if enc.width <= policy.target_width:
            return enc
        terms += max(2, terms // 2)


def ball_volume_enclosure(
    r: int, policy: PrecisionPolicy = DEFAULT_POLICY
) -> Enclosure:
    """Volume of the r-dimensional Euclidean unit ball.

    Uses the two-step recurrence vol_r = (2*pi/r) * vol_{r-2}; the pi
    enclosure is refined until the final width meets the policy.
    """
    if r < 1:
        raise ValueError("dimension must be >= 1")
    if r == 1:
        return Enclosure.point(2)
    inner = policy
    while True:
        pi = pi_enclosure(inner)
        enc = Enclosure.point(2) if r % 2 else pi
        start = 1 if r % 2 else 2
        for k in range(start + 2, r + 1, 2):
            enc = enc * pi * Fraction(2, k)
        if enc.width <= policy.target_width * max(1, enc.hi):
            return enc
        inner = PrecisionPolicy(inner.target_width / 2**8)


def laguerre_at_minus_two(n: int) -> Fraction:
    """Exact value of the degree-n Laguerre polynomial at -2.

    From the closed form L_n(x) = sum_k C(n,k) (-x)^k / k!.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(math.comb(n, k) * 2**k, math.factorial(k))
    return total
