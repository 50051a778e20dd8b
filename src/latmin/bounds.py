"""Bound evaluators.

Each evaluator returns a BoundBreakdown: a sound enclosure of the bound
value plus every named intermediate quantity, so a reported bound can be
audited and recomputed from its inputs.  Bounds whose formulas are stated
for the gauge-normalized body are evaluated on the scaled body and mapped
back through the dilation identity, and the scale is recorded.

The avoidance bounds (lower-rank and full-rank families) are certificate
grade: the minima engine enumerates under their ``final.hi``.  The cube
and ball-volume comparison bounds are informational only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _intmat as im
from .body import Box, ConvexBody, SectionData
from .errors import (
    CertificateError,
    InputError,
    MissingSectionError,
    RankError,
    UnsupportedBodyError,
)
from .exactarith import (
    DEFAULT_POLICY,
    Enclosure,
    PrecisionPolicy,
    ball_volume_enclosure,
    enclosure_max,
    format_rational,
    laguerre_at_minus_two,
    nth_root_enclosure,
    nth_root_of_enclosure,
    pow_enclosure,
    sqrt_enclosure,
)
from .lattice import Lattice, _kernel_and_gram_det, _m_sum, intersect, minors_vector
from .minima import _CACHE_SIZE, _budget, _check_dims, _dilation, successive_minima

BOUND_MINKOWSKI = "minkowski-first"
BOUND_SIEGEL = "siegel"
BOUND_FUKSHANSKY = "fukshansky"
BOUND_GAUDRON = "gaudron"
BOUND_AVOID_LOWER = "avoidance-lower-rank"
BOUND_AVOID_FULL = "avoidance-full-rank"
BOUND_AVOID_SINGLE = "avoidance-single-full"
BOUND_AVOID_FULL_IMPROVED = "avoidance-full-rank-improved"
BOUND_HIGHER_LOWER = "higher-lower-rank"
BOUND_HIGHER_FULL = "higher-full-rank"
BOUND_HIGHER_SINGLE = "higher-single-full"


@dataclass(frozen=True)
class BoundBreakdown:
    name: str
    final: Enclosure
    intermediates: dict

    def to_dict(self) -> dict:
        return {
            "bound": self.name,
            "final": self.final.to_dict(),
            "intermediates": {k: _ser(v) for k, v in self.intermediates.items()},
        }


def _ser(v):
    if isinstance(v, Enclosure):
        return v.to_dict()
    if isinstance(v, (Fraction, int)):
        return format_rational(Fraction(v))
    if isinstance(v, (list, tuple)):
        return [_ser(x) for x in v]
    return v


def _lambda1(body, lat):
    return successive_minima(body, lat, 1).values[0]


def _full_rank_dim(lat) -> int:
    """The ambient dimension n of a full-rank lattice, with n >= 2."""
    n = lat.ambient_dim
    if lat.rank != n or n < 2:
        raise RankError("needs a full-rank lattice in dimension >= 2")
    return n


# ---------------------------------------------------------------------------
# volume bound on the first minimum
# ---------------------------------------------------------------------------


def minkowski_first_bound(
    body: ConvexBody,
    lat: Lattice,
    section: SectionData | None = None,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> BoundBreakdown:
    """(2^r det / section volume)^(1/r), an upper bound on lambda_1.

    Full-rank lattices use the body volume; lower-rank lattices need the
    caller to supply the exact section volume of the body by the lattice
    span.
    """
    _check_dims(body, lat)
    r = lat.rank
    if r < 1:
        raise RankError("need rank >= 1")
    if r == lat.ambient_dim:
        vol_r = body.volume()
        value = Fraction(2**r) * lat.det() / vol_r
        enc = nth_root_enclosure(value, r, policy)
        inter = {"rank": r, "det": lat.det(), "section_volume": vol_r}
    else:
        if section is None:
            raise MissingSectionError(
                "lower-rank lattice: supply SectionData for the body section"
            )
        if im.frac_rank([list(b) for b in section.basis]) != r or im.frac_rank(
            [list(b) for b in section.basis] + [list(b) for b in lat.basis]
        ) != r:
            raise InputError("section subspace does not match the lattice span")
        vol_r = section.volume
        radicand = Fraction(4**r) * lat.det_squared / vol_r**2
        enc = nth_root_enclosure(radicand, 2 * r, policy)
        inter = {"rank": r, "det_squared": lat.det_squared, "section_volume": vol_r}
    return BoundBreakdown(BOUND_MINKOWSKI, enc, inter)


# ---------------------------------------------------------------------------
# kernel-vector bound
# ---------------------------------------------------------------------------


def siegel_bound(
    a,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> BoundBreakdown:
    """Sup-norm bound det(A A^T)^(1/(2(n-m))) for a nonzero integer kernel
    vector, verified against the exact shortest one."""
    rows = [[int(x) for x in row] for row in a]
    if rows and len(rows) >= len(rows[0]):
        raise RankError("need strictly fewer rows than columns")
    # InputError if empty or ragged, RankError if rank < m
    kern, gram_det = _kernel_and_gram_det(rows)
    m, n = len(rows), len(rows[0])
    enc = nth_root_enclosure(gram_det, 2 * (n - m), policy)
    shortest = successive_minima(Box([Fraction(1)] * n), kern, 1)
    exact = shortest.values[0]
    if exact > enc.hi:
        raise CertificateError("bound fell below the exact shortest kernel vector")
    return BoundBreakdown(
        BOUND_SIEGEL,
        enc,
        {
            "gram_det": gram_det,
            "kernel_rank": kern.rank,
            "kernel_det_squared": kern.det_squared,
            "exact_min_sup_norm": exact,
            "witness": list(shortest.witnesses[0]),
        },
    )


# ---------------------------------------------------------------------------
# comparison bounds for lower-rank avoidance
# ---------------------------------------------------------------------------


def fukshansky_bound(
    body: ConvexBody,
    lat: Lattice,
    sublattices,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> BoundBreakdown:
    """Cube bound (3/2)^(r-1) r^r (sum 1/|v_i| + sqrt(s)) |v| + 1.

    Stated for the unit cube only; |v| is the largest absolute minor of a
    basis matrix.
    """
    _check_dims(body, lat)
    if not (isinstance(body, Box) and body.is_unit_cube()):
        raise UnsupportedBodyError("this bound is stated for the unit cube")
    subs = list(sublattices)
    if not subs:
        raise InputError("need s >= 1 forbidden sublattices")
    r = lat.rank
    for sub in subs:
        if sub.rank >= r:
            raise RankError("forbidden sublattices must have lower rank")
    v_max = minors_vector(lat).max_abs
    sub_max = [minors_vector(sub).max_abs for sub in subs]
    s = len(subs)
    sqrt_s = sqrt_enclosure(Fraction(s), policy)
    inner = Enclosure.point(sum(Fraction(1) / v for v in sub_max)) + sqrt_s
    enc = Fraction(3, 2) ** (r - 1) * Fraction(r**r) * inner * v_max + 1
    return BoundBreakdown(
        BOUND_FUKSHANSKY,
        enc,
        {
            "rank": r,
            "minor_max": v_max,
            "sub_minor_max": sub_max,
            "sqrt_s": sqrt_s,
        },
    )


def gaudron_bound(
    body: ConvexBody,
    lat: Lattice,
    sublattices,
    sections,
    sub_lambda1,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> BoundBreakdown:
    """Ball-volume avoidance bound for corank-1 forbidden sublattices.

    nu = 7 r (s w_r det / vol)^(1/r); the final value is nu times the
    largest of 1, nu^(r-1) vol(K ^ span_i)/(w_r det_i), and
    (nu / lambda_1(K, lat ^ span_i))^((r-2)/2) over the sublattices.
    Section volumes and the span minima are caller-supplied.  A library
    evaluator only: the ``bounds`` and ``verify`` commands do not report it.
    """
    _check_dims(body, lat)
    subs = list(sublattices)
    r = lat.rank
    if r != lat.ambient_dim or r < 2:
        raise RankError("stated for full-rank lattices of rank >= 2")
    if any(sub.rank != r - 1 for sub in subs):
        raise RankError("stated for forbidden sublattices of rank exactly r-1")
    if sections is None or len(sections) != len(subs):
        raise MissingSectionError("need one SectionData per forbidden sublattice")
    if sub_lambda1 is None or len(sub_lambda1) != len(subs):
        raise MissingSectionError("need one span minimum per forbidden sublattice")
    s = len(subs)
    omega = ball_volume_enclosure(r, policy)
    nu = Fraction(7 * r) * pow_enclosure(
        omega * Fraction(s) * lat.det() / body.volume(), 1, r, policy
    )
    terms = [Enclosure.point(1)]
    for sub, sec, lam1 in zip(subs, sections, sub_lambda1):
        det_i = sqrt_enclosure(sub.det_squared, policy)
        terms.append(nu.int_pow(r - 1) * sec.volume / (omega * det_i))
        terms.append(pow_enclosure(nu / Fraction(lam1), r - 2, 2, policy))
    biggest = enclosure_max(*terms)
    return BoundBreakdown(
        BOUND_GAUDRON,
        nu * biggest,
        {"nu": nu, "omega_r": omega, "max_term": biggest, "s": s},
    )


# ---------------------------------------------------------------------------
# avoidance bounds: lower-rank forbidden sublattices
# ---------------------------------------------------------------------------


def _lower_rank_terms(body, lat, subs):
    """(lambda_1, forbidden lambda_1s, det, vol, beta, rho) shared by the
    lower-rank bounds; rejects forbidden sublattices of full rank.

    Not memoised: the lambda_1 values come from the successive-minima memo,
    and the rest is a few Fraction operations."""
    n = lat.ambient_dim
    for sub in subs:
        if sub.rank >= n:
            raise RankError("forbidden sublattices must have lower rank")
    lam1 = _lambda1(body, lat)
    sub_lam1 = [_lambda1(body, sub) for sub in subs]
    det, vol = lat.det(), body.volume()
    inv_sum = sum((Fraction(1) / v for v in sub_lam1), Fraction(0))
    beta = Fraction(6) ** (n - 1) * det / (lam1 ** (n - 1) * vol) * inv_sum
    rho = Fraction(2) ** n * det / (lam1**n * vol)
    return lam1, sub_lam1, det, vol, beta, rho


def avoidance_bound_lower_rank(
    body: ConvexBody,
    lat: Lattice,
    sublattices,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> BoundBreakdown:
    """Certificate bound on the first restricted minimum, lower-rank case.

    6^(n-1) det/(lambda_1^(n-2) vol) sum_i 1/lambda_1(K, L_i) plus the
    n-th root of 2^n det/vol.  Proof quantities beta, rho, gamma_bar are
    recorded for the gauge-normalized body, together with the scale.
    """
    n = _full_rank_dim(lat)
    lam1, sub_lam1, det, vol, beta, rho = _lower_rank_terms(body, lat, tuple(sublattices))
    gamma_bar = beta + nth_root_enclosure(rho, n, policy)
    final = lam1 * gamma_bar
    return BoundBreakdown(
        BOUND_AVOID_LOWER,
        final,
        {
            "beta": beta,
            "rho": rho,
            "gamma_bar": gamma_bar,
            "scale_lambda1": lam1,
            "lambda1_forbidden": sub_lam1,
        },
    )


def higher_minima_bound_lower_rank(
    body: ConvexBody,
    lat: Lattice,
    sublattices,
    j: int,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> BoundBreakdown:
    """Certificate bound on restricted minimum j+1, lower-rank case.

    beta + (alpha + rho^((n-j)/n))^(1/(n-j)) on the gauge-normalized body,
    mapped back by the scale.
    """
    n = _full_rank_dim(lat)
    if not 1 <= j <= n - 1:
        raise InputError(f"j must lie in [1, n-1]; got {j}")
    lam1, sub_lam1, det, vol, beta, rho = _lower_rank_terms(body, lat, tuple(sublattices))
    alpha = Fraction(3) ** j * Fraction(2) ** (n - 1) * det / (lam1**n * vol)
    inner = alpha + pow_enclosure(Enclosure.point(rho), n - j, n, policy)
    root = nth_root_of_enclosure(inner, n - j, policy)
    final = lam1 * (beta + root)
    return BoundBreakdown(
        BOUND_HIGHER_LOWER,
        final,
        {
            "beta": beta,
            "alpha": alpha,
            "rho": rho,
            "j": j,
            "scale_lambda1": lam1,
            "lambda1_forbidden": sub_lam1,
        },
    )


# ---------------------------------------------------------------------------
# avoidance bounds: full-rank forbidden sublattices
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _full_rank_terms(body, lat, subs, budget):
    """(L_bar, m, index ratios, lambda_1(K, L_bar), main term) shared by the
    full-rank bounds: L_bar is the intersection of the sublattices and the
    main term 2^n det/(lambda_1(K, L_bar)^(n-1) vol) m.

    Memoised by the value of (body, lattice, sublattices) and the walk
    budget of the calling scope, with the sublattices a tuple, so the
    certificate of a restricted solve and the plain, improved and
    higher-minima evaluators share one L_bar, one m and one
    lambda_1(K, L_bar), and a smaller budget recomputes and still raises;
    the index ratios are a tuple, which each breakdown copies into a list."""
    n = lat.ambient_dim
    inter = intersect(subs, within=lat)
    msum, ratios = _m_sum(inter, subs)
    lam1_bar = _lambda1(body, inter)
    det, vol = lat.det(), body.volume()
    main = Fraction(2) ** n * det / (lam1_bar ** (n - 1) * vol) * msum
    return inter, msum, ratios, lam1_bar, main


def avoidance_bound_full_rank(
    body: ConvexBody,
    lat: Lattice,
    sublattices,
    improved: bool = False,
    policy: PrecisionPolicy = DEFAULT_POLICY,
) -> BoundBreakdown:
    """Certificate bound on the first restricted minimum, full-rank case.

    2^n det/(lambda_1(K, L_bar)^(n-1) vol) (sum_i det L_bar/det L_i - s + 1)
    plus an additive term: lambda_1(K, L_bar) by default, lambda_1(K, lat)
    when s = 1 (never worse), or the improved root coefficient
    n^(-1/(n-1)) (n^n - 1)/n^n of lambda_1(K, L_bar) when requested.
    """
    n = _full_rank_dim(lat)
    subs = list(sublattices)
    if not subs:
        raise InputError("need s >= 1 forbidden sublattices")
    for sub in subs:
        if sub.rank != n:
            raise RankError("forbidden sublattices must have full rank")
    inter, msum, ratios, lam1_bar, main = _full_rank_terms(body, lat, tuple(subs), _budget.get())
    inters = {
        "m": msum,
        "det_intersection": inter.det(),
        "index_ratios": list(ratios),
        "lambda1_intersection": lam1_bar,
        "main_term": main,
    }
    if improved:
        coeff = nth_root_enclosure(Fraction(1, n), n - 1, policy) * Fraction(
            n**n - 1, n**n
        )
        final = main + coeff * lam1_bar
        inters["improved_coefficient"] = coeff
        name = BOUND_AVOID_FULL_IMPROVED
    elif len(subs) == 1:
        lam1 = _lambda1(body, lat)
        final = Enclosure.point(main + lam1)
        inters["lambda1_ambient"] = lam1
        name = BOUND_AVOID_SINGLE
    else:
        final = Enclosure.point(main + lam1_bar)
        name = BOUND_AVOID_FULL
    return BoundBreakdown(name, final, inters)


def higher_minima_bound_full_rank(
    body: ConvexBody,
    lat: Lattice,
    sublattices,
    i: int,
) -> BoundBreakdown:
    """Certificate bound on restricted minimum i, full-rank case.

    The full-rank avoidance main term plus lambda_1(K, L_bar) plus, for
    i >= 2, lambda_i(K, L_bar).  The extra term must be the i-th minimum
    of the intersection lattice, not the (i-1)-st: a shortest admissible
    vector a together with independent b_1..b_i from the intersection
    gives i independent admissible vectors among a, a+b_1, .., a+b_i of
    gauge <= gauge(a) + lambda_i, and a may lie in the span of fewer b's
    (exact counterexample: [-3,3]x[-1/2,1/2], lattice Z x 2Z, forbidden
    span{(1,2),(0,4)}, where restricted lambda_2 = 4).  Exact rational.
    """
    n = _full_rank_dim(lat)
    if not 1 <= i <= n:
        raise InputError(f"i must lie in [1, n]; got {i}")
    inter, msum, _, lam1_bar, main = _full_rank_terms(
        body, lat, tuple(sublattices), _budget.get()
    )
    bar = successive_minima(body, inter, i)
    extra = bar.values[i - 1] if i >= 2 else Fraction(0)
    final = main + lam1_bar + extra
    return BoundBreakdown(
        BOUND_HIGHER_FULL,
        Enclosure.point(final),
        {
            "m": msum,
            "det_intersection": inter.det(),
            "lambda1_intersection": lam1_bar,
            "lambda_i_intersection": extra,
            "main_term": main,
            "i": i,
        },
    )


def higher_minima_bound_single_full(
    body: ConvexBody,
    lat: Lattice,
    sub: Lattice,
    i: int,
) -> BoundBreakdown:
    """Sharper single-sublattice bound on restricted minimum i.

    2^n det/(lambda_1(K, L_1)^(n-1) vol) + lambda_1(K, lat) + lambda_i(K, lat).
    """
    n = _full_rank_dim(lat)
    if not 1 <= i <= n:
        raise InputError(f"i must lie in [1, n]; got {i}")
    if sub.rank != n:
        raise RankError("the forbidden sublattice must have full rank")
    lam1_sub = _lambda1(body, sub)
    ambient = successive_minima(body, lat, i)
    det, vol = lat.det(), body.volume()
    main = Fraction(2) ** n * det / (lam1_sub ** (n - 1) * vol)
    final = main + ambient.values[0] + ambient.values[i - 1]
    return BoundBreakdown(
        BOUND_HIGHER_SINGLE,
        Enclosure.point(final),
        {
            "main_term": main,
            "lambda1_forbidden": lam1_sub,
            "lambda1_ambient": ambient.values[0],
            "lambda_i_ambient": ambient.values[i - 1],
            "i": i,
        },
    )


def covering_radius_avoidance_bound(mu, s: int, j: int) -> Fraction:
    """(s+1) mu for the first restricted minimum, (s+2) mu from the second on."""
    mu = Fraction(mu)
    if mu <= 0 or s < 0 or j < 1:
        raise InputError("need mu > 0, s >= 0, j >= 1")
    return (s + 1) * mu if j == 1 else (s + 2) * mu


# ---------------------------------------------------------------------------
# torus volume
# ---------------------------------------------------------------------------


def torus_volume_lower_bound(body: ConvexBody, sub: Lattice, lam) -> Fraction:
    """Exact rational lower bound for the torus volume of (lam/2) K mod sub.

    min{ (floor(lam/l1) + frac^n) (l1/2)^n vol(K), det(sub) }, where
    lam = floor(lam/l1) l1 + frac * l1 and l1 is the first minimum of the
    sublattice.  Coincides with the exact packing volume while lam <= l1.
    A library evaluator only: the ``bounds`` and ``verify`` commands do not
    report it.
    """
    lam = _dilation(lam)
    if sub.rank != sub.ambient_dim or sub.ambient_dim != body.dim:
        raise RankError("needs a full-rank lattice of matching dimension")
    if lam == 0:
        return Fraction(0)
    n = body.dim
    lam1 = _lambda1(body, sub)
    q = lam / lam1
    whole = q.numerator // q.denominator
    frac = q - whole
    value = (whole + frac**n) * (lam1 / 2) ** n * body.volume()
    return min(value, sub.det())


# ---------------------------------------------------------------------------
# point-counting bounds
# ---------------------------------------------------------------------------


def vdc_lower(body: ConvexBody, lat: Lattice, lam) -> int:
    """2 floor(vol(lam K)/(2^n det)) + 1, a lower bound on the point count."""
    lam = _dilation(lam)
    _check_dims(body, lat)
    n = lat.ambient_dim
    if lat.rank != n:
        raise RankError("needs a full-rank lattice")
    ratio = lam**n * body.volume() / (Fraction(2) ** n * lat.det())
    return 2 * (ratio.numerator // ratio.denominator) + 1


def bhw_upper(body: ConvexBody, lat: Lattice, lam) -> Fraction:
    """(2/lambda_1(lam K) + 1)^n, an upper bound on the point count."""
    lam = _dilation(lam)
    _check_dims(body, lat)
    n = lat.ambient_dim
    if lat.rank != n:
        raise RankError("needs a full-rank lattice")
    if lam == 0:
        return Fraction(1)
    lam1 = _lambda1(body, lat)
    return (2 * lam / lam1 + 1) ** n


def henze_upper(body: ConvexBody, lat: Lattice, lam) -> Fraction:
    """(n!/2^n) vol(lam K)/det times the Laguerre value at -2.

    Valid only when lam K contains n independent lattice points; checked
    exactly and rejected otherwise.
    """
    lam = _dilation(lam)
    n = lat.ambient_dim
    if lat.rank != n:
        raise RankError("needs a full-rank lattice")
    full = successive_minima(body, lat, n)
    if full.values[-1] > lam:
        raise InputError(
            "hypothesis unmet: the dilate does not contain n independent points"
        )
    return math.factorial(n) / Fraction(2) ** n * lam**n * body.volume() / lat.det() * (
        laguerre_at_minus_two(n)
    )
