"""Exact enumeration of lattice points in dilates of a body, successive
minima, and restricted successive minima.

Enumeration walks an axis-aligned integer box in lattice coordinates; the
per-coordinate bounds come from the support function of the body at the
dual basis of the lattice span.  Gauges, their order and independence are
decided on integers (with basis == H / d, a point is z H / d and its gauge
an integer over one common denominator); only the reported witnesses and
values become exact rationals.  Each successive minimum and each walk
set-up is computed once per value of (body, lattice), in bounded memos.
Restricted minima terminate either under a proved bound radius (when the
forbidden collection matches one of the bound evaluators' hypotheses) or by
geometric doubling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import _intmat as im
from . import kernel
from ._intmat import dot
from .body import Box, ConvexBody
from .errors import (
    BudgetExceededError,
    CertificateError,
    EmptyAdmissibleSetError,
    PackingConditionError,
    RankError,
    UnsupportedBodyError,
)
from .exactarith import format_rational, nth_root_enclosure
from .lattice import Lattice, _coset_label, union_covers

DEFAULT_BUDGET = 10**7

CERT_MINKOWSKI = "minkowski"
CERT_THM_LOWER = "theorem-1.1"
CERT_THM_FULL = "theorem-1.2"
CERT_COR_LOWER = "corollary-2.2"
CERT_COR_FULL = "corollary-3.5"
CERT_DOUBLING = "doubling"


@dataclass(frozen=True)
class MinimaResult:
    """Exact minima with witnesses and the enumeration termination radius."""

    values: tuple
    witnesses: tuple
    certificate_radius: Fraction
    certificate_kind: str

    def to_dict(self) -> dict:
        return {
            "values": [format_rational(v) for v in self.values],
            "witnesses": [[format_rational(x) for x in w] for w in self.witnesses],
            "certificate": {
                "kind": self.certificate_kind,
                "radius": format_rational(self.certificate_radius),
            },
        }


class ForbiddenCollection:
    """Sublattices whose points are excluded from the admissible set."""

    def __init__(self, ambient: Lattice, sublattices):
        subs = list(sublattices)
        if not subs:
            raise ValueError("need at least one forbidden sublattice")
        if any(sub.rank < 1 for sub in subs):
            raise ValueError("forbidden sublattices must have rank >= 1")
        self.ambient = ambient
        self.sublattices = tuple(subs)
        # coeff_matrix raises NotSublatticeError off the ambient lattice; the
        # spans in coordinate space are integer lattices (d = 1), kept as
        # their Hermite rows and pivots
        spans = [Lattice(ambient.coeff_matrix(sub), ambient.rank) for sub in subs]
        self._spans = [(span._hermite, span._pivots) for span in spans]
        ranks = {sub.rank for sub in subs}
        if ranks == {ambient.rank}:
            self.classification = "all-full-rank"
        elif all(r < ambient.rank for r in ranks):
            self.classification = "all-lower-rank"
        else:
            self.classification = "mixed"

    @functools.cached_property
    def covers_lattice(self) -> bool:
        """Whether the union is the whole ambient lattice, decided once: it
        is iff the full-rank members cover, as lower-rank ones are too sparse
        to finish a cover."""
        amb = self.ambient
        full = [s for s in self.sublattices if s.rank == amb.rank]
        return bool(full) and amb.rank == amb.ambient_dim and union_covers(amb, full)

    def admissible_coords(self, z) -> bool:
        """Whether the integer lattice coordinates z lie in no forbidden span."""
        return not any(_in_row_span(z, h, pivots) for h, pivots in self._spans)

    def to_dict(self) -> dict:
        return {
            "classification": self.classification,
            "sublattices": [sub.to_dict() for sub in self.sublattices],
        }


def _in_row_span(z, hermite, pivots) -> bool:
    """Whether the integer vector z is an integer combination of the integer
    Hermite rows: a divmod clears each pivot, and nothing may remain."""
    w = list(z)
    for row, p in zip(hermite, pivots):
        c, rem = divmod(w[p], row[p])
        if rem:
            return False
        if c:
            w = [a - c * b for a, b in zip(w, row)]
    return not any(w)


# ---------------------------------------------------------------------------
# enumeration core
# ---------------------------------------------------------------------------

# Entries kept by the memo of successive minima and by the walk set-ups.
# Both are keyed by value: lattices hash by their Hermite form and bodies by
# their half-widths or facets and vertices, and what is kept is immutable.
_CACHE_SIZE = 32


class _WalkSetup(NamedTuple):
    """What every walk over (body, lattice) shares, whatever its radius."""

    e: tuple  # gauge rows E and scales S of ``_gauge_system``
    s: tuple
    weighted: tuple  # E_j * (L / S_j), so a point's gauge is max |row . z| / L
    big: int  # L = lcm(S)
    cols: tuple  # columns of H, so x' = z H is (z . col for each col)
    supports: tuple  # h_K(d_i) as (num, den) for the dual span vectors d_i


def _gauge_system(body: ConvexBody, lat: Lattice):
    """(E, S): integer rows E and positive integers S with
    gauge(z B) = max_j |E_j . z| / S_j for lattice coordinates z."""
    h, d = lat._hermite, lat._denom
    if isinstance(body, Box):
        hw = body.halfwidths
        e = [[c * a.denominator for c in col] for col, a in zip(zip(*h), hw)]
        return e, [a.numerator * d for a in hw]
    e, s = [], []
    for c in body.facets:
        cd = im.lcm_denominators([c])
        cint = [int(x * cd) for x in c]
        e.append([dot(cint, row) for row in h])
        s.append(cd * d)
    return e, s


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _walk_setup(body: ConvexBody, lat: Lattice) -> _WalkSetup:
    """The walk set-up of (body, lattice), computed once per value."""
    e, s = _gauge_system(body, lat)
    big = math.lcm(*s)
    supports = [body.support(u) for u in lat.dual_in_span()]
    return _WalkSetup(
        tuple(map(tuple, e)),
        tuple(s),
        tuple(tuple(c * (big // sj) for c in row) for row, sj in zip(e, s)),
        big,
        tuple(zip(*lat._hermite)),
        tuple((h.numerator, h.denominator) for h in supports),
    )


def _walk_system(body, lat, radius, budget):
    """(setup, (g, t, lo, hi)): the walk set-up of (body, lattice) and kernel
    arguments whose passing z are exactly the nonzero lattice coordinates
    with gauge(z B) <= radius, or None when there are none.  With radius
    p/q, g = q E, t = p S and the box is |z_i| <= floor(radius h_K(d_i))."""
    if body.dim != lat.ambient_dim:
        raise ValueError("body and lattice dimension mismatch")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if lat.rank == 0 or radius == 0:
        return None
    setup = _walk_setup(body, lat)
    p, q = radius.numerator, radius.denominator
    hi = [p * num // (q * den) for num, den in setup.supports]
    lo = [-m for m in hi]
    size = kernel.box_size(lo, hi)
    if size > budget:
        raise BudgetExceededError(
            f"enumeration box has {size} points, budget is {budget}"
        )
    g = [[q * c for c in row] for row in setup.e]
    return setup, (g, [p * sj for sj in setup.s], lo, hi)


def _enumerate_coords(body, lat, radius, budget):
    """All nonzero z (lattice coordinates) with gauge(z B) <= radius."""
    walk = _walk_system(body, lat, radius, budget)
    return kernel.collect_passing(*walk[1]) if walk else []


def point_sort_key(vector, gauge):
    """Deterministic extraction order: gauge, then componentwise absolute
    values, then a sign pattern preferring nonnegative entries."""
    return (
        gauge,
        tuple(abs(x) for x in vector),
        tuple(0 if x >= 0 else 1 for x in vector),
    )


def _sorted_candidates(body, lat, radius, budget, admissible=None):
    """(records, L): one (g, |x'|, signs of x', z, x') per admissible z with
    gauge(z B) <= radius, sorted, where x' = z H is the point times d and
    g / L its gauge.  With d > 0 this is ``point_sort_key`` order, and ties
    cannot occur because (|x'|, signs) determines the point."""
    walk = _walk_system(body, lat, radius, budget)
    if walk is None:
        return [], _walk_setup(body, lat).big
    setup, args = walk
    cols, weighted = setup.cols, setup.weighted
    records = []
    for z in kernel.collect_passing(*args):
        if admissible is not None and not admissible(z):
            continue
        x = tuple([dot(z, col) for col in cols])
        g = max([abs(dot(z, row)) for row in weighted])
        records.append((g, tuple(map(abs, x)), tuple([v < 0 for v in x]), z, x))
    records.sort()
    return records, setup.big


def _exact(record, d, big):
    """The point and gauge of a candidate record as exact rationals."""
    return tuple(Fraction(v, d) for v in record[4]), Fraction(record[0], big)


def enumerate_points(
    body: ConvexBody, lat: Lattice, radius, budget: int = DEFAULT_BUDGET
):
    """Exactly the nonzero lattice points with gauge <= radius, with gauges.

    Sorted by ``point_sort_key``; the zero vector is never included.
    """
    records, big = _sorted_candidates(body, lat, Fraction(radius), budget)
    return [_exact(rec, lat._denom, big) for rec in records]


# ---------------------------------------------------------------------------
# successive minima
# ---------------------------------------------------------------------------


def _add_if_independent(echelon, z) -> bool:
    """Add z to the integer echelon rows, kept as (pivot, row) in pivot
    order, if it is independent of them, and say whether it was.  Rows clear
    their pivots from z by cross-multiplication; the rest is made primitive."""
    v = list(z)
    for p, row in echelon:
        if v[p]:
            a, b = row[p], v[p]
            v = [a * x - b * y for x, y in zip(v, row)]
    if not any(v):
        return False
    g = math.gcd(*v)
    v = [x // g for x in v]
    echelon.append((next(j for j, x in enumerate(v) if x), v))
    echelon.sort()
    return True


def _greedy_minima(records, k, d, big):
    """First k sorted candidate records that are linearly independent.

    Returns exact (values, witnesses) or None if fewer than k independent.
    """
    echelon, chosen = [], []
    for rec in records:
        if _add_if_independent(echelon, rec[3]):
            chosen.append(_exact(rec, d, big))
            if len(chosen) == k:
                witnesses, values = zip(*chosen)
                return values, witnesses
    return None


def successive_minima(
    body: ConvexBody, lat: Lattice, k: int, budget: int = DEFAULT_BUDGET
) -> MinimaResult:
    """lambda_1 .. lambda_k with linearly independent witnesses, exact.

    Memoised by the value of (body, lattice, k, budget); the budget is part
    of the key, so a smaller one still raises ``BudgetExceededError``.
    """
    if not 1 <= k <= lat.rank:
        raise RankError(f"k must lie in [1, rank]; got k={k}, rank={lat.rank}")
    if body.dim != lat.ambient_dim:
        raise ValueError("body and lattice dimension mismatch")
    return _successive_minima(body, lat, k, budget)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _successive_minima(body, lat, k, budget) -> MinimaResult:
    basis_gauges = sorted(body.gauge(b) for b in lat.basis)
    full_rank = lat.rank == lat.ambient_dim
    if full_rank:
        n = lat.ambient_dim
        ratio = (2**n) * lat.det() / body.volume()
        if k == 1:
            radius = min(nth_root_enclosure(ratio, n).hi, basis_gauges[0])
        else:
            lam1 = _successive_minima(body, lat, 1, budget).values[0]
            radius = min(ratio / lam1 ** (n - 1), basis_gauges[k - 1])
        kind = CERT_MINKOWSKI
    else:
        radius = basis_gauges[k - 1]
        kind = CERT_DOUBLING
    cands, big = _sorted_candidates(body, lat, radius, budget)
    got = _greedy_minima(cands, k, lat._denom, big)
    if got is None:
        raise CertificateError("termination radius failed to contain the minima")
    values, witnesses = got
    return MinimaResult(values, witnesses, radius, kind)


def restricted_minima(
    body: ConvexBody,
    lat: Lattice,
    forbidden: ForbiddenCollection,
    k: int,
    budget: int = DEFAULT_BUDGET,
    method: str = "auto",
) -> MinimaResult:
    """Minima over lattice points avoiding every forbidden sublattice.

    Termination radius: the matching bound evaluator when the collection is
    purely lower-rank or purely full-rank (and the ambient lattice has full
    rank), otherwise geometric doubling.  Enumeration proceeds in doubling
    rungs under the certified cap, so typical instances stop far below it.
    """
    if forbidden.ambient != lat:
        raise ValueError("forbidden collection belongs to a different lattice")
    if not 1 <= k <= lat.rank:
        raise RankError(f"k must lie in [1, rank]; got k={k}, rank={lat.rank}")
    if method not in ("auto", "doubling"):
        raise ValueError(f"unknown method {method!r}; use 'auto' or 'doubling'")
    n = lat.ambient_dim
    if forbidden.covers_lattice:
        raise EmptyAdmissibleSetError(
            "the forbidden sublattices cover the whole lattice"
        )
    cert_radius = None
    kind = CERT_DOUBLING
    if method == "auto" and lat.rank == n and n >= 2:
        from . import bounds  # deferred: bounds uses this module's minima

        if forbidden.classification == "all-full-rank":
            if k == 1:
                bd = bounds.avoidance_bound_full_rank(body, lat, forbidden.sublattices)
                kind = CERT_THM_FULL
            else:
                bd = bounds.higher_minima_bound_full_rank(
                    body, lat, forbidden.sublattices, k
                )
                kind = CERT_COR_FULL
            cert_radius = bd.final.hi
        elif forbidden.classification == "all-lower-rank":
            if k == 1:
                bd = bounds.avoidance_bound_lower_rank(body, lat, forbidden.sublattices)
                kind = CERT_THM_LOWER
            else:
                bd = bounds.higher_minima_bound_lower_rank(
                    body, lat, forbidden.sublattices, k - 1
                )
                kind = CERT_COR_LOWER
            cert_radius = bd.final.hi
    lam1 = successive_minima(body, lat, 1, budget=budget).values[0]
    radius = lam1 if cert_radius is None else min(lam1, cert_radius)
    while True:
        cands, big = _sorted_candidates(
            body, lat, radius, budget, admissible=forbidden.admissible_coords
        )
        got = _greedy_minima(cands, k, lat._denom, big)
        if got is not None and got[0][k - 1] <= radius:
            values, witnesses = got
            final_radius = cert_radius if cert_radius is not None else radius
            return MinimaResult(values, witnesses, final_radius, kind)
        if cert_radius is not None and radius >= cert_radius:
            raise CertificateError(
                "certified radius failed to contain the restricted minima"
            )
        radius = 2 * radius
        if cert_radius is not None:
            radius = min(radius, cert_radius)


# ---------------------------------------------------------------------------
# counting and torus helpers
# ---------------------------------------------------------------------------


def count_points(
    body: ConvexBody, lat: Lattice, lam, budget: int = DEFAULT_BUDGET
) -> int:
    """|lam K  intersect  lattice|, origin included."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("dilation factor must be nonnegative")
    walk = _walk_system(body, lat, lam, budget)
    return (kernel.count_passing(*walk[1]) if walk else 0) + 1


def distinct_cosets_in_body(
    body: ConvexBody,
    lat: Lattice,
    sub: Lattice,
    lam,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of cosets of lat modulo sub met by points of lam K."""
    lam = Fraction(lam)
    m = lat.coeff_matrix(sub)
    if len(m) != lat.rank:
        raise RankError("sublattice must have full rank in the lattice")
    span = Lattice(m, lat.rank)
    labels = {(0,) * lat.rank}  # origin
    for z in _enumerate_coords(body, lat, lam, budget):
        labels.add(_coset_label(z, span))
    return len(labels)


def covering_radius_diagonal(body: ConvexBody, lat: Lattice) -> Fraction:
    """Exact covering radius for a box and a diagonal lattice."""
    if not isinstance(body, Box):
        raise UnsupportedBodyError("exact covering radius needs a box")
    if lat.rank != lat.ambient_dim:
        raise RankError("covering radius needs a full-rank lattice")
    diag = []
    for i, row in enumerate(lat.basis):
        if any(row[j] != 0 for j in range(lat.ambient_dim) if j != i):
            raise UnsupportedBodyError("exact covering radius needs a diagonal lattice")
        diag.append(row[i])
    return max(d / (2 * a) for d, a in zip(diag, body.halfwidths))


def torus_packing_volume(
    body: ConvexBody, sub: Lattice, lam, budget: int = DEFAULT_BUDGET
) -> Fraction:
    """Exact torus volume of (lam K)/sub while lam K packs: lam^n vol(K)."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("dilation factor must be nonnegative")
    if sub.rank != sub.ambient_dim or sub.ambient_dim != body.dim:
        raise RankError("torus volume needs a full-rank lattice of matching dimension")
    lam1 = successive_minima(body, sub, 1, budget=budget).values[0]
    if lam > lam1 / 2:
        raise PackingConditionError(
            f"dilate {lam} exceeds the packing threshold {lam1}/2; "
            "use the torus volume lower bound instead"
        )
    return lam**body.dim * body.volume()
