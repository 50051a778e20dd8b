"""Exact enumeration of lattice points in dilates of a body, successive
minima, and restricted successive minima.

Enumeration walks the shell between two axis-aligned integer boxes in
lattice coordinates, both symmetric about 0: the box already walked, or
the origin alone, and the box of the radius.  The shell is cut into
one-sided slabs (``_shell``), plain boxes that ``kernel`` walks in full;
the slabs of the shell around the origin are the half of the box after 0
in odometer order.  The per-coordinate bounds come from the support
function of the body at the dual rows of the lattice span, integers over
one denominator.  The body is o-symmetric, so its lattice points come in
pairs +-z, and a slab holds at most one member of each pair.  This
module, the kernel's one caller, is the one that knows it, and keeps the
canonical member: first nonzero coordinate positive, in z and so in z H,
as H is echelon with positive pivots.  It is first in the point order
(gauge, then |x| componentwise, then signs, nonnegative first), and its
partner has the same gauge, is dependent on it and is admissible exactly
when it is, so the minima never need the partner; counts, coset labels and
the public point list restore it.  Gauges, their order, admissibility and independence
are decided on integers: with basis == H / d, a point is z H / d and its
gauge max_j |W_j . z| / L for integer rows W and one integer L, the one
gauge form the walk tests, and the walk returns the numerator with each
point, the same whatever the radius.  A forbidden member's points are those
orthogonal to its complement rows whose pivot coordinates times its pivot
adjugate vanish mod the pivot product (``lattice._membership``), and a
point is independent of those chosen iff it is not orthogonal to their
complement.  Only the reported witnesses and values become exact rationals.

What is kept for a (body, lattice) lives in its context (``_Context``), one
per value of the pair: the walk set-up, the held walk, and the results, by
(k, budget) for successive minima, (forbidden collection, k, budget, method)
for restricted minima and (sublattices, budget) for the terms of ``bounds``.
The map ``_contexts`` and each context's results keep ``_CACHE_SIZE``
entries at most, the least recently read dropped first.  Every collect walk
goes through one read, ``_points``, which keeps the walked points of the
pair, sorted by gauge, in its context: a read at or below the held radius
walks nothing.  So successive minima after a restricted solve of the same
pair, and the rungs below a radius already walked, are read from there.  A
read beyond the held radius walks only the shell between the held box and
its own and merges what passes.  When the held points do not reach its
gauge bound, or the context holds none, the read first drops every
context's walk and starts from the empty walk at the origin, so only the
context that walked last holds a walk.  A count of the pair at or below the
held radius is read off its walk too, as after a solve of the pair; any
other count runs the count loop of ``kernel`` over the shell around the
origin and leaves the held walk as it was.

Successive and restricted minima share one solve, ``_solve``: read the
points in the point order one gauge level at a time and take the
first k independent (admissible) points, testing each only as the pass
reaches it.  A level of ties is ordered lazily: after the gauge the key
orders points by |z_0|, because the first column of z H that is not zero
for every point is the pivot of H's first row, so the level is sorted by
that int and only the runs of equal |z_0| the pass reaches are keyed, and
the order is kept with the walk for the next solve.  On a shortfall the solve
reads again at twice the radius, clipped to a proved cap (Minkowski's bound
or a basis gauge, whichever is smaller, where the n-th root in
Minkowski's bound on lambda_1 is taken only when an integer test finds the
shortest basis gauge above it; or the bound evaluator whose hypotheses the
forbidden collection meets), keeps what it chose and reads only the points
beyond the failed radius.  A capped solve collects every rung up to its cap, so each
rung walks only the shell it adds and no capped solve visits a box point
twice; restricted minima without such a cap double until found, walking
each rung's whole box.

One limit bounds every walk: ``walk_budget`` sets it for a scope, the CLI
opens one around each command, and ``_walk_system`` is the one function
that compares a box with it, on every read, held or walked, as if the read
walked its whole box, the bound evaluators' walks of other lattices
included.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from operator import itemgetter, mul

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
from .lattice import Lattice, _coset_label, _membership, _spans_cover

DEFAULT_BUDGET = 10**7

# The most points the box of one walk may hold, set for a scope by
# ``walk_budget``; ``_walk_system`` reads it, and the results kept in a
# context key on it.
_budget = ContextVar("walk_budget", default=DEFAULT_BUDGET)


@contextmanager
def walk_budget(limit: int):
    """Bound every walk made inside the ``with`` block: one whose symmetric
    box holds more than ``limit`` points raises ``BudgetExceededError``.
    Scopes nest, and on leaving one, by a raise too, the outer limit holds
    again; outside every scope it is ``DEFAULT_BUDGET``."""
    token = _budget.set(limit)
    try:
        yield
    finally:
        _budget.reset(token)


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
        # the members in the ambient lattice's coordinates, integer lattices
        # in Z^rank; in_coords raises NotSublatticeError off the lattice
        self._spans = [ambient.in_coords(sub) for sub in subs]
        # per member, the integer vectors that test its points (``_membership``)
        self._tests = [_membership(span) for span in self._spans]
        ranks = {sub.rank for sub in subs}
        if ranks == {ambient.rank}:
            self.classification = "all-full-rank"
        elif all(r < ambient.rank for r in ranks):
            self.classification = "all-lower-rank"
        else:
            self.classification = "mixed"
        self._hash = hash((ambient, self.sublattices))

    # everything the collection derives comes from (ambient, sublattices),
    # so equal pairs share the kept restricted minima; order is kept
    def __eq__(self, other):
        return (
            isinstance(other, ForbiddenCollection)
            and self.ambient == other.ambient
            and self.sublattices == other.sublattices
        )

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def covers_lattice(self) -> bool:
        """Whether the union is the whole ambient lattice, decided once: it
        is iff the full-rank members cover, as lower-rank ones are too sparse
        to finish a cover, and ``lattice._spans_cover`` decides that by
        inclusion-exclusion, whatever the index of their intersection."""
        return _spans_cover([span for span in self._spans if span.rank == self.ambient.rank])

    def admissible_coords(self, z) -> bool:
        """Whether the integer lattice coordinates z lie in no forbidden span:
        a few integer dot products per member, read off ``_membership``."""
        for zero, mod, m in self._tests:
            for c in zero:
                if sum(map(mul, c, z)):
                    break
            else:
                for a in mod:
                    if sum(map(mul, a, z)) % m:
                        break
                else:
                    return False
        return True


# ---------------------------------------------------------------------------
# enumeration core
# ---------------------------------------------------------------------------

# The map from (body, lattice) to its context, and the most entries it and
# each context's results keep, the least recently read (stamped by
# ``_reads``) dropped first.  All is keyed by value: lattices hash by their
# Hermite form, bodies by their half-widths or facets and vertices, forbidden
# collections by (ambient, sublattices), and what is kept is immutable.
_contexts = {}
_CACHE_SIZE = 32
_reads = count()


class _Context:
    """What is kept for one value of (body, lattice) of matching dimensions:
    the walk set-up every walk of the pair shares, whatever its radius; the
    walk held for the pair, if ``pairs`` is not None; the results computed
    for it as [result, last read] by key (``_result``); and its last read.
    The held walk is the pairs (g, z) sorted by g: z is one member of a pair
    +-z of lattice coordinates and g / L its gauge, so pairs of any two walks
    of the pair compare.  They hold every pair in the box ``hi`` of
    ``radius`` with g <= ``top``, so every pair with gauge <= radius, and
    none outside that box.  ``keyed`` holds the start of each run of tied
    points that ``_tie_level`` has put in key order; runs are read at or
    below the radius only."""

    def __init__(self, body: ConvexBody, lat: Lattice):
        """The set-up: integer rows E and positive integers S with gauge(z B)
        = max_j |E_j . z| / S_j for lattice coordinates z, weighted to
        W_j = E_j * (L / S_j) with L = lcm(S), so the gauge is
        max_j |W_j . z| / L; and h_K(U_i / m) as integer (num, den) for the
        dual rows (U, m): with the half-widths a or the vertices V over one
        denominator q, sum_j |U_ij| a_j / (m q) or max_v U_i . v / (m q)."""
        _check_dims(body, lat)
        h, d = lat._hermite, lat._denom
        u, m = lat.dual_in_span()
        if isinstance(body, Box):
            hw = body.halfwidths
            e = [[c * a.denominator for c in col] for col, a in zip(zip(*h), hw)]
            s = [a.numerator * d for a in hw]
            (a,), q = im.clear_denominators([hw])
            nums = [dot(map(abs, ui), a) for ui in u]
        else:
            e, s = [], []
            for c in body.facets:
                (cint,), cd = im.clear_denominators([c])
                e.append([dot(cint, row) for row in h])
                s.append(cd * d)
            verts, q = im.clear_denominators(body.vertices)
            nums = [max(dot(ui, v) for v in verts) for ui in u]
        self.big = big = math.lcm(*s)
        self.weighted = tuple(tuple(c * (big // sj) for c in row) for row, sj in zip(e, s))
        self.cols = tuple(zip(*h))  # x' = z H is (z . col for each col)
        self.supports = tuple((num, m * q) for num in nums)
        # the gauges of the basis vectors z = e_i times L, sorted
        self.basis_gauges = tuple(sorted(max(map(abs, col)) for col in zip(*self.weighted)))
        self.pairs, self.results, self.read = None, {}, 0

    def upto(self, radius) -> int:
        """The number of held pairs with gauge <= radius."""
        return bisect_right(self.pairs, _top(radius, self.big), key=itemgetter(0))


def _context(body, lat) -> _Context:
    """The context of (body, lattice), made on the first read of the pair."""
    ctx = _contexts.get((body, lat))
    if ctx is None:
        ctx = _Context(body, lat)
        if len(_contexts) >= _CACHE_SIZE:
            _contexts.pop(min(_contexts.items(), key=lambda kv: kv[1].read)[0]).pairs = None
        _contexts[body, lat] = ctx
    ctx.read = next(_reads)
    return ctx


def _result(body, lat, key, solve, *args):
    """The result kept for (body, lattice) under key, else solve(*args), then
    kept: solve's checks read only the values of (body, lattice, key), so a
    hit skips them, and a miss makes no context before they pass."""
    ctx = _contexts.get((body, lat))
    entry = ctx and ctx.results.get(key)
    if entry is None:
        res = solve(*args)
        ctx, entry = _context(body, lat), [res, 0]
        if len(ctx.results) >= _CACHE_SIZE:
            del ctx.results[min(ctx.results.items(), key=lambda kv: kv[1][1])[0]]
        ctx.results[key] = entry
    ctx.read = entry[1] = next(_reads)
    return entry[0]


def _check_dims(body, lat):
    if body.dim != lat.ambient_dim:
        raise ValueError("body and lattice dimension mismatch")


def _dilation(lam) -> Fraction:
    """The dilation factor lam as an exact rational, rejected if negative."""
    lam = Fraction(lam)
    if lam < 0:
        raise ValueError("dilation factor must be nonnegative")
    return lam


def _walk_system(body, lat, radius):
    """(context, hi): the context of (body, lattice) and the symmetric box
    |z_i| <= hi_i = floor(radius h_K(d_i)) that holds every lattice
    coordinate z with gauge(z B) <= radius, or None when no nonzero z has
    that gauge for want of rank or radius; the scope's walk budget bounds
    the box's full size."""
    _check_dims(body, lat)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if lat.rank == 0 or radius == 0:
        return None
    ctx = _context(body, lat)
    p, q = radius.numerator, radius.denominator
    hi = [p * num // (q * den) for num, den in ctx.supports]
    size = kernel.box_size([-m for m in hi], hi)
    budget = _budget.get()
    if size > budget:
        raise BudgetExceededError(
            f"enumeration box has {size} points, budget is {budget}"
        )
    return ctx, hi


def _top(radius, big) -> int:
    """floor(radius L): a gauge g / L with integer g is <= radius iff g is
    <= this.  So the walk's test |W_j . z| <= floor(p L / q) for radius p/q
    is q |W_j . z| <= p L, and as W_j = E_j (L / S_j), q |E_j . z| <= p S_j."""
    return radius.numerator * big // radius.denominator


def _shell(a, b):
    """Boxes holding one member of each pair +-z of the symmetric box
    |z_i| <= b_i that lies outside the box |z_i| <= a_i, for a <= b: for each
    axis i with a_i < b_i, the slab a_i < z_i <= b_i, |z_j| <= b_j for j < i
    and |z_j| <= a_j for j > i.  It takes the pairs whose last coordinate
    outside the small box is z_i, in their member with z_i > 0, so every
    slab is one-sided and no point lies in two.  With a = 0 a slab holds the
    points whose last nonzero coordinate is z_i > 0, and the slabs in turn
    list the half of the box after 0 in odometer order."""
    return [
        ([-v for v in b[:i]] + [a[i] + 1] + [-v for v in a[i + 1:]], b[:i + 1] + a[i + 1:])
        for i in range(len(a))
        if a[i] < b[i]
    ]


def _canonical(z, cols):
    """(|x'|, signs of x', z, x') for the canonical member z of the pair +-z,
    first nonzero coordinate positive, where x' = z H is the point times d:
    after the gauge, the rest of the point order's key.  With d > 0 it is
    that order, and (|x'|, signs) determines the point, so ties cannot occur."""
    for v in z:
        if v:
            break
    if v < 0:
        z = tuple([-v for v in z])
    x = tuple([dot(z, col) for col in cols])
    return tuple(map(abs, x)), tuple([v < 0 for v in x]), z, x


def _points(body, lat, radius, cap=None):
    """(context, n): the context of (body, lattice), the first n pairs of
    whose walk are those with gauge <= radius, or (None, 0) when there is
    nothing to walk.  A read at or below the held radius walks nothing.  A
    read beyond it collects the pairs of its box with gauge <= cap, the
    radius when there is no cap.  If the held pairs do not reach that gauge,
    or there are none, it drops every context's walk and starts from the
    empty walk at the origin, held only once walked, so at most one walk's
    points are alive at a time.  It walks the shell between the held box and
    its own (``_shell``) and merges what passes; the new pairs lie beyond
    the held radius, so the merge moves no pair at or below it and no keyed
    run.  ``_walk_system`` runs on every read, so the budget decides as if
    every read walked its whole box."""
    walk = _walk_system(body, lat, radius)
    if walk is None:
        return None, 0
    ctx, hi = walk
    if ctx.pairs is None or ctx.radius < radius:
        top = _top(radius if cap is None else cap, ctx.big)
        if ctx.pairs is None or ctx.top < top:
            for other in _contexts.values():
                other.pairs = None
            ctx.keyed, ctx.hi = set(), [0] * len(hi)
        t, pairs = [top] * len(ctx.weighted), ctx.pairs or []
        for lo, up in _shell(ctx.hi, hi):
            pairs += kernel.collect_passing(ctx.weighted, t, lo, up)
        pairs.sort(key=itemgetter(0))
        ctx.pairs, ctx.radius, ctx.hi, ctx.top = pairs, radius, hi, top
    return ctx, ctx.upto(radius)


def _exact(x, g, d, big):
    """The point x' / d and the gauge g / L as exact rationals."""
    if d == 1:
        return tuple(map(Fraction, x)), Fraction(g, big)
    return tuple(Fraction(v, d) for v in x), Fraction(g, big)


def enumerate_points(body: ConvexBody, lat: Lattice, radius):
    """Exactly the nonzero lattice points with gauge <= radius, with gauges.

    Sorted in the point order; the zero vector is never included.  The walk
    holds one member of each pair +-z, so each record (g, |x'|, signs of x',
    z, x') is made for the canonical member and for its partner, and only
    this list sorts every point; the solves read the walk's pairs lazily.
    """
    walked, n = _points(body, lat, Fraction(radius))
    if walked is None:
        return []
    cols, big, d = walked.cols, walked.big, lat._denom
    records = []
    for g, z in islice(walked.pairs, n):
        ax, signs, z, x = _canonical(z, cols)
        records += [(g, ax, signs, z, x),
                    (g, ax, tuple([v > 0 for v in x]), tuple([-v for v in z]),
                     tuple([-v for v in x]))]
    return [_exact(rec[4], rec[0], d, big) for rec in sorted(records)]


# ---------------------------------------------------------------------------
# successive minima
# ---------------------------------------------------------------------------


def _abs_head(pair):
    return abs(pair[1][0])


def _tie_level(walked, i, j):
    """The points of the tied pairs i..j-1 of the walk in key order, ordered
    as the pass reaches them and kept so for the next solve.  The first
    column of x' = z H that is not zero for every point is the pivot p0 of
    H's first row, and x'_p0 = z_0 H_0p0 with H_0p0 > 0, so after the gauge
    the key orders points by |z_0|: the level is sorted by that int once,
    and only the runs of equal |z_0| that the pass reaches are keyed by
    ``_canonical`` (a keyed run holds canonical members)."""
    pairs, keyed, cols = walked.pairs, walked.keyed, walked.cols
    if i not in keyed:  # the level's first run is keyed with its sort
        pairs[i:j] = sorted(islice(pairs, i, j), key=_abs_head)
    a = i
    while a < j:
        head, b = _abs_head(pairs[a]), a + 1
        while b < j and _abs_head(pairs[b]) == head:
            b += 1
        if a not in keyed:
            if b - a > 1:
                recs = sorted(_canonical(z, cols) for _, z in islice(pairs, a, b))
                pairs[a:b] = [(pairs[a][0], rec[2]) for rec in recs]
            keyed.add(a)
        for _, z in pairs[a:b]:
            yield z
        a = b


def _take(walked, end, read, k, admissible, chosen, comp, d) -> bool:
    """Read the first end pairs of the walk past the radius ``read`` (all of
    them when it is None) in the point order, one gauge level at a time,
    and append each admissible point independent of those chosen to chosen
    as (z, witness, value), until k are chosen; say whether they are.
    A point is independent iff some row of comp, integer rows spanning the
    vectors orthogonal to every chosen z, is not orthogonal to it; comp is
    updated in place (``_cut``) only when a point is chosen.  A level of one
    point needs no key; a level of ties is ordered lazily by ``_tie_level``,
    and that order stays with the walk."""
    if walked is None:
        return False
    pairs, big, cols = walked.pairs, walked.big, walked.cols
    i = 0 if read is None else walked.upto(read)
    while i < end:
        m, j = pairs[i][0], i + 1
        if j < end and pairs[j][0] == m:
            j = bisect_right(pairs, m, j, end, key=itemgetter(0))
            level = _tie_level(walked, i, j)
        else:
            level = (pairs[i][1],)
        for z in level:
            if admissible is not None and not admissible(z):
                continue
            for c in comp:
                if sum(map(mul, c, z)):
                    break
            else:
                continue  # z is orthogonal to the complement: dependent
            x = [dot(z, col) for col in cols]
            if next(filter(None, z)) < 0:  # the witness is the canonical member
                x = [-v for v in x]
            chosen.append((z, *_exact(x, m, d, big)))
            if len(chosen) == k:
                return True
            _cut(comp, z)
        i = j
    return False


def _cut(comp, z):
    """Update comp, independent integer rows spanning the vectors orthogonal
    to the points chosen so far, in place to span those orthogonal to z as
    well, for z not orthogonal to all of them: with c the first row whose
    s = c . z is not 0, every later row r with t = r . z not 0 becomes
    s r - t c over the gcd of its entries, and c is dropped.  The rows
    before c are orthogonal to z already."""
    for a, c in enumerate(comp):
        s = sum(map(mul, c, z))
        if s:
            break
    del comp[a]
    for b in range(a, len(comp)):
        row = comp[b]
        t = sum(map(mul, row, z))
        if t:
            row = [s * x - t * y for x, y in zip(row, c)]
            g = math.gcd(*row)
            comp[b] = [x // g for x in row]


def _solve(body, lat, k, radius, cap, admissible=None):
    """(values, witnesses, radius): the first k independent (admissible)
    points in the point order and the radius of the rung that found
    them.  A failed rung is retried at twice its radius, clipped to the cap;
    a failed rung at the cap, a proved radius, is a ``CertificateError``.

    Every rung reads ``_points``, so a rung at or below the radius of the
    walk held for (body, lattice), a successive minimum's or an earlier
    solve's, walks nothing, and tie levels that solve ordered stay ordered.
    A capped solve collects every rung at its cap, so a later rung walks
    only the shell its box adds to the held one, and no capped solve visits
    a box point twice; without a cap each rung walks its whole box.
    Admissibility, then independence, is tested point by point (``_take``),
    so the pass stops at the k-th witness.  The chosen points carry over to
    the next rung, which starts past the points at or below the failed
    radius.  Only ``_take`` refers to a rung's pairs, so the context holds
    the only reference left when the next rung reads."""
    chosen, comp = [], im.identity(lat.rank)  # nothing chosen: all independent
    read = None  # the last failed rung: every point at or below it was read
    while True:
        if _take(*_points(body, lat, radius, cap), read, k, admissible,
                 chosen, comp, lat._denom):
            _, witnesses, values = zip(*chosen)
            return values, witnesses, radius
        if cap is not None and radius >= cap:
            raise CertificateError("certified radius failed to contain the minima")
        read = radius
        radius = 2 * radius if cap is None else min(2 * radius, cap)


def successive_minima(body: ConvexBody, lat: Lattice, k: int) -> MinimaResult:
    """lambda_1 .. lambda_k with linearly independent witnesses, exact.

    Kept in the context of (body, lattice) under (k, walk budget of the
    calling scope), so a second call returns the same object, and a smaller
    budget recomputes and still raises ``BudgetExceededError``.
    """
    key = k, _budget.get()
    ctx = _contexts.get((body, lat))  # _result's hit, inline on the hottest call
    entry = ctx and ctx.results.get(key)
    if entry is None:
        return _result(body, lat, key, _successive_minima, body, lat, k)
    ctx.read = entry[1] = next(_reads)
    return entry[0]


def _successive_minima(body, lat, k) -> MinimaResult:
    if not 1 <= k <= lat.rank:
        raise RankError(f"k must lie in [1, rank]; got k={k}, rank={lat.rank}")
    ctx = _context(body, lat)
    gauge = ctx.basis_gauges[k - 1]  # the k-th smallest, times L
    radius = Fraction(gauge, ctx.big)
    kind = CERT_DOUBLING
    if lat.rank == lat.ambient_dim:
        n, det, vol = lat.ambient_dim, lat.det(), body.volume()
        if k > 1:
            ratio = 2**n * det / vol
            mink = ratio / successive_minima(body, lat, 1).values[0] ** (n - 1)
            radius = min(mink, radius)
        elif gauge**n * det.denominator * vol.numerator > (
                (2 * ctx.big) ** n * det.numerator * vol.denominator):
            # (gauge / L)^n > 2^n det / vol: the root of Minkowski's bound may
            # lie below the basis gauge; otherwise its upper end does not
            radius = min(nth_root_enclosure(2**n * det / vol, n).hi, radius)
        kind = CERT_MINKOWSKI
    values, witnesses, _ = _solve(body, lat, k, radius, radius)
    return MinimaResult(values, witnesses, radius, kind)


def _clear_caches():
    """Drop every context, and with them every result and the held walk."""
    _contexts.clear()


def _certificate(body, lat, forbidden, k):
    """(kind, cap): the proved radius of restricted minimum k from the bound
    evaluator whose hypotheses hold, or (doubling, None) when none does."""
    if lat.rank == lat.ambient_dim >= 2:
        from . import bounds  # deferred: bounds uses this module's minima

        subs = forbidden.sublattices
        if forbidden.classification == "all-full-rank":
            if k == 1:
                bd = bounds.avoidance_bound_full_rank(body, lat, subs)
                return CERT_THM_FULL, bd.final.hi
            bd = bounds.higher_minima_bound_full_rank(body, lat, subs, k)
            return CERT_COR_FULL, bd.final.hi
        if forbidden.classification == "all-lower-rank":
            if k == 1:
                bd = bounds.avoidance_bound_lower_rank(body, lat, subs)
                return CERT_THM_LOWER, bd.final.hi
            bd = bounds.higher_minima_bound_lower_rank(body, lat, subs, k - 1)
            return CERT_COR_LOWER, bd.final.hi
    return CERT_DOUBLING, None


def restricted_minima(
    body: ConvexBody,
    lat: Lattice,
    forbidden: ForbiddenCollection,
    k: int,
    method: str = "auto",
) -> MinimaResult:
    """Minima over lattice points avoiding every forbidden sublattice.

    Termination radius: the matching bound evaluator's (``_certificate``),
    otherwise geometric doubling.  Enumeration starts at lambda_1 and
    doubles under the certified cap, so typical instances stop far below
    it; the walk budget bounds the evaluators' walks as well as these.

    Kept in the context of (body, lattice) under (forbidden, k, walk budget
    of the calling scope, method) once its checks pass, so a second call
    returns the same object, and a smaller budget recomputes and still
    raises ``BudgetExceededError``.
    """
    return _result(body, lat, (forbidden, k, _budget.get(), method),
                   _restricted_minima, body, lat, forbidden, k, method)


def _restricted_minima(body, lat, forbidden, k, method) -> MinimaResult:
    if forbidden.ambient != lat:
        raise ValueError("forbidden collection belongs to a different lattice")
    if not 1 <= k <= lat.rank:
        raise RankError(f"k must lie in [1, rank]; got k={k}, rank={lat.rank}")
    if method not in ("auto", "doubling"):
        raise ValueError(f"unknown method {method!r}; use 'auto' or 'doubling'")
    if forbidden.covers_lattice:
        raise EmptyAdmissibleSetError(
            "the forbidden sublattices cover the whole lattice"
        )
    kind, cap = CERT_DOUBLING, None
    if method == "auto":
        kind, cap = _certificate(body, lat, forbidden, k)
    lam1 = successive_minima(body, lat, 1).values[0]
    start = lam1 if cap is None else min(lam1, cap)
    admissible = forbidden.admissible_coords
    values, witnesses, rung = _solve(body, lat, k, start, cap, admissible)
    return MinimaResult(values, witnesses, rung if cap is None else cap, kind)


# ---------------------------------------------------------------------------
# counting and torus helpers
# ---------------------------------------------------------------------------


def count_points(body: ConvexBody, lat: Lattice, lam) -> int:
    """|lam K  intersect  lattice|, origin included.

    When the context of (body, lattice) holds a walk at a radius >= lam, as
    after a solve of the pair, the count is read off it: twice the pairs
    with gauge <= lam, plus the origin.  Otherwise it counts the slabs of
    the shell around the origin, one member of each pair, strip by strip
    in ``kernel.count_passing`` and keeps no point: no candidate list, no
    gauge, and the held walk is left as it was.  Either way ``_walk_system``
    runs first, so the budget decides as if the whole box were walked."""
    lam = _dilation(lam)
    walk = _walk_system(body, lat, lam)
    if walk is None:
        return 1
    ctx, hi = walk
    if ctx.pairs is not None and ctx.radius >= lam:
        return 2 * ctx.upto(lam) + 1
    t = [_top(lam, ctx.big)] * len(ctx.weighted)
    boxes = _shell([0] * len(hi), hi)
    return 2 * sum(kernel.count_passing(ctx.weighted, t, lo, up) for lo, up in boxes) + 1


def distinct_cosets_in_body(
    body: ConvexBody,
    lat: Lattice,
    sub: Lattice,
    lam,
) -> int:
    """Number of cosets of lat modulo sub met by points of lam K."""
    span = lat.in_coords(sub)
    if span.rank != lat.rank:
        raise RankError("sublattice must have full rank in the lattice")
    labels = {(0,) * lat.rank}  # origin
    walked, n = _points(body, lat, _dilation(lam))
    if walked is not None:
        for _, z in islice(walked.pairs, n):
            labels.add(_coset_label(z, span))
            labels.add(_coset_label([-v for v in z], span))
    return len(labels)


def covering_radius_diagonal(body: ConvexBody, lat: Lattice) -> Fraction:
    """Exact covering radius for a box and a diagonal lattice."""
    if not isinstance(body, Box):
        raise UnsupportedBodyError("exact covering radius needs a box")
    _check_dims(body, lat)
    if lat.rank != lat.ambient_dim:
        raise RankError("covering radius needs a full-rank lattice")
    basis = lat.basis
    if any(x for i, row in enumerate(basis) for j, x in enumerate(row) if i != j):
        raise UnsupportedBodyError("exact covering radius needs a diagonal lattice")
    return max(row[i] / (2 * a) for i, (row, a) in enumerate(zip(basis, body.halfwidths)))


def torus_packing_volume(body: ConvexBody, sub: Lattice, lam) -> Fraction:
    """Exact torus volume of (lam K)/sub while lam K packs: lam^n vol(K)."""
    lam = _dilation(lam)
    if sub.rank != sub.ambient_dim or sub.ambient_dim != body.dim:
        raise RankError("torus volume needs a full-rank lattice of matching dimension")
    lam1 = successive_minima(body, sub, 1).values[0]
    if lam > lam1 / 2:
        raise PackingConditionError(
            f"dilate {lam} exceeds the packing threshold {lam1}/2; "
            "use the torus volume lower bound instead"
        )
    return lam**body.dim * body.volume()
