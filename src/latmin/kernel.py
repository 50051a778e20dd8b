"""The constraint walk over half of a symmetric box, or over a one-sided box.

A box lo <= z <= hi symmetric about 0 (lo = -hi) holds, with each z, its
negation, and the system |(G z)_j| <= t_j is symmetric too, so z passes
exactly when -z does.  In odometer order (axis 0 fastest) the index of -z
mirrors the index of z around the index of 0, so the walk starts at 0 and
visits only the points after it: exactly one member of each pair +-z, the
one whose last nonzero coordinate is positive.  A box one-sided on some
axis (lo_i >= 1) holds no pair +-z and no 0, so the walk visits all of it.
Arithmetic is plain Python int, so there is no overflow ceiling.

Counting has its own loop, ``count_passing``, which visits the same points
and materialises none of them.  It walks the box strip by strip, a strip
being a run along axis 0 with the other coordinates fixed.  At a strip's
start it takes each row's sum over the fixed coordinates once; a row whose
axis-0 coefficient is 0 is constant along the strip and is tested once per
strip, and only the other rows are tested at each point.  ``_walk`` serves
the collect path alone, so neither loop branches on its caller at each
passing point.  A strip's passing points are the intersection of one
interval per row, so the count could be read in closed form without
visiting them; that waits for a benchmark whose input space a count that
fast cannot exhaust.
"""

from __future__ import annotations

from ._intmat import dot


def backend_name() -> str:
    """Name of the walk implementation.

    There is one.  This function stays because ``perfbench/run.py`` prints
    it in each run's info line; ``perfbench/spans.py`` likewise wraps
    ``collect_passing`` and ``count_passing`` by name, so those keep theirs.
    """
    return "pure-python"


def count_passing(g, t, lo, hi) -> int:
    """Number of nonzero z in the box with |(G z)_j| <= t_j for all j: twice
    the number in the half of a symmetric box after 0, every one in a
    one-sided box.  Raises ``ValueError`` on a nonempty box that is neither."""
    r = len(lo)
    if r == 0 or any(l > h for l, h in zip(lo, hi)):
        return 0
    if any(l >= 1 for l in lo):
        return _count_strips(g, t, lo, hi, lo[0], list(lo[1:]))
    if not all(l == -h for l, h in zip(lo, hi)):
        raise ValueError(
            f"walk box must be symmetric about 0 or one-sided; got lo={lo}, hi={hi}"
        )
    # the half after 0: the strip through 0 from z_0 = 1, then every strip
    # after it, whose last nonzero outer coordinate is positive
    return 2 * _count_strips(g, t, lo, hi, 1, [0] * (r - 1))


def _count_strips(g, t, lo, hi, first, outer):
    """Passing points of the strips from ``outer`` (coordinates 1..r-1) to
    the end of the box in odometer order: the first strip from z_0 = first,
    every later one from lo[0], each to hi[0]."""
    lo0, hi0 = lo[0], hi[0]
    m = len(t)
    fixed = [j for j in range(m) if not g[j][0]]
    vary = [j for j in range(m) if g[j][0]]
    ocols = [[g[j][i] for j in range(m)] for i in range(1, len(lo))]
    u = [dot(row[1:], outer) for row in g]
    s = len(outer)
    total = 0
    start = first
    while True:
        for j in fixed:
            if u[j] > t[j] or -u[j] > t[j]:
                break
        else:
            rows = [(u[j], g[j][0], t[j]) for j in vary]
            for z0 in range(start, hi0 + 1):
                for uj, cj, tj in rows:
                    v = uj + cj * z0
                    if v > tj or -v > tj:
                        break
                else:
                    total += 1
        start = lo0
        axis = 0
        while axis < s:
            if outer[axis] < hi[axis + 1]:
                outer[axis] += 1
                col = ocols[axis]
                for j in range(m):
                    u[j] += col[j]
                break
            step = lo[axis + 1] - hi[axis + 1]
            outer[axis] = lo[axis + 1]
            col = ocols[axis]
            for j in range(m):
                u[j] += step * col[j]
            axis += 1
        if axis == s:
            return total


def collect_passing(g, t, lo, hi) -> list:
    """(max_j |(G z)_j|, z) for each passing z the walk visits, in odometer
    order (axis 0 fastest): in a symmetric box one member of each passing
    pair +-z, the one after 0, and in a one-sided box every passing z.  The
    maximum is read off the walk's running sums y = G z."""
    return [(max(map(abs, y)), tuple(z)) for z, y in _walk(g, t, lo, hi)]


def box_size(lo, hi) -> int:
    """Number of points in the box, the half the walk skips included."""
    total = 1
    for l, h in zip(lo, hi):
        if h < l:
            return 0
        total *= h - l + 1
    return total


def _walk(g, t, lo, hi):
    """Yield (z, y) with y = G z for each passing z of the walk; the pair and
    both lists are reused, so copy what is kept.  Raises ``ValueError`` on a
    nonempty box that is neither symmetric about 0 nor one-sided."""
    r = len(lo)
    m = len(t)
    if r == 0 or any(l > h for l, h in zip(lo, hi)):
        return
    if any(l >= 1 for l in lo):
        # the walk's first step takes z from just before lo to lo
        z = [lo[0] - 1, *lo[1:]]
    elif all(l == -h for l, h in zip(lo, hi)):
        z = [0] * r
    else:
        raise ValueError(
            f"walk box must be symmetric about 0 or one-sided; got lo={lo}, hi={hi}"
        )
    gcols = [[g[j][i] for j in range(m)] for i in range(r)]
    y = [dot(row, z) for row in g]
    pair = (z, y)
    while True:
        axis = 0
        while axis < r:
            if z[axis] < hi[axis]:
                z[axis] += 1
                col = gcols[axis]
                for j in range(m):
                    y[j] += col[j]
                break
            step = lo[axis] - hi[axis]
            z[axis] = lo[axis]
            col = gcols[axis]
            for j in range(m):
                y[j] += step * col[j]
            axis += 1
        if axis == r:
            return
        for j in range(m):
            yj = y[j]
            if yj > t[j] or -yj > t[j]:
                break
        else:
            yield pair
