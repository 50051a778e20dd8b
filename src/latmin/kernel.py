"""The constraint walk over a plain integer box lo <= z <= hi.

Both loops visit every point of the box in odometer order (axis 0
fastest) and test |(G z)_j| <= t_j on running sums y = G z, updated by one
column of G per step; arithmetic is plain Python int, so there is no
overflow ceiling.  The box may hold 0 or not, and sit anywhere: which
boxes to walk is the caller's decision.

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
    """Number of z in the box with |(G z)_j| <= t_j for all j, counted strip
    by strip along axis 0."""
    r = len(lo)
    if r == 0 or any(l > h for l, h in zip(lo, hi)):
        return 0
    lo0, hi0 = lo[0], hi[0]
    m = len(t)
    fixed = [j for j in range(m) if not g[j][0]]
    vary = [j for j in range(m) if g[j][0]]
    ocols = [[g[j][i] for j in range(m)] for i in range(1, r)]
    outer = list(lo[1:])
    u = [dot(row[1:], outer) for row in g]
    s = r - 1
    total = 0
    while True:
        for j in fixed:
            if u[j] > t[j] or -u[j] > t[j]:
                break
        else:
            rows = [(u[j], g[j][0], t[j]) for j in vary]
            for z0 in range(lo0, hi0 + 1):
                for uj, cj, tj in rows:
                    v = uj + cj * z0
                    if v > tj or -v > tj:
                        break
                else:
                    total += 1
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
    """(max_j |(G z)_j|, z) for each z in the box with |(G z)_j| <= t_j for
    all j, in odometer order (axis 0 fastest).  The maximum is read off the
    walk's running sums y = G z."""
    return [(max(map(abs, y)), tuple(z)) for z, y in _walk(g, t, lo, hi)]


def box_size(lo, hi) -> int:
    """Number of points in the box."""
    total = 1
    for l, h in zip(lo, hi):
        if h < l:
            return 0
        total *= h - l + 1
    return total


def _walk(g, t, lo, hi):
    """Yield (z, y) with y = G z for each passing z of the box; the tuple
    and both lists are reused, so copy what is kept."""
    r = len(lo)
    m = len(t)
    if r == 0 or any(l > h for l, h in zip(lo, hi)):
        return
    # the walk's first step takes z from just before lo to lo
    z = [lo[0] - 1, *lo[1:]]
    gcols = [[g[j][i] for j in range(m)] for i in range(r)]
    y = [dot(row, z) for row in g]
    zy = (z, y)
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
            yield zy
