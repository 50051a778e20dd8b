"""The constraint walk over half of a symmetric box, or over a one-sided box.

A box lo <= z <= hi symmetric about 0 (lo = -hi) holds, with each z, its
negation, and the system |(G z)_j| <= t_j is symmetric too, so z passes
exactly when -z does.  In odometer order (axis 0 fastest) the index of -z
mirrors the index of z around the index of 0, so the walk starts at 0 and
visits only the points after it: exactly one member of each pair +-z, the
one whose last nonzero coordinate is positive.  A box one-sided on some
axis (lo_i >= 1) holds no pair +-z and no 0, so the walk visits all of it.
Arithmetic is plain Python int, so there is no overflow ceiling.
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
    the number the walk finds in the half of a symmetric box, the number it
    finds in a one-sided box."""
    total = 0
    for _ in _walk(g, t, lo, hi):
        total += 1
    return total if any(l >= 1 for l in lo) else 2 * total


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
