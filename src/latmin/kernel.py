"""The constraint walk.

Walks the integer box lo <= z <= hi in odometer order (axis 0 fastest),
skipping z = 0, and tests each point against the scaled-integer constraint
system |(G z)_j| <= t_j.  Arithmetic is plain Python int, so there is no
overflow ceiling.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the walk implementation.

    There is one.  This function stays because ``perfbench/run.py`` prints
    it in each run's info line; ``perfbench/spans.py`` likewise wraps
    ``collect_passing`` and ``count_passing`` by name, so those keep theirs.
    """
    return "pure-python"


def count_passing(g, t, lo, hi) -> int:
    """Number of nonzero z in the box with |(G z)_j| <= t_j for all j."""
    total = 0
    for _ in _walk(g, t, lo, hi):
        total += 1
    return total


def collect_passing(g, t, lo, hi) -> list:
    """The passing z themselves, in odometer order (axis 0 fastest)."""
    return [tuple(z) for z in _walk(g, t, lo, hi)]


def box_size(lo, hi) -> int:
    """Number of points the walk would visit."""
    total = 1
    for l, h in zip(lo, hi):
        if h < l:
            return 0
        total *= h - l + 1
    return total


def _walk(g, t, lo, hi):
    """Yield each passing z; the yielded list is reused, so copy it."""
    r = len(lo)
    m = len(t)
    if r == 0 or any(l > h for l, h in zip(lo, hi)):
        return
    gcols = [[g[j][i] for j in range(m)] for i in range(r)]
    z = list(lo)
    y = [sum(g[j][i] * lo[i] for i in range(r)) for j in range(m)]
    while True:
        if any(z):
            ok = True
            for j in range(m):
                yj = y[j]
                if yj > t[j] or -yj > t[j]:
                    ok = False
                    break
            if ok:
                yield z
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
