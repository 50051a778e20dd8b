"""Backend selection for the enumeration kernel.

The compiled extension is used when it imported cleanly and the workload
provably fits in int64.  Otherwise the pure-Python twin runs; both produce
identical output in identical order.
"""

from __future__ import annotations

from . import _kernel_py

try:  # compiled extension is optional
    from . import _kernel as _compiled
except ImportError:  # pragma: no cover - depends on the build
    _compiled = None

_I64_LIMIT = 1 << 62


def compiled_available() -> bool:
    return _compiled is not None


def fits_int64(g, t, lo, hi) -> bool:
    """True when every partial sum of the walk stays within int64."""
    for j, row in enumerate(g):
        reach = sum(abs(c) * max(abs(l), abs(h)) for c, l, h in zip(row, lo, hi))
        if reach >= _I64_LIMIT or abs(t[j]) >= _I64_LIMIT:
            return False
    return all(abs(v) < _I64_LIMIT for v in lo) and all(abs(v) < _I64_LIMIT for v in hi)


def _backend(g, t, lo, hi):
    if _compiled is not None and fits_int64(g, t, lo, hi):
        return _compiled
    return _kernel_py


def backend_name(g=None, t=None, lo=None, hi=None) -> str:
    if g is None:
        return "compiled" if _compiled is not None else "pure-python"
    return "compiled" if _backend(g, t, lo, hi) is _compiled else "pure-python"


def count_passing(g, t, lo, hi) -> int:
    """Number of nonzero z in the box with |(G z)_j| <= t_j for all j."""
    return _backend(g, t, lo, hi).count_passing(g, t, lo, hi)


def collect_passing(g, t, lo, hi) -> list:
    """The passing z themselves, in odometer order (axis 0 fastest)."""
    return _backend(g, t, lo, hi).collect_passing(g, t, lo, hi)


def box_size(lo, hi) -> int:
    """Number of points the walk would visit."""
    total = 1
    for l, h in zip(lo, hi):
        if h < l:
            return 0
        total *= h - l + 1
    return total
