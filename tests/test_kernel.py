import itertools
import random

import pytest

from latmin import kernel


def random_system(rng, symmetric=True):
    r = rng.randint(1, 4)
    m = rng.randint(1, 5)
    g = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
    t = [rng.randint(0, 40) for _ in range(m)]
    hi = [rng.randint(0, 4) for _ in range(r)]
    lo = [-h for h in hi] if symmetric else [rng.randint(-4, 0) for _ in range(r)]
    return g, t, lo, hi


def box_in_odometer_order(lo, hi):
    """Every z in the box, axis 0 fastest."""
    axes = [range(l, h + 1) for l, h in zip(lo, hi)]
    return [rev[::-1] for rev in itertools.product(*reversed(axes))]


def brute_passing(g, t, lo, hi):
    """Every nonzero z in the box with |row . z| <= t_j, axis 0 fastest."""
    return [
        z
        for z in box_in_odometer_order(lo, hi)
        if any(z)
        and all(abs(sum(c * x for c, x in zip(row, z))) <= tj for row, tj in zip(g, t))
    ]


def gauge(g, z):
    """max_j |(G z)_j|, the number the walk returns with each point."""
    return max(abs(sum(c * x for c, x in zip(row, z))) for row in g)


def negate(z):
    return tuple(-x for x in z)


class TestPurePython:
    # the walk visits the half of a symmetric box after 0 in odometer order:
    # one member of each pair +-z, while the count covers the whole box
    def test_zero_skipped(self):
        g, t = [[1]], [10]
        assert kernel.collect_passing(g, t, [-2], [2]) == [(1, (1,)), (2, (2,))]
        assert kernel.count_passing(g, t, [-2], [2]) == 4

    def test_constraint_filtering(self):
        g, t = [[1, 0], [0, 1]], [1, 0]
        assert kernel.collect_passing(g, t, [-2, -2], [2, 2]) == [(1, (1, 0))]
        assert kernel.count_passing(g, t, [-2, -2], [2, 2]) == 2

    def test_empty_box(self):
        assert kernel.count_passing([[1]], [5], [3], [1]) == 0
        assert kernel.count_passing([], [], [], []) == 0
        assert kernel.collect_passing([], [], [], []) == []

    def test_odometer_order(self):
        got = kernel.collect_passing([[1, 1]], [99], [-1, -1], [1, 1])
        assert got == [(1, (1, 0)), (0, (-1, 1)), (1, (0, 1)), (2, (1, 1))]
        assert kernel.count_passing([[1, 1]], [99], [-1, -1], [1, 1]) == 8

    def test_against_brute_force(self):
        rng = random.Random(99)
        pairs = 0
        for _ in range(300):
            g, t, lo, hi = random_system(rng)
            expected = brute_passing(g, t, lo, hi)
            box = box_in_odometer_order(lo, hi)
            after_zero = set(box[box.index((0,) * len(lo)) + 1:])
            got = kernel.collect_passing(g, t, lo, hi)
            # in order, after 0, and with its negation every passing point
            # once: so no zero, no duplicate and one member per pair
            assert got == [(gauge(g, z), z) for z in expected if z in after_zero]
            points = [z for _, z in got]
            assert sorted(points + [negate(z) for z in points]) == sorted(expected)
            assert kernel.count_passing(g, t, lo, hi) == len(expected)
            pairs += len(got)
        assert pairs > 1000

    def test_one_sided_boxes_against_brute_force(self):
        # a box with lo_i >= 1 on some axis holds no pair +-z, and the walk
        # visits all of it; such boxes are the slabs of a shell of two boxes
        rng = random.Random(97)
        passing = 0
        for _ in range(300):
            g, t, lo, hi = random_system(rng, symmetric=rng.random() < 0.5)
            i = rng.randrange(len(lo))
            lo[i] = rng.randint(1, 3)
            hi[i] = lo[i] + rng.randint(-1, 3)  # sometimes empty
            expected = brute_passing(g, t, lo, hi)
            assert kernel.collect_passing(g, t, lo, hi) == [(gauge(g, z), z) for z in expected]
            assert kernel.count_passing(g, t, lo, hi) == len(expected)
            passing += len(expected)
        assert passing > 1000

    def test_asymmetric_box_rejected(self):
        rng = random.Random(98)
        checked = 0
        while checked < 50:
            g, t, lo, hi = random_system(rng, symmetric=False)
            if lo == [-h for h in hi]:
                continue
            for walk in (kernel.collect_passing, kernel.count_passing):
                with pytest.raises(ValueError, match="symmetric"):
                    walk(g, t, lo, hi)
            checked += 1

    def test_backend_name(self):
        assert kernel.backend_name() == "pure-python"


def strip_system(rng):
    """A system for the count's strip loop: r and m in 1..4, entries often 0
    or negative, and about half the rows 0 on axis 0, so constant along
    each strip; the box's half-widths are returned as hi."""
    r = rng.randint(1, 4)
    m = rng.randint(1, 4)
    g = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(r)] for _ in range(m)]
    for row in g:
        if rng.random() < 0.5:
            row[0] = 0
    t = [rng.randint(0, 30) for _ in range(m)]
    hi = [rng.randint(0, 4) for _ in range(r)]
    return g, t, hi


class TestCountPassing:
    # count_passing has its own strip loop; these compare it with brute force
    # and with the collect walk on the same boxes

    def test_symmetric_boxes(self):
        rng = random.Random(2020)
        shapes, cut_by_constant_row = set(), 0
        for _ in range(400):
            g, t, hi = strip_system(rng)
            lo = [-h for h in hi]
            expected = len(brute_passing(g, t, lo, hi))
            assert kernel.count_passing(g, t, lo, hi) == expected
            assert expected == 2 * len(kernel.collect_passing(g, t, lo, hi))
            shapes.add((len(hi), len(t)))
            varying = [j for j in range(len(t)) if g[j][0]]
            loose = brute_passing([g[j] for j in varying], [t[j] for j in varying], lo, hi)
            cut_by_constant_row += expected < len(loose)
        assert shapes == {(r, m) for r in range(1, 5) for m in range(1, 5)}
        assert cut_by_constant_row > 50

    @pytest.mark.parametrize("axis", ["first", "outer"])
    def test_one_sided_boxes(self, axis):
        # one-sided on axis 0 (every strip starts at lo_0 >= 1) or on an outer
        # axis (strips start at lo_0, which may be negative)
        rng = random.Random(2021 if axis == "first" else 2022)
        passing = 0
        for _ in range(300):
            g, t, hi = strip_system(rng)
            if axis == "outer" and len(hi) == 1:
                continue
            lo = [rng.randint(-4, 0) for _ in hi]
            i = 0 if axis == "first" else rng.randrange(1, len(hi))
            lo[i] = rng.randint(1, 3)
            hi[i] = lo[i] + rng.randint(0, 3)
            expected = len(brute_passing(g, t, lo, hi))
            assert kernel.count_passing(g, t, lo, hi) == expected
            passing += expected
        assert passing > 1000

    def test_empty_boxes(self):
        rng = random.Random(2023)
        for _ in range(100):
            g, t, hi = strip_system(rng)
            lo = [-h for h in hi]
            i = rng.randrange(len(hi))
            lo[i], hi[i] = rng.choice([(1, 0), (3, 1), (0, -1), (2, -2)])
            assert kernel.count_passing(g, t, lo, hi) == 0
            assert kernel.collect_passing(g, t, lo, hi) == []


class TestBoxSize:
    def test_sizes(self):
        assert kernel.box_size([-2, -1], [2, 1]) == 15
        assert kernel.box_size([0], [-1]) == 0
        assert kernel.box_size([], []) == 1
