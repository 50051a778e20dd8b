import itertools
import random

import pytest

from latmin import kernel

# the shapes of box ``random_box`` draws: lo = -hi, around 0, one-sided on
# axis 0 (every strip starts at lo_0 >= 1) or on an outer axis (strips start
# at lo_0, which may be negative), every hi_i < 0, or anywhere
SHAPES = ("symmetric", "around", "first", "outer", "negative", "anywhere")


def random_box(rng, r, shape):
    """(lo, hi) of the given shape in r dimensions, half-widths up to 4; an
    "anywhere" box is sometimes empty."""
    hi = [rng.randint(0, 4) for _ in range(r)]
    if shape == "symmetric":
        return [-h for h in hi], hi
    if shape == "negative":
        hi = [rng.randint(-4, -1) for _ in range(r)]
        return [h - rng.randint(0, 4) for h in hi], hi
    if shape == "anywhere":
        lo = [rng.randint(-4, 4) for _ in range(r)]
        return lo, [l + rng.randint(-1, 4) for l in lo]
    lo = [rng.randint(-4, 0) for _ in range(r)]
    if shape in ("first", "outer"):
        i = 0 if shape == "first" or r == 1 else rng.randrange(1, r)
        lo[i] = rng.randint(1, 3)
        hi[i] = lo[i] + rng.randint(0, 3)
    return lo, hi


def random_system(rng):
    r = rng.randint(1, 4)
    m = rng.randint(1, 5)
    g = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
    t = [rng.randint(0, 40) for _ in range(m)]
    return g, t, r


def box_in_odometer_order(lo, hi):
    """Every z in the box, axis 0 fastest."""
    axes = [range(l, h + 1) for l, h in zip(lo, hi)]
    return [rev[::-1] for rev in itertools.product(*reversed(axes))]


def brute_passing(g, t, lo, hi):
    """Every z in the box with |row . z| <= t_j, axis 0 fastest."""
    return [
        z
        for z in box_in_odometer_order(lo, hi)
        if all(abs(sum(c * x for c, x in zip(row, z))) <= tj for row, tj in zip(g, t))
    ]


def gauge(g, z):
    """max_j |(G z)_j|, the number the walk returns with each point."""
    return max(abs(sum(c * x for c, x in zip(row, z))) for row in g)


class TestPurePython:
    # both loops visit every point of a plain box in odometer order, 0
    # included when the box holds it

    def test_zero_walked(self):
        g, t = [[1]], [10]
        assert kernel.collect_passing(g, t, [-2], [2]) == [
            (2, (-2,)), (1, (-1,)), (0, (0,)), (1, (1,)), (2, (2,))]
        assert kernel.count_passing(g, t, [-2], [2]) == 5

    def test_constraint_filtering(self):
        g, t = [[1, 0], [0, 1]], [1, 0]
        assert kernel.collect_passing(g, t, [-2, -2], [2, 2]) == [
            (1, (-1, 0)), (0, (0, 0)), (1, (1, 0))]
        assert kernel.count_passing(g, t, [-2, -2], [2, 2]) == 3

    def test_empty_box(self):
        assert kernel.count_passing([[1]], [5], [3], [1]) == 0
        assert kernel.count_passing([], [], [], []) == 0
        assert kernel.collect_passing([], [], [], []) == []

    def test_odometer_order(self):
        got = kernel.collect_passing([[1, 1]], [99], [-1, -1], [1, 1])
        assert [z for _, z in got] == box_in_odometer_order([-1, -1], [1, 1])
        assert [g for g, _ in got] == [2, 1, 0, 1, 0, 1, 0, 1, 2]
        assert kernel.count_passing([[1, 1]], [99], [-1, -1], [1, 1]) == 9

    def test_against_brute_force(self):
        rng = random.Random(99)
        passing = {shape: 0 for shape in SHAPES}
        for _ in range(600):
            g, t, r = random_system(rng)
            shape = rng.choice(SHAPES)
            lo, hi = random_box(rng, r, shape)
            expected = brute_passing(g, t, lo, hi)
            assert kernel.collect_passing(g, t, lo, hi) == [(gauge(g, z), z) for z in expected]
            assert kernel.count_passing(g, t, lo, hi) == len(expected)
            passing[shape] += len(expected)
        assert min(passing.values()) > 200

    def test_one_sided_boxes_against_brute_force(self):
        # a box with lo_i >= 1 on some axis holds no pair +-z; such boxes are
        # the slabs of a shell of two boxes
        rng = random.Random(97)
        passing = 0
        for _ in range(300):
            g, t, r = random_system(rng)
            lo, hi = random_box(rng, r, rng.choice(("symmetric", "around")))
            i = rng.randrange(r)
            lo[i] = rng.randint(1, 3)
            hi[i] = lo[i] + rng.randint(-1, 3)  # sometimes empty
            expected = brute_passing(g, t, lo, hi)
            assert kernel.collect_passing(g, t, lo, hi) == [(gauge(g, z), z) for z in expected]
            assert kernel.count_passing(g, t, lo, hi) == len(expected)
            passing += len(expected)
        assert passing > 1000

    def test_backend_name(self):
        assert kernel.backend_name() == "pure-python"


def strip_system(rng):
    """A system for the count's strip loop: r and m in 1..4, entries often 0
    or negative, and about half the rows 0 on axis 0, so constant along
    each strip."""
    r = rng.randint(1, 4)
    m = rng.randint(1, 4)
    g = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(r)] for _ in range(m)]
    for row in g:
        if rng.random() < 0.5:
            row[0] = 0
    t = [rng.randint(0, 30) for _ in range(m)]
    return g, t, r


class TestCountPassing:
    # count_passing has its own strip loop; these compare it with brute force
    # and with the collect walk on boxes of every shape

    def test_boxes_against_brute_force(self):
        rng = random.Random(2020)
        shapes, passing, cut_by_constant_row = set(), 0, 0
        for _ in range(1200):
            g, t, r = strip_system(rng)
            shape = rng.choice(SHAPES)
            lo, hi = random_box(rng, r, shape)
            expected = len(brute_passing(g, t, lo, hi))
            assert kernel.count_passing(g, t, lo, hi) == expected
            assert expected == len(kernel.collect_passing(g, t, lo, hi))
            shapes.add((shape, r, len(t)))
            passing += expected
            varying = [j for j in range(len(t)) if g[j][0]]
            loose = brute_passing([g[j] for j in varying], [t[j] for j in varying], lo, hi)
            cut_by_constant_row += expected < len(loose)
        assert {(r, m) for _, r, m in shapes} == {(r, m) for r in range(1, 5) for m in range(1, 5)}
        assert {shape for shape, _, _ in shapes} == set(SHAPES)
        assert passing > 5000 and cut_by_constant_row > 150

    def test_symmetric_boxes(self):
        rng = random.Random(2020)
        shapes, cut_by_constant_row = set(), 0
        for _ in range(400):
            g, t, r = strip_system(rng)
            lo, hi = random_box(rng, r, "symmetric")
            expected = len(brute_passing(g, t, lo, hi))
            assert kernel.count_passing(g, t, lo, hi) == expected
            assert expected == len(kernel.collect_passing(g, t, lo, hi))
            shapes.add((r, len(t)))
            varying = [j for j in range(len(t)) if g[j][0]]
            loose = brute_passing([g[j] for j in varying], [t[j] for j in varying], lo, hi)
            cut_by_constant_row += expected < len(loose)
        assert shapes == {(r, m) for r in range(1, 5) for m in range(1, 5)}
        assert cut_by_constant_row > 50

    @pytest.mark.parametrize("axis", ["first", "outer"])
    def test_one_sided_boxes(self, axis):
        rng = random.Random(2021 if axis == "first" else 2022)
        passing = 0
        for _ in range(300):
            g, t, r = strip_system(rng)
            if axis == "outer" and r == 1:
                continue
            lo, hi = random_box(rng, r, axis)
            expected = len(brute_passing(g, t, lo, hi))
            assert kernel.count_passing(g, t, lo, hi) == expected
            passing += expected
        assert passing > 1000

    def test_empty_boxes(self):
        rng = random.Random(2023)
        for _ in range(100):
            g, t, r = strip_system(rng)
            lo, hi = random_box(rng, r, rng.choice(SHAPES))
            i = rng.randrange(r)
            lo[i], hi[i] = rng.choice([(1, 0), (3, 1), (0, -1), (2, -2)])
            assert kernel.count_passing(g, t, lo, hi) == 0
            assert kernel.collect_passing(g, t, lo, hi) == []


class TestBoxSize:
    def test_sizes(self):
        assert kernel.box_size([-2, -1], [2, 1]) == 15
        assert kernel.box_size([0], [-1]) == 0
        assert kernel.box_size([], []) == 1
