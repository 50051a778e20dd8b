import itertools
import random

from latmin import kernel


def random_system(rng):
    r = rng.randint(1, 4)
    m = rng.randint(1, 5)
    g = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(m)]
    t = [rng.randint(0, 40) for _ in range(m)]
    lo = [rng.randint(-4, 0) for _ in range(r)]
    hi = [rng.randint(0, 4) for _ in range(r)]
    return g, t, lo, hi


def brute_passing(g, t, lo, hi):
    """Every nonzero z in the box with |row . z| <= t_j, axis 0 fastest."""
    axes = [range(l, h + 1) for l, h in zip(lo, hi)]
    out = []
    for rev in itertools.product(*reversed(axes)):
        z = rev[::-1]
        if any(z) and all(
            abs(sum(c * x for c, x in zip(row, z))) <= tj for row, tj in zip(g, t)
        ):
            out.append(z)
    return out


class TestPurePython:
    def test_zero_skipped(self):
        g, t = [[1]], [10]
        assert kernel.collect_passing(g, t, [-2], [2]) == [(-2,), (-1,), (1,), (2,)]

    def test_constraint_filtering(self):
        g, t = [[1, 0], [0, 1]], [1, 0]
        got = kernel.collect_passing(g, t, [-2, -2], [2, 2])
        assert got == [(-1, 0), (1, 0)]

    def test_empty_box(self):
        assert kernel.count_passing([[1]], [5], [3], [1]) == 0
        assert kernel.count_passing([], [], [], []) == 0
        assert kernel.collect_passing([], [], [], []) == []

    def test_odometer_order(self):
        got = kernel.collect_passing([[1, 1]], [99], [-1, -1], [1, 1])
        assert got == [
            (-1, -1), (0, -1), (1, -1),
            (-1, 0), (1, 0),
            (-1, 1), (0, 1), (1, 1),
        ]

    def test_against_brute_force(self):
        rng = random.Random(99)
        for _ in range(300):
            g, t, lo, hi = random_system(rng)
            expected = brute_passing(g, t, lo, hi)
            assert kernel.collect_passing(g, t, lo, hi) == expected
            assert kernel.count_passing(g, t, lo, hi) == len(expected)

    def test_backend_name(self):
        assert kernel.backend_name() == "pure-python"


class TestBoxSize:
    def test_sizes(self):
        assert kernel.box_size([-2, -1], [2, 1]) == 15
        assert kernel.box_size([0], [-1]) == 0
        assert kernel.box_size([], []) == 1
