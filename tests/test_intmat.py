import random
from fractions import Fraction

import pytest

import oracles
from latmin import _intmat as im


def rand_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_matrix(rng, m, n):
    """m x n rational matrix of random rank <= min(m, n), built as a product
    X Y so that rank deficiency is common."""
    r = rng.randint(0, min(m, n))
    x = [[rand_rational(rng) for _ in range(r)] for _ in range(m)]
    y = [[rand_rational(rng) for _ in range(n)] for _ in range(r)]
    return [[sum((x[i][k] * y[k][j] for k in range(r)), Fraction(0)) for j in range(n)]
            for i in range(m)]


def int_matrix(rng, deficient):
    """Integer matrix of 1..5 rows and columns with entries up to 10^6: random,
    or rank deficient (rank < min(m, n)) as a product X Y."""
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    if not deficient:
        return [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(m)]
    r = rng.randint(0, min(m, n) - 1)
    big = 10**6 // (3 * max(r, 1))
    x = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
    y = [[rng.randint(-big, big) for _ in range(n)] for _ in range(r)]
    return [[sum(x[i][k] * y[k][j] for k in range(r)) for j in range(n)] for i in range(m)]


def rand_unimodular(rng, r, ops=6):
    u = im.identity(r)
    for _ in range(ops):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [u[i][k] + q * u[j][k] for k in range(r)]
    return u


class TestHNF:
    def test_generating_set_reduces(self):
        assert im.hnf([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]

    def test_identity_fixed(self):
        assert im.hnf(im.identity(3)) == im.identity(3)

    def test_unimodular_collapses_to_identity(self):
        assert im.hnf([[1, 0], [3, 1]]) == [[1, 0], [0, 1]]

    def test_canonical_under_unimodular_transforms(self):
        rng = random.Random(11)
        for _ in range(100):
            r = rng.randint(1, 3)
            n = rng.randint(r, 4)
            while True:
                b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
                if im.frac_rank(b) == r:
                    break
            u = rand_unimodular(rng, r)
            assert im.hnf(im.mat_mul(u, b)) == im.hnf(b)

    def test_drops_zero_rows(self):
        assert im.hnf([[0, 0], [2, 4]]) == [[2, 4]]

    def test_pivot_normalization(self):
        h = im.hnf([[-3, 1], [0, 5]])
        pivots = [next(x for x in row if x != 0) for row in h]
        assert all(p > 0 for p in pivots)
        # entry above a pivot lies in [0, pivot)
        assert 0 <= h[0][1] < h[1][1]


class TestFractionOps:
    def test_det(self):
        assert im.frac_det([[1, 2], [3, 4]]) == -2
        assert im.frac_det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)
        assert im.frac_det([]) == 1

    def test_rank(self):
        assert im.frac_rank([[1, 2], [2, 4]]) == 1
        assert im.frac_rank([[1, 0], [0, 1]]) == 2
        assert im.frac_rank([[0, 0]]) == 0

    def test_mat_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            im.mat_mul([[1, 2]], [[1, 2]])

    def test_lcm_denominators(self):
        assert im.lcm_denominators([[Fraction(1, 2), Fraction(2, 3)]]) == 6
        assert im.lcm_denominators([[1, 2]]) == 1


class TestEliminationAgainstOracle:
    """The one fraction-free elimination, behind frac_rank, frac_det and
    Lattice.dual_in_span, checked against the independent
    oracles on random rectangular and rank-deficient rational matrices and
    on large-entry and rank-deficient rectangular integer matrices."""

    def test_rank(self):
        rng = random.Random(2024)
        deficient = 0
        for trial in range(500):
            if trial < 300:
                a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            else:
                a = int_matrix(rng, deficient=trial % 2)
            rank = oracles.frac_rank(a)
            deficient += trial >= 300 and rank < min(len(a), len(a[0]))
            assert im.frac_rank(a) == rank
        assert deficient >= 100

    def test_det(self):
        # integer, rational and singular matrices (rand_matrix is often rank
        # deficient), large entries, integer matrices with a zero in the top
        # left corner (the first pivot needs a row swap, which flips the
        # sign), and the empty matrix
        rng = random.Random(2026)
        kinds = {"singular": 0, "integer": 0}
        for trial in range(400):
            n = rng.randint(1, 5) if trial < 300 else rng.randint(2, 5)
            if trial % 3 == 0 or trial >= 300:
                a = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
                kinds["integer"] += 1
                if trial >= 300:
                    a[0][0] = 0
            else:
                a = rand_matrix(rng, n, n)
            expected = oracles.det(a)
            kinds["singular"] += expected == 0
            got = im.frac_det(a)
            assert got == expected and isinstance(got, Fraction)
        assert im.frac_det([]) == oracles.det([]) == 1
        assert kinds["singular"] > 50 and kinds["integer"] == 200
