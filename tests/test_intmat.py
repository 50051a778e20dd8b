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

    def test_solve_consistent(self):
        y = im.frac_solve([[2, 0], [0, 4]], [1, 2])
        assert y == [Fraction(1, 2), Fraction(1, 2)]

    def test_solve_inconsistent(self):
        assert im.frac_solve([[1, 1], [2, 2]], [1, 3]) is None

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 4)
            while True:
                a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                if im.frac_det(a) != 0:
                    break
            ainv = im.frac_inv(a)
            assert im.mat_mul(a, ainv) == im.identity(n, Fraction(1))

    def test_mat_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            im.mat_mul([[1, 2]], [[1, 2]])

    def test_lcm_denominators(self):
        assert im.lcm_denominators([[Fraction(1, 2), Fraction(2, 3)]]) == 6
        assert im.lcm_denominators([[1, 2]]) == 1


class TestEliminationAgainstOracle:
    """The shared elimination behind frac_rank, frac_solve and frac_inv,
    checked against the independent oracles on random rectangular and
    rank-deficient rational matrices."""

    def test_rank(self):
        rng = random.Random(2024)
        for _ in range(300):
            a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert im.frac_rank(a) == oracles.frac_rank(a)

    def test_solve(self):
        rng = random.Random(2025)
        solved = unsolvable = 0
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, m, n)
            if rng.random() < 0.5:  # consistent by construction
                y0 = [rand_rational(rng) for _ in range(n)]
                b = [sum((a[i][j] * y0[j] for j in range(n)), Fraction(0)) for i in range(m)]
            else:
                b = [rand_rational(rng) for _ in range(m)]
            y = im.frac_solve(a, b)
            assert (y is None) == (oracles.solve(a, b) is None)
            if y is None:
                unsolvable += 1
            else:
                solved += 1
                assert [sum(a[i][j] * y[j] for j in range(n)) for i in range(m)] == b
        assert solved > 50 and unsolvable > 50

    def test_inverse(self):
        rng = random.Random(2026)
        singular = 0
        for _ in range(200):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n)
            if oracles.frac_rank(a) < n:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    im.frac_inv(a)
            else:
                assert im.frac_inv(a) == oracles.inv(a)
        assert 20 < singular < 180
