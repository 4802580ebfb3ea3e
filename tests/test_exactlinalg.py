import math
import random
from fractions import Fraction as F

import jetcohom.exactlinalg as xl

import oracles


def _random_matrix(rng, rows, cols, density=0.6):
    return [
        [F(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < density else F(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]


def test_rank_against_known():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert xl.rank(m) == 2
    assert xl.rank([[F(0)] * 3] * 2) == 0
    assert xl.rank(oracles.identity(4)) == 4


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = _random_matrix(rng, rows, cols)
        ker = xl.kernel_basis(m)
        assert len(ker) == cols - xl.rank(m)
        for vec in ker:
            image = [sum(row[j] * vec[j] for j in range(cols)) for row in m]
            assert all(x == 0 for x in image)
        # kernel vectors are primitive int vectors
        for vec in ker:
            assert all(type(x) is int for x in vec) and math.gcd(*vec) == 1


def test_kernel_vectors_independent():
    rng = random.Random(5)
    m = _random_matrix(rng, 3, 8)
    ker = xl.kernel_basis(m)
    stacked = [list(v) for v in ker]
    assert xl.rank(stacked) == len(ker)


def test_invert_and_det():
    rng = random.Random(7)
    for _ in range(10):
        k = rng.randint(1, 5)
        while True:
            m = _random_matrix(rng, k, k, density=0.9)
            if xl.det(m) != 0:
                break
        inv = xl.invert(m)
        prod = xl.matmul(m, inv)
        assert all(prod[i][j] == (1 if i == j else 0) for i in range(k) for j in range(k))
        assert xl.det(m) * xl.det(inv) == 1


def test_det_singular():
    m = [[F(1), F(2)], [F(2), F(4)]]
    assert xl.det(m) == 0


def test_clear_denominators_of_mixed_ints_and_fractions():
    m = [[0, F(1, 2), 3], [F(-2, 3), F(0), F(4)]]
    ints, den = xl.clear_denominators(m)
    assert den == 6
    assert ints == [[0, 3, 18], [-4, 0, 24]]
    assert all(type(x) is int for row in ints for x in row)
    assert xl.clear_denominators([[1, 2], [0, -3]]) == ([[1, 2], [0, -3]], 1)
    assert xl.rank(m) == 2 and xl.rank([[1, F(1, 2)], [2, 1]]) == 1


def test_rank_and_kernel_match_the_full_update_reference():
    # the elimination updates only the columns from each pivot on and the
    # back substitution runs on ints: ranks and kernel vectors are those of
    # the full-update Bareiss with rational back substitution
    rng = random.Random(11)
    for trial in range(400):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice((0.2, 0.5, 0.9))
        if trial % 2:
            m = _random_matrix(rng, rows, cols, density)
        else:
            m = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and trial % 3 == 0:  # a combination of two rows forces rank deficiency
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
        assert xl.rank(m) == oracles.reference_rank(m), m
        assert xl.kernel_basis(m) == oracles.reference_kernel_basis(m), m
