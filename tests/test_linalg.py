"""The integer-preserving row reduction against sympy's rational rref."""

import random
from fractions import Fraction

import pytest

from conelab import linalg


def random_matrix(rng):
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    mat = [[rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.4:
        # rank-deficient: one row a combination of two others
        a, b = rng.choice(mat), rng.choice(mat)
        u, v = rng.randint(-3, 3), rng.randint(-3, 3)
        mat[rng.randrange(rows)] = [u * x + v * y for x, y in zip(a, b)]
    if rng.random() < 0.3:
        mat.insert(rng.randrange(rows + 1), [0] * cols)
    return mat


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    seen = {"full rank": 0, "zero row": 0, "rank deficient": 0}
    for _ in range(300):
        mat = random_matrix(rng)
        want, want_pivots = sympy.Matrix(mat).rref()
        reduced, pivots = linalg.rref(mat)
        assert pivots == list(want_pivots), mat
        # every pivot entry is the one positive common denominator
        assert len({row[c] for row, c in zip(reduced, pivots)}) <= 1, mat
        assert all(row[c] > 0 for row, c in zip(reduced, pivots)), mat
        assert all(type(x) is int for row in reduced for x in row)
        assert [tuple(Fraction(x, row[c]) for x in row) for row, c in zip(reduced, pivots)] == [
            tuple(Fraction(int(x.p), int(x.q)) for x in want.row(i)) for i in range(len(pivots))
        ], mat
        seen["full rank"] += len(pivots) == len(mat)
        seen["zero row"] += any(linalg.is_zero(row) for row in mat)
        seen["rank deficient"] += len(pivots) < len(mat)
    assert min(seen.values()) >= 30, seen
    assert linalg.rref([]) == ([], [])
