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
        seen["zero row"] += any(not any(row) for row in mat)
        seen["rank deficient"] += len(pivots) < len(mat)
    assert min(seen.values()) >= 30, seen
    assert linalg.rref([]) == ([], [])


def test_pivot_matches_a_fraction_gauss_jordan_step():
    """Random basis exchanges on [A | I]: each tableau is det(B) B^-1 [A | I]
    over d = det(B), so every step is exact.  Each pivot, the column passed
    beside the rows and again with the rows still holding it, against the
    Fraction step on mat / d: row r over its pivot entry, col[i] / col[r]
    times it taken from every other row."""
    rng = random.Random(7)
    seen = {"p = d = 1": 0, "p = d > 1": 0, "p != d": 0,
            "zero factor, p = d": 0, "zero factor, p != d": 0}
    for _ in range(200):
        m, n = rng.randint(2, 5), rng.randint(1, 5)
        mat = [[rng.randint(-3, 3) for _ in range(n)] + [int(i == k) for k in range(m)]
               for i in range(m)]
        d = 1
        for _ in range(rng.randint(1, 6)):
            choices = [(r, c) for r in range(m) for c in range(n + m) if mat[r][c] > 0]
            if not choices:
                break
            at_d = [(r, c) for r, c in choices if mat[r][c] == d]
            r, c = rng.choice(at_d if at_d and rng.random() < 0.5 else choices)
            col = [row[c] for row in mat]
            want = [[Fraction(x, d) for x in row] for row in mat]
            scale = want[r][c]
            want = [[x / scale for x in row] if i == r else
                    [x - Fraction(col[i], col[r]) * y for x, y in zip(row, want[r])]
                    for i, row in enumerate(want)]
            outside = [row[:c] + row[c + 1:] for row in mat]
            p = col[r]
            seen["p = d = 1" if p == d == 1 else "p = d > 1" if p == d else "p != d"] += 1
            if 0 in col:
                seen["zero factor, p = d" if p == d else "zero factor, p != d"] += 1
            assert linalg.pivot(outside, r, col, d) == p
            assert linalg.pivot(mat, r, col, d) == p
            assert [[Fraction(x, p) for x in row] for row in mat] == want
            assert outside == [row[:c] + row[c + 1:] for row in mat]
            assert all(row[c] == 0 for i, row in enumerate(mat) if i != r)
            d = p
    assert min(seen.values()) >= 20, seen
