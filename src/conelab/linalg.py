"""Small exact linear algebra on vectors that mix int and Fraction entries, as
class coefficients do: row reduction and kernels over Fraction (the pivots
divide), and primitive normalization of rational and integer vectors."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def pivot(mat: list[list[Fraction]], r: int, c: int) -> None:
    """Gauss-Jordan step in place: scale row r so its entry in column c is 1,
    then clear column c from every other row.  Zero entries are skipped."""
    pv = mat[r][c]
    mat[r] = [x / pv if x else x for x in mat[r]]
    for i in range(len(mat)):
        if i != r and mat[i][c] != 0:
            f = mat[i][c]
            mat[i] = [x - f * y if y else x for x, y in zip(mat[i], mat[r])]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = [list(Fraction(x) for x in row) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot(mat, r, c)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def nullspace(rows: Sequence[Sequence[Fraction]], dim: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for every row}."""
    reduced, pivots = rref(rows)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * dim
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def primitive(v: Sequence) -> IntVec:
    """Positive rescale making the entries integers with gcd 1; int entries
    skip the common denominator."""
    if not all(type(x) is int for x in v):
        denom = lcm(*(x.denominator for x in v))
        v = [x.numerator * (denom // x.denominator) for x in v]
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def sign_normalized(v: IntVec) -> IntVec:
    """Flip sign so the first nonzero entry is positive (for line directions)."""
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v
