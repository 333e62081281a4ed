"""Small exact linear algebra on integer vectors: the integer-preserving
pivot, row reduction and kernels (in int throughout, each scaled by the
common denominator of the elimination), and primitive normalization."""

from __future__ import annotations

from math import gcd
from typing import Sequence

IntVec = tuple[int, ...]


def pivot(mat: list[list[int]], r: int, col: Sequence[int], d: int) -> int:
    """Integer-preserving Gauss-Jordan step in place (Edmonds 1967, Bareiss
    1968) on mat / d, d > 0, along the column col, one entry per row and
    cleared if stored in mat, with a positive pivot p = col[r]; returns p, the
    new common denominator.  Every entry stays a minor of the integer input, so
    each division by d is exact: (p x - f y) / d, or x - f y / d when p = d."""
    p = col[r]
    pivot_row = mat[r]
    for i, f in enumerate(col):
        if i == r:
            continue
        if not f:
            if p != d:
                mat[i] = [p * x // d for x in mat[i]]
        elif p != d:
            mat[i] = [(p * x - f * y) // d for x, y in zip(mat[i], pivot_row)]
        elif d == 1:
            mat[i] = [x - f * y for x, y in zip(mat[i], pivot_row)]
        else:
            mat[i] = [x - f * y // d for x, y in zip(mat[i], pivot_row)]
    return p


def rref(rows: Sequence[Sequence[int]]) -> tuple[list[IntVec], list[int]]:
    """Reduced row echelon form of integer rows times its common denominator
    d > 0, in int; returns (nonzero rows, pivot columns).

    Each row is first divided by its gcd, which leaves the row space alone;
    the elimination leaves d in every pivot entry."""
    mat = [list(primitive(row)) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        d = pivot(mat, r, [row[c] for row in mat], d)
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def nullspace(rows: Sequence[Sequence[int]], dim: int) -> list[IntVec]:
    """Integer basis of {x : row . x = 0}: d at a free column f, -row[f] at the pivots."""
    reduced, pivots = rref(rows)
    d = reduced[0][pivots[0]] if reduced else 1
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * dim
        v[f] = d
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def primitive(v: Sequence[int]) -> IntVec:
    """The integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def sign_normalized(v: IntVec) -> IntVec:
    """Flip sign so the first nonzero entry is positive (for line directions)."""
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v
