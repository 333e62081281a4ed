"""Exact LP feasibility on integer data: non-negative combinations hitting a
target.

A revised phase-1 simplex (Dantzig & Orchard-Hays, 1954): it keeps the basis
inverse in int over one common denominator, updated by the integer-preserving
pivot, and prices the columns in int, on demand.  Its pivots are those of
Bland's rule on the dense phase-1 tableau (columns, then one artificial per
row); it stops once the artificials are zero, after which that tableau's
pivots are all degenerate, so the solutions are the same.  The columns and
the target are integer vectors, used as given; only the returned values are
Fractions.

The rows with a negative target entry are negated, to S A x = |t| for the
sign matrix S, and the tableau keeps B^-1 S, starting from S: a pivot is a
row operation, which commutes with S, so the pivots and solutions are those
of the negated system, while the columns are priced and entered as given.

The ratio test always finds a leaving row: the entering column prices
positive, so were none of its tableau entries positive, entering it would
lower the phase-1 objective, a sum of non-negative artificials, without bound.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from . import linalg


def nonnegative_combination(
    columns: Sequence[Sequence[int]], target: Sequence[int]
) -> list[Fraction] | None:
    """Coefficients x >= 0 with sum x_j columns[j] = target, or None.

    Bland's rule guarantees termination; the returned basic solution is an
    exact certificate, checked in int before it is returned (ArithmeticError
    if it fails) and re-verifiable by direct arithmetic.
    """
    m = len(target)
    n = len(columns)
    # the dense tableau on the entering column, the artificial columns and
    # the right-hand side, all times the common denominator `denom`: row i is
    # [d_i | row i of B^-1 S | x_i]; the last row is
    # [reduced cost | y S for y = c_B B^-1 | phase-1 objective]
    signs = [-1 if t < 0 else 1 for t in target]
    rows = [[0] + [s if i == k else 0 for k in range(m)] + [s * t]
            for i, (s, t) in enumerate(zip(signs, target))]
    rows.append([0] + signs + [sum(map(abs, target))])
    denom = 1
    basis = list(range(n, n + m))

    while rows[m][-1] != 0:
        # reduced cost y S column, whose sign alone is read; artificials are
        # never priced: when no column prices positive, the basis is optimal
        # for the columns and the basic artificials alone, so a positive
        # objective proves infeasibility
        price = rows[m][1:-1]
        for enter, col in enumerate(columns):
            if sum(map(mul, price, col)) > 0:
                break
        else:
            return None
        entering = [(k, a) for k, a in enumerate(col) if a]
        for row in rows:
            row[0] = sum(row[1 + k] * a for k, a in entering if row[1 + k])
        # Bland's ratio test: the least x_i / d_i over d_i > 0, ties to the
        # lower basic index; the ratios are compared by cross-multiplying
        leave = None
        for i in range(m):
            if rows[i][0] > 0 and (leave is None or (rows[i][-1] * rows[leave][0], basis[i])
                                   < (rows[leave][-1] * rows[i][0], basis[leave])):
                leave = i
        denom = linalg.pivot(rows, leave, 0, denom)
        basis[leave] = enter

    used = [(row[-1], var) for row, var in zip(rows, basis) if var < n and row[-1]]
    if any(sum(x * columns[var][k] for x, var in used) != denom * t for k, t in enumerate(target)):
        raise ArithmeticError("the basic solution does not reproduce the target")
    solution = [Fraction(0)] * n
    for x, var in used:
        solution[var] = Fraction(x, denom)
    return solution
