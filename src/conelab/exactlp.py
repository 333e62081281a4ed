"""Exact LP feasibility on integer data: non-negative combinations hitting a
target.

A revised phase-1 simplex (Dantzig & Orchard-Hays, 1954) in int over one
common denominator: tableau row i is row i of B^-1 S and the basic value x_i,
the last row y S for y = c_B B^-1 and the phase-1 objective.  Columns are
priced on demand; the entering column B^-1 S a and its reduced cost are kept
outside the tableau, built in one pass per nonzero entry of a.  The pivots
are those of Bland's rule on the dense phase-1 tableau (columns, then one
artificial per row); it stops once the artificials are zero, after which
that tableau's pivots are all degenerate, so the solutions are the same.
The columns and the target are integer vectors, used as given; a returned
value is an int, and a Fraction only where it has a denominator.

The rows with a negative target entry are negated, to S A x = |t| for the
sign matrix S, and B^-1 S starts from S: a pivot is a row operation, which
commutes with S, so the pivots and solutions are those of the negated system,
while the columns are priced and entered as given.

The ratio test always finds a leaving row: the entering column prices
positive, so were none of its entries positive, entering it would lower the
phase-1 objective, a sum of non-negative artificials, without bound.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from . import linalg


def nonnegative_combination(
    columns: Sequence[Sequence[int]], target: Sequence[int]
) -> list[int | Fraction] | None:
    """Coefficients x >= 0 with sum x_j columns[j] = target, or None: ints,
    and a Fraction only for a value with a denominator.

    Bland's rule guarantees termination; the returned basic solution is an
    exact certificate, checked in int before it is returned (ArithmeticError
    if it fails) and re-verifiable by direct arithmetic.
    """
    m, n = len(target), len(columns)
    # the tableau of the module docstring, times the common denominator `denom`
    signs = [-1 if t < 0 else 1 for t in target]
    rows = [[0] * m + [s * t] for s, t in zip(signs, target)]
    for i, s in enumerate(signs):
        rows[i][i] = s
    rows.append(signs + [sum(map(abs, target))])
    denom, basis = 1, list(range(n, n + m))

    while rows[m][-1] != 0:
        # the sign of the reduced cost y S column; artificials are never priced:
        # if no column prices positive, the basis is optimal for the columns and
        # the basic artificials, and a positive objective proves infeasibility
        price = rows[m][:-1]
        for enter, col in enumerate(columns):
            if sum(map(mul, price, col)) > 0:
                break
        else:
            return None
        d = None
        for k, a in enumerate(col):
            if a:
                d = ([row[k] * a for row in rows] if d is None
                     else [x + row[k] * a for x, row in zip(d, rows)])
        # Bland's ratio test: the least x_i / d_i over d_i > 0, ties to the
        # lower basic index; the ratios are compared by cross-multiplying
        leave = None
        for i in range(m):
            if d[i] > 0 and (leave is None or (rows[i][-1] * d[leave], basis[i])
                             < (rows[leave][-1] * d[i], basis[leave])):
                leave = i
        denom = linalg.pivot(rows, leave, d, denom)
        basis[leave] = enter

    used = {var: row[-1] for row, var in zip(rows, basis) if var < n and row[-1]}
    terms = [-denom, *used.values()]
    if any([sum(map(mul, terms, coord)) for coord in zip(target, *[columns[var] for var in used])]):
        raise ArithmeticError("the basic solution does not reproduce the target")
    solution = [0] * n
    for var, x in used.items():
        solution[var] = x // denom if x % denom == 0 else Fraction(x, denom)
    return solution
