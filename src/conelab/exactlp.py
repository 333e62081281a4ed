"""Exact rational LP feasibility: non-negative combinations hitting a target.

A revised phase-1 simplex (Dantzig & Orchard-Hays, 1954): it keeps the basis
inverse over Fraction and prices the columns in int, on demand.  Its pivots
are those of Bland's rule on the dense phase-1 tableau (columns, then one
artificial per row); it stops once the artificials are zero, after which that
tableau's pivots are all degenerate, so the solutions are the same.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import mul
from typing import Sequence

from . import linalg


def nonnegative_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Coefficients x >= 0 with sum x_j columns[j] = target, or None.

    Bland's rule guarantees termination; the returned basic solution is an
    exact certificate that can be re-verified by direct arithmetic.
    """
    m = len(target)
    n = len(columns)
    # rows whose target entry is negative are negated, so the right-hand side
    # starts non-negative; pricing folds that sign into the pricing row
    flip = [t < 0 for t in target]
    # priced on first use; a positive rescale keeps the sign of a reduced cost
    column = cache(lambda j: linalg.primitive(columns[j]))
    # the dense tableau on the entering column, the artificial columns and
    # the right-hand side: row i is [d_i | row i of the basis inverse | x_i];
    # the last row is [reduced cost | y = c_B B^-1 | phase-1 objective]
    rows = [
        [Fraction(0)] + [Fraction(int(i == k)) for k in range(m)] + [abs(Fraction(t))]
        for i, t in enumerate(target)
    ]
    rows.append([Fraction(0)] + [Fraction(1)] * m + [sum(row[-1] for row in rows)])
    basis = list(range(n, n + m))

    while rows[m][-1] != 0:
        # reduced cost y.column; artificials are never priced: when no column
        # prices positive, the basis is optimal for the columns and the basic
        # artificials alone, so a positive objective proves infeasibility
        price = linalg.primitive([-x if f else x for f, x in zip(flip, rows[m][1:-1])])
        enter = next((j for j in range(n) if sum(map(mul, price, column(j))) > 0), None)
        if enter is None:
            return None
        entering = [(k, -x if f else x) for k, (f, x) in enumerate(zip(flip, columns[enter])) if x]
        for row in rows:
            row[0] = sum(row[1 + k] * a for k, a in entering if row[1 + k])
        ratios = [(row[-1] / row[0], basis[i], i) for i, row in enumerate(rows[:m]) if row[0] > 0]
        if not ratios:
            raise ArithmeticError("phase-1 objective unbounded; malformed input")
        leave = min(ratios)[2]
        linalg.pivot(rows, leave, 0)
        basis[leave] = enter

    solution = [Fraction(0)] * n
    for row, var in zip(rows, basis):
        if var < n:
            solution[var] = row[-1]
    return solution
