"""Exact rational LP feasibility: non-negative combinations hitting a target.

A single phase-1 simplex with Bland's rule over Fraction.  Problem sizes in
this package are tiny (at most ~10 equations), so the dense tableau is fine.
"""

from __future__ import annotations

from fractions import Fraction
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
    a = [[Fraction(columns[j][i]) for j in range(n)] for i in range(m)]
    b = [Fraction(t) for t in target]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # tableau over columns [x_0..x_{n-1}, s_0..s_{m-1} | rhs], artificial basis
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = list(range(n, n + m))
    # phase-1 objective: minimize the artificial sum; its reduced costs form
    # the last tableau row, so each pivot updates them as well
    cost = [Fraction(0)] * (n + m) + [Fraction(0)]
    for i in range(m):
        for j in range(n + m + 1):
            cost[j] += tab[i][j]
    for j in range(n, n + m):
        cost[j] -= 1
    tab.append(cost)

    while True:
        enter = next((j for j in range(n + m) if tab[m][j] > 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][n + m] / tab[i][enter], basis[i], i)
            for i in range(m)
            if tab[i][enter] > 0
        ]
        if not ratios:
            raise ArithmeticError("phase-1 objective unbounded; malformed input")
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        linalg.pivot(tab, leave, enter)
        basis[leave] = enter

    if tab[m][n + m] != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tab[i][n + m]
        elif tab[i][n + m] != 0:
            return None
    return solution
