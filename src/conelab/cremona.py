"""Cremona moves on blowups of the plane: the reflection in H - Ei - Ej - El
composed with permutations of the exceptional classes.

Both generators preserve the intersection form and the canonical class, so
square and K-pairing are orbit invariants.  A class x0 H - x1 E1 - ... is
ordered when x1 >= ... >= xk, in the chamber when also x0 >= x1 + x2 + x3,
and reduced when in the chamber with every xi >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .lattice import (
    RATIONAL,
    DivisorClass,
    LatticeError,
    _from_numerators,
    canonical_class,
    pair,
)

MAX_STEPS = 1_000
BUDGET = 10_000


def _require_cremona_surface(x: DivisorClass) -> None:
    if not x.surface.is_rational or x.surface.k < 3:
        raise LatticeError("Cremona reflections need a rational surface with k >= 3")
    if not x.is_integral():
        raise LatticeError("Cremona moves act on integral classes")


def reflect(x: DivisorClass, triple: tuple[int, int, int]) -> DivisorClass:
    """Reflection x -> x + (x.alpha) alpha for alpha = H - Ei - Ej - El."""
    surface = x.surface
    k = surface.k
    # _require_cremona_surface raises exactly when this test fails
    if not (surface.kind == RATIONAL and k >= 3 and x._den == 1):
        _require_cremona_surface(x)
    i, j, l = triple
    if not (0 < i <= k and 0 < j <= k and 0 < l <= k and i != j != l != i):
        raise LatticeError(f"bad reflection triple {triple}")
    coeffs = list(x._num)
    d = coeffs[0] + coeffs[i] + coeffs[j] + coeffs[l]  # x.alpha
    coeffs[0] += d
    coeffs[i] -= d
    coeffs[j] -= d
    coeffs[l] -= d
    return _from_numerators(surface, tuple(coeffs))


def order(x: DivisorClass) -> DivisorClass:
    """Permute the Ei so the subtracted coefficients are non-increasing."""
    if not x.surface.is_rational:
        raise LatticeError("ordering applies to rational surfaces")
    # the numerators over the one common denominator sort as the coefficients do
    n = x._num
    return _from_numerators(x.surface, (n[0], *sorted(n[1:])), x._den)


def _in_chamber(x: DivisorClass) -> bool:
    """x0 >= x1 + x2 + x3 for an ordered x: x.(H - E1 - E2 - E3) >= 0."""
    return sum(x._num[:4]) >= 0


def is_reduced(x: DivisorClass) -> bool:
    """In the chamber and all xi >= 0, for an ordered class."""
    if x != order(x):
        raise LatticeError(f"{x} is not ordered")
    return _in_chamber(x) and all(v >= 0 for v in x.b_vector())


@dataclass(frozen=True)
class ReductionOutcome:
    kind: str  # "reduced" | "cycle" | "budget_exceeded"
    result: DivisorClass | None
    trace: tuple[DivisorClass, ...]
    steps: int


def cremona_reduce(x: DivisorClass) -> ReductionOutcome:
    """Alternately order and reflect on the top three coefficients, up to the
    first class in the chamber.

    Outside the chamber x.(H - E1 - E2 - E3) < 0, so each reflection lowers
    x0 and no class repeats before the chamber.  The walk's chamber class is
    its orbit's one chamber class (see cremona_equivalent): reduced when it
    is reduced, and a cycle otherwise, since then no class of the orbit is
    reduced and the walk continued from it descends back to it.  The trace
    runs from order(x) to that class, or holds the last five once MAX_STEPS
    are spent.  -1 classes cycle.  Square-1 sphere classes reduce for k <= 7;
    at k = 8 the 240 of the orbit of -K + 2E8 cycle, as their chamber class
    3H - E1 - ... - E7 + E8 is not reduced.
    """
    _require_cremona_surface(x)
    trace = [order(x)]
    while not _in_chamber(trace[-1]):
        trace.append(order(reflect(trace[-1], (1, 2, 3))))
        if len(trace) > MAX_STEPS:
            return ReductionOutcome("budget_exceeded", trace[-1], tuple(trace[-6:-1]), MAX_STEPS)
    if is_reduced(trace[-1]):
        return ReductionOutcome("reduced", trace[-1], tuple(trace), len(trace) - 1)
    return ReductionOutcome("cycle", None, tuple(trace), len(trace) - 1)


@dataclass(frozen=True)
class EquivalenceOutcome:
    kind: str  # "equivalent" | "distinct_by_invariant" | "unknown"
    which: str = ""  # "square" | "k_pairing" | "chamber" | "orbit_exhausted" | "budget"
    # x, order(x), ..., order(y), y, each class once: each step orders, or
    # reflects once and orders
    path: tuple[DivisorClass, ...] = ()


def moves(x: DivisorClass) -> Iterable[DivisorClass]:
    """The ordered classes one reflection away from the ordered class x;
    none below three blowups.  Triples with equal values (xi, xj, xl) give
    one class, so only the least of them reflects x, which keeps the order
    in which the classes first come; its indices each open a run of equal
    xi or follow the one before."""
    k, n = x.surface.k, x._num
    def after(p: int) -> Iterable[int]:
        return (m for m in range(p + 1, k + 1) if m == p + 1 or n[m] != n[m - 1])
    for i in after(0):
        for j in after(i):
            for l in after(j):
                yield order(reflect(x, (i, j, l)))


def cremona_equivalent(x: DivisorClass, y: DivisorClass) -> EquivalenceOutcome:
    """Decide equivalence under reflections and permutations.

    Square and K-pairing mismatches reject immediately.  From three blowups
    on the moves generate W(E_k), and each orbit meets the closed chamber at
    most once, exactly once for k <= 8, where W(E_k) is finite (Humphreys,
    Reflection Groups and Coxeter Groups, 1990, 1.12 and 5.13); so the last
    trace classes of two cremona_reduce walks that reach it decide.  A
    bidirectional search over ordered classes runs only below three blowups
    and when a walk spends MAX_STEPS (k >= 9): it answers unknown past
    BUDGET visited classes, and a fully explored orbit without a meeting is
    a distinctness certificate."""
    if x.surface != y.surface:
        raise LatticeError("classes on different surfaces")
    if not x.surface.is_rational or not x.is_integral() or not y.is_integral():
        raise LatticeError("equivalence applies to integral classes on rational surfaces")
    if pair(x, x) != pair(y, y):
        return EquivalenceOutcome("distinct_by_invariant", "square")
    kc = canonical_class(x.surface)
    if pair(kc, x) != pair(kc, y):
        return EquivalenceOutcome("distinct_by_invariant", "k_pairing")
    sx, sy = order(x), order(y)
    if sx == sy:
        return _joined(x, sx, y)
    if x.surface.k >= 3:
        tx, ty = cremona_reduce(x), cremona_reduce(y)
        if "budget_exceeded" not in (tx.kind, ty.kind):
            if tx.trace[-1] != ty.trace[-1]:
                return EquivalenceOutcome("distinct_by_invariant", "chamber")
            return _joined(x, *tx.trace, *reversed(ty.trace), y)
    reached = ({sx: (sx,)}, {sy: (sy,)})
    frontiers = [[sx], [sy]]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(reached[0]) <= len(reached[1]) else 1
        level, frontiers[side] = frontiers[side], []
        for node in level:
            for nxt in moves(node):
                if nxt in reached[side]:
                    continue
                reached[side][nxt] = (*reached[side][node], nxt)
                frontiers[side].append(nxt)
                if nxt in reached[1 - side]:
                    return _joined(x, *reached[0][nxt], *reversed(reached[1][nxt]), y)
                if len(reached[0]) + len(reached[1]) > BUDGET:
                    return EquivalenceOutcome("unknown", "budget")
    return EquivalenceOutcome("distinct_by_invariant", "orbit_exhausted")


def _joined(*path: DivisorClass) -> EquivalenceOutcome:
    """The path with every loop cut out, so that no class is on it twice."""
    out: list[DivisorClass] = []
    for c in path:
        del out[out.index(c) if c in out else len(out):]
        out.append(c)
    return EquivalenceOutcome("equivalent", path=tuple(out))
