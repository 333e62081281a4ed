"""Cremona moves on blowups of the plane: the reflection in H - Ei - Ej - El
composed with permutations of the exceptional classes.

Both generators preserve the intersection form and the canonical class, so
square and K-pairing are orbit invariants.  A class x0 H - x1 E1 - ... is
ordered when x1 >= ... >= xk and reduced when additionally
x0 >= x1 + x2 + x3 and every xi >= 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
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


def is_ordered(x: DivisorClass) -> bool:
    b = x.b_vector()
    return all(b[i] >= b[i + 1] for i in range(len(b) - 1))


def is_reduced(x: DivisorClass) -> bool:
    """x0 >= x1 + x2 + x3 and all xi >= 0, for an ordered class."""
    if not is_ordered(x):
        raise LatticeError(f"{x} is not ordered")
    b = x.b_vector()
    head = sum(b[:3])
    return x.coeffs[0] >= head and all(v >= 0 for v in b)


@dataclass(frozen=True)
class ReductionOutcome:
    kind: str  # "reduced" | "cycle" | "budget_exceeded"
    result: DivisorClass | None
    trace: tuple[DivisorClass, ...]
    steps: int


def cremona_reduce(x: DivisorClass) -> ReductionOutcome:
    """Alternately order and reflect on the top three coefficients.

    Ends in the first reduced class, in a cycle certificate (a repeated
    ordered class), or with MAX_STEPS spent.  Classes of square-1 spheres
    reduce; -1 sphere classes always cycle.
    """
    _require_cremona_surface(x)
    current = order(x)
    # the ordered classes in the order seen, each with its step, so that a
    # repeat is found in constant time
    seen: dict[DivisorClass, int] = {}
    for step in range(MAX_STEPS):
        if is_reduced(current):
            return ReductionOutcome("reduced", current, (*seen, current), step)
        if current in seen:
            cycle = list(seen)[seen[current]:]
            return ReductionOutcome("cycle", None, (*cycle, current), step)
        seen[current] = step
        current = order(reflect(current, (1, 2, 3)))
    return ReductionOutcome("budget_exceeded", current, tuple(list(seen)[-5:]), MAX_STEPS)


@dataclass(frozen=True)
class EquivalenceOutcome:
    kind: str  # "equivalent" | "distinct_by_invariant" | "unknown"
    which: str = ""
    # x, order(x), ..., order(y), y without repeats: each step orders, or
    # reflects once and orders
    path: tuple[DivisorClass, ...] = ()


def moves(x: DivisorClass) -> Iterable[DivisorClass]:
    """The ordered classes one reflection away from the ordered class x;
    none below three blowups."""
    k = x.surface.k
    for triple in combinations(range(1, k + 1), 3):
        yield order(reflect(x, triple))


def cremona_equivalent(x: DivisorClass, y: DivisorClass) -> EquivalenceOutcome:
    """Decide equivalence under reflections and permutations.

    Square and K-pairing mismatches reject immediately; otherwise a
    bidirectional search over ordered classes answers unknown once it has
    visited more than BUDGET of them.  A fully explored orbit without a
    meeting is a distinctness certificate."""
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
        return EquivalenceOutcome("equivalent", path=_without_repeats(x, sx, y))

    parents: dict[int, dict[DivisorClass, DivisorClass | None]] = {
        0: {sx: None},
        1: {sy: None},
    }
    frontiers = {0: deque([sx]), 1: deque([sy])}
    visited = 2

    def path_through(meet: DivisorClass) -> tuple[DivisorClass, ...]:
        left: list[DivisorClass] = []
        node: DivisorClass | None = meet
        while node is not None:
            left.append(node)
            node = parents[0][node]
        left.reverse()
        node = parents[1][meet]
        while node is not None:
            left.append(node)
            node = parents[1][node]
        return tuple(left)

    while frontiers[0] and frontiers[1]:
        side = 0 if len(parents[0]) <= len(parents[1]) else 1
        for _ in range(len(frontiers[side])):
            node = frontiers[side].popleft()
            for nxt in moves(node):
                if nxt in parents[side]:
                    continue
                parents[side][nxt] = node
                frontiers[side].append(nxt)
                visited += 1
                if nxt in parents[1 - side]:
                    path = _without_repeats(x, *path_through(nxt), y)
                    return EquivalenceOutcome("equivalent", path=path)
                if visited > BUDGET:
                    return EquivalenceOutcome("unknown", "budget")
    return EquivalenceOutcome("distinct_by_invariant", "orbit_exhausted")


def _without_repeats(*path: DivisorClass) -> tuple[DivisorClass, ...]:
    return tuple(c for i, c in enumerate(path) if i == 0 or c != path[i - 1])
