"""Bounded exhaustive enumeration of sphere classes on blowups of the plane.

Everything here runs over the subtracted coefficients (b1, ..., bk) of a
class aH - sum bi Ei.  A class of genus g and square -s satisfies

    sum bi   = 3a + s + 2g - 2,      sum bi^2 = a^2 + s,

so enumeration reduces to constrained sum/sum-of-squares searches with
Cauchy-Schwarz pruning.  One search, sphere_classes, serves every square: the
-1 classes and the square-zero classes are its square -1 and square 0 slices.
It returns each family, a permutation orbit of the Ei, as its representative
class: family_instances expands it, family_key sorts it and family_label
names it.  The sweeps for every k <= 9 share one branch-and-bound search
over the positive-genus tuples: a node of depth m is a tuple of the m-blowup
sweep, sum bi and sum bi^2 come down with it, so square, K.C and genus are
ints; a subtree that can report nothing is skipped, and a DivisorClass is
built only for a reported class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence

from .lattice import (
    DivisorClass,
    LatticeError,
    SurfaceModel,
    _from_numerators,
    adjunction_genus,
    canonical_class,
    divisor,
    rational_surface,
    sorted_classes,
)

SWEEP_BOUND = 8


def _sum_square_solutions(
    count: int,
    total_sum: int,
    total_square: int,
    lo: int,
    hi: int,
) -> list[tuple[int, ...]]:
    """Non-increasing integer tuples with entries in [lo, hi] and the given
    sum and sum of squares."""
    out: list[tuple[int, ...]] = []

    def feasible(m: int, s: int, sq: int, v: int) -> bool:
        # (x1+...+xm)^2 <= m (x1^2+...+xm^2), which rules out sq < 0 when m > 0
        if s * s > m * sq:
            return False
        if s > m * v or s < m * lo:
            return False
        return True

    def rec(m: int, prev: int, s: int, sq: int, acc: list[int]):
        if m == 0:
            if sq == 0 and s == 0:
                out.append(tuple(acc))
            return
        top = min(prev, hi, isqrt(sq) if sq >= 0 else lo - 1)
        for v in range(top, lo - 1, -1):
            ns = s - v
            nsq = sq - v * v
            if not feasible(m - 1, ns, nsq, v):
                continue
            acc.append(v)
            rec(m - 1, v, ns, nsq, acc)
            acc.pop()

    rec(count, hi, total_sum, total_square, [])
    return out


def distinct_arrangements(x: DivisorClass) -> Iterable[DivisorClass]:
    """The distinct classes that permuting E1..Ek makes of x, each once, in
    lexicographic order: Knuth's Algorithm L (TAOCP 7.2.1.2), stepping from the
    sorted E-coefficients to the next permutation until none is larger."""
    surface, (h, *a) = x.surface, x._num
    a.sort()
    n = len(a)
    while True:
        yield _from_numerators(surface, (h, *a), x._den)
        # the last ascent a[j] < a[j + 1]; past it the values do not increase
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        # swap a[j] with the rightmost tail value above it; the tail stays
        # non-increasing and is reversed to its smallest order
        l = n - 1
        while a[j] >= a[l]:
            l -= 1
        a[j], a[l] = a[l], a[j]
        a[j + 1:] = a[:j:-1]


def family_key(x: DivisorClass) -> tuple:
    """The family of x as its degree and its E-coefficients in descending order."""
    c = x.coeffs
    return (c[0], tuple(sorted(c[1:], reverse=True)))


def family_label(x: DivisorClass) -> str:
    """x and a note on its family: the multiplicities of its subtracted
    coefficients, or for degree -n <= 0 the anchored family's shape."""
    b = x.b_vector()
    if x.coeffs[0] > 0:
        return f"{x} ({_note_from_b(b)})"
    n, m = -x.coeffs[0], b.count(1)
    return f"{x} ({n + 1} on one E, 1 subtracted on {m} E's)" if m else f"{x} ({n + 1} on one E)"


def _note_from_b(b: Sequence[int]) -> str:
    nonzero = [x for x in b if x != 0]
    if not nonzero:
        return "no exceptional part"
    counts = Counter(nonzero)
    bits = [f"{v} on {counts[v]} E's" for v in sorted(counts, key=lambda v: (-v))]
    return ", ".join(bits)


def _family_anchor(surface: SurfaceModel, n: int, m: int) -> DivisorClass:
    """-nH + (n+1)E_i - (m further E's), anchored at E1 for display."""
    return divisor(surface, [-n, n + 1] + [-1] * m + [0] * (surface.k - 1 - m))


def exceptional_classes(surface: SurfaceModel) -> frozenset[DivisorClass]:
    """All integral classes with square -1 and genus 0 (k <= 8): the square -1
    slice of the sphere-class search."""
    return family_instances(sphere_classes(surface, n_bound=0, square=-1))


def _max_degree(k: int, s: int) -> int:
    """The largest degree of a genus-0 class of square -s on k <= 8 blowups.

    Cauchy-Schwarz, (sum bi)^2 <= k sum bi^2, reads (3a - 2 + s)^2 <= k(a^2 + s),
    that is (9 - k)a^2 + 6(s - 2)a + (s - 2)^2 - ks <= 0; the larger root
    bounds a.  At k = 8 it gives 11 for s = 0 and 17 for s = -1.  Over s >= 1
    the bound is largest at s = 1."""
    disc = k * ((s - 2) ** 2 + (9 - k) * s)
    return (3 * (2 - s) + isqrt(disc)) // (9 - k) if disc >= 0 else 0


def sphere_classes(
    surface: SurfaceModel,
    n_bound: int = 2,
    square: int | None = None,
    margin: int = 0,
) -> list[DivisorClass]:
    """Families of the numerical genus-0 classes of the given square, or of
    every negative square when square is None (k <= 8), each as its
    representative class, sorted by family_key.

    The part with positive H-degree is a finite list, searched for degrees
    1 through _max_degree.  Its bi lie in [-margin, a + 1 + margin] for a
    negative square, as C.Ei >= 0 for distinct curves, and for square >= 0
    in |bi| <= isqrt(a^2 - square) + margin, which sum bi^2 forces.  The
    part with non-positive H-degree is the one-parameter anchored family
    -nH + (n+1)E_i - sum of further E's, of square -(2n + 1 + m),
    materialized for n <= n_bound.

    No two admitted classes share a family: within one (a, s) the search
    yields distinct non-increasing tuples, distinct (a, s) differ in degree
    or square, and the anchored classes have degree <= 0 and distinct (n, m).
    """
    if not surface.is_rational:
        raise LatticeError("enumeration applies to blowups of the plane")
    if surface.k > 8:
        raise LatticeError(f"k = {surface.k} rejected: the class set is infinite")
    k = surface.k
    reps: list[DivisorClass] = []

    def admit(c: DivisorClass, s: int):
        if adjunction_genus(c) != 0 or c.square() != -s:
            raise LatticeError(f"search found {c}, not a sphere class of square {-s}")
        reps.append(c)

    for a in range(1, _max_degree(k, 1 if square is None else -square) + 1):
        lo, hi = -margin, a + 1 + margin
        squares = range(1, k * hi * hi - a * a + 1) if square is None else (-square,)
        for s in squares:
            if (3 * a - 2 + s) ** 2 > k * (a * a + s):
                continue
            if s <= 0:
                lo, hi = -isqrt(a * a + s) - margin, isqrt(a * a + s) + margin
            for b in _sum_square_solutions(k, 3 * a - 2 + s, a * a + s, lo, hi):
                admit(divisor(surface, [a] + [-x for x in b]), s)
    for n in range(0, n_bound + 1):
        for m in range(0, k):
            s = 2 * n + 1 + m
            if square is None or s == -square:
                admit(_family_anchor(surface, n, m), s)
    return sorted(reps, key=family_key)


def family_instances(reps: Iterable[DivisorClass]) -> frozenset[DivisorClass]:
    """Every class of the families the representatives stand for."""
    return frozenset(x for rep in reps for x in distinct_arrangements(rep))


def nine_squares_representations(total: int, residue_sum_zero: bool = True) -> list[tuple[int, ...]]:
    """Multisets of 9 integers, congruent to each other mod 3, whose squares
    sum to the given total; entries sum to zero when flagged.

    Entries r + 3m, r in {-1, 0, 1}, have squares summing to 9(r^2 + sum m^2)
    + 6r sum m, so each sum m fixes sum m^2; the zero sum fixes sum m = -3r.
    The multisets come as non-increasing tuples, lexicographically sorted;
    "essentially different" representations are exactly these."""
    if total < 0:
        raise ValueError("total must be non-negative")
    bound = isqrt(total) // 3 + 1
    out = []
    for r in (-1, 0, 1):
        sums = (-3 * r,) if residue_sum_zero else range(-9 * bound, 9 * bound + 1)
        for s in sums:
            sq, rest = divmod(total - 9 * r * r - 6 * r * s, 9)
            if rest == 0:
                for ms in _sum_square_solutions(9, s, sq, -bound, bound):
                    out.append(tuple(r + 3 * m for m in ms))
    return sorted(out, reverse=True)


# ---------------------------------------------------------------------------
# audits: genus bounds and the non-existence sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Exhaustive checks over integral classes with positive H-degree.

    negative_square_positive_genus  -- classes with square < 0 and genus >= 1
                                       (must be empty for k <= 9);
    zero_square_positive_genus      -- square = 0 and genus >= 1 (empty for
                                       k <= 8; multiples of -K for k = 9);
    nonneg_square_nonneg_k_pairing  -- square >= 0 and K.C >= 0 (empty for
                                       k < 9; multiples of -K for k = 9);
    genus_one_violations            -- genus 1 and square < 9 - k;
    genus_one_equality              -- genus 1 and square = 9 - k.

    The genus-one fields and nonneg_square_nonneg_k_pairing feed the genus
    bounds for k < 9 (genus_bound_ok).  No field lists classes of degree
    a <= 2 and positive genus: there are none, as
    g = (a-1)(a-2)/2 - sum bi(bi-1)/2 <= 0 for a <= 2.
    """

    surface: SurfaceModel
    negative_square_positive_genus: tuple[DivisorClass, ...]
    zero_square_positive_genus: tuple[DivisorClass, ...]
    nonneg_square_nonneg_k_pairing: tuple[DivisorClass, ...]
    genus_one_violations: tuple[DivisorClass, ...]
    genus_one_equality: tuple[DivisorClass, ...]

    @property
    def ok(self) -> bool:
        if self.negative_square_positive_genus:
            return False
        anti = -1 * canonical_class(self.surface)
        for c in self.zero_square_positive_genus + self.nonneg_square_nonneg_k_pairing:
            if self.surface.k < 9 or 3 * c != c.coeffs[0] * anti:
                return False
        return True

    @property
    def genus_bound_ok(self) -> bool:
        """For k < 9: genus-1 classes have square >= 9 - k, with equality
        exactly for 3H - E1 - ... - Ek; and no class has square >= 0 and
        K.C >= 0."""
        if self.surface.k >= 9:
            raise LatticeError("the genus bounds need k < 9")
        return (
            not self.genus_one_violations
            and not self.nonneg_square_nonneg_k_pairing
            and self.genus_one_equality
            == (divisor(self.surface, [3] + [-1] * self.surface.k),)
        )


def sweeps_up_to() -> tuple[SweepReport, ...]:
    """Certify the "all negative curves are spheres" arithmetic on m blowups
    of the plane, for every m = 0..9: one report per m.

    H-degrees from 1 to SWEEP_BOUND, subtracted coefficients up to
    SWEEP_BOUND in absolute value.  Classes with non-positive H-degree are
    settled by the closed-form classification and are out of scope here.
    """
    k = 9
    found = [([], [], [], [], []) for _ in range(k + 1)]
    b = [0] * k

    def rec(m: int, prev: int, left: int, s1: int, s2: int) -> None:
        """Classify the tuple b[:m] of the m-blowup sweep, then fill b[m:]
        non-increasingly with sum bi(bi-1) <= a(a-3), i.e. genus >= 1; s1
        and s2 are sum bi and sum bi^2 over b[:m], and left is what b[:m]
        leaves of the budget a(a-3).  The range of b[m] does not depend on
        k, so the tuples of depth m are exactly those of the m-blowup sweep."""
        # a reported tuple has kc >= m - 9 (sq + kc = left >= 0, and kc = -sq at
        # genus 1), that is s1 - m >= 3a - 9; an entry v <= prev adds v - 1 to
        # s1 - m, so no tuple here or below is reported if k - m of them fall short
        if s1 + (k - m) * max(0, prev - 1) < 3 * a + m - 9:
            return
        sq = a * a - s2
        kc = s1 - 3 * a
        # sq + kc = 2g - 2 >= 0; a tuple of positive square, negative K.C and
        # genus above 1, the most common kind, belongs in no field
        if sq <= 0 or kc >= 0 or sq + kc == 0:
            neg, zero, dim0, g1_bad, g1_eq = found[m]
            t = (a, b[:m])
            if sq < 0:
                neg.append(t)
            elif sq == 0:
                zero.append(t)
            if sq >= 0 and kc >= 0:
                dim0.append(t)
            if sq + kc == 0 and sq <= 9 - m:
                (g1_bad if sq < 9 - m else g1_eq).append(t)
        if m == k:
            return
        # b[m]: at most prev and SWEEP_BOUND in size, and v(v - 1) <= left iff 1 - top <= v <= top
        top = (1 + isqrt(4 * left + 1)) // 2
        for v in range(min(prev, SWEEP_BOUND, top), max(-SWEEP_BOUND, 1 - top) - 1, -1):
            b[m] = v
            rec(m + 1, v, left - v * (v - 1), s1 + v, s2 + v * v)

    for a in range(3, SWEEP_BOUND + 1):
        # every class with square >= 0 and K.C >= 0 has 2g - 2 = C.C + K.C >= 0,
        # so this one search also covers nonneg_square_nonneg_k_pairing; degrees
        # 1 and 2 have a negative budget a(a - 3) and no tuple
        rec(0, SWEEP_BOUND, a * (a - 3), 0, 0)
    reports = []
    for m, fields in enumerate(found):
        surface = rational_surface(m)
        classes = (sorted_classes(divisor(surface, [a] + [-x for x in bs]) for a, bs in f) for f in fields)
        reports.append(SweepReport(surface, *map(tuple, classes)))
    return tuple(reports)
