"""Enumeration of sphere classes against naive brute-force oracles."""

import dataclasses
import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from conelab import enumeration
from conelab.cremona import moves, order
from conelab.enumeration import (
    distinct_arrangements,
    exceptional_classes,
    family_instances,
    family_key,
    family_label,
    nine_squares_representations,
    sphere_classes,
    sweeps_up_to,
)
from conelab.lattice import (
    E,
    H,
    LatticeError,
    adjunction_genus,
    canonical_class,
    divisor,
    pair,
    parse_class,
    rational_surface,
)


def brute_exceptional(k, a_hi=7, b_hi=8):
    """Naive full product search for square -1, genus 0 classes: square and
    K-pairing in plain int, a class built only for a hit."""
    s = rational_surface(k)
    out = set()
    for a in range(-2, a_hi):
        for bs in itertools.product(range(-b_hi, b_hi + 1), repeat=k):
            # K.C = -3a + sum b = -1 and C.C = a^2 - sum b^2 = -1
            if sum(bs) == 3 * a - 1 and sum(b * b for b in bs) == a * a + 1:
                out.add(divisor(s, [a] + [-b for b in bs]))
    return out


class TestExceptionalClasses:
    def test_one_blowup(self):
        s = rational_surface(1)
        assert exceptional_classes(s) == {E(s, 1)}

    def test_two_blowups(self):
        s = rational_surface(2)
        assert exceptional_classes(s) == {
            E(s, 1),
            E(s, 2),
            H(s) - E(s, 1) - E(s, 2),
        }

    @pytest.mark.parametrize("k,count", [(1, 1), (2, 3), (3, 6), (4, 10)])
    def test_matches_brute_force(self, k, count):
        got = exceptional_classes(rational_surface(k))
        assert len(got) == count
        assert got == brute_exceptional(k)

    @pytest.mark.parametrize("k,count", [(5, 16), (6, 27), (7, 56), (8, 240)])
    def test_known_counts(self, k, count):
        assert len(exceptional_classes(rational_surface(k))) == count

    def test_large_k_rejected(self):
        with pytest.raises(LatticeError):
            exceptional_classes(rational_surface(9))

    def test_every_member_satisfies_the_defining_equations(self):
        s = rational_surface(6)
        for e in exceptional_classes(s):
            assert e.square() == -1 and adjunction_genus(e) == 0
            assert pair(e, H(s)) >= 0

    def test_permutation_closure(self):
        s = rational_surface(5)
        got = exceptional_classes(s)
        rng = random.Random(11)
        perm = list(range(1, 6))
        rng.shuffle(perm)
        for e in got:
            coeffs = [e.coeffs[0]] + [e.coeffs[p] for p in perm]
            assert divisor(s, coeffs) in got


class TestDistinctArrangements:
    def test_matches_the_distinct_permutations_in_order(self):
        # oracle: itertools.permutations with repeats removed, sorted; seeded
        # multisets of length 0..7 with many repeated values
        rng = random.Random(23)
        cases = [(), (5,), (2, 2, 2)] + [
            tuple(rng.randint(-2, 3) for _ in range(rng.randint(0, 7))) for _ in range(60)
        ]
        for values in cases:
            # the multiset as the E-coefficients of a class
            x = divisor(rational_surface(len(values)), (1, *values))
            got = [c.coeffs[1:] for c in distinct_arrangements(x)]
            assert got == sorted(set(itertools.permutations(values))), values


SWEEP_FIELDS = (
    "negative_square_positive_genus",
    "zero_square_positive_genus",
    "nonneg_square_nonneg_k_pairing",
    "genus_one_violations",
    "genus_one_equality",
)


def brute_sweep(k, bound):
    """The five SweepReport fields from their definitions, and the classes
    of degree <= 2 with square >= 0 and positive genus that no field needs to
    list, as (a, b) tuples over every non-increasing b in [-bound, bound]^k
    and degree 1..bound."""
    fields = {name: [] for name in SWEEP_FIELDS + ("low_degree",)}
    for a in range(1, bound + 1):
        for b in itertools.combinations_with_replacement(range(bound, -bound - 1, -1), k):
            sq = a * a - sum(x * x for x in b)
            kc = sum(b) - 3 * a
            g = (sq + kc) // 2 + 1
            for name, hit in zip(fields, (
                sq < 0 and g >= 1,
                sq == 0 and g >= 1,
                sq >= 0 and kc >= 0,
                g == 1 and sq < 9 - k,
                g == 1 and sq == 9 - k,
                a <= 2 and sq >= 0 and g >= 1,
            )):
                if hit:
                    fields[name].append((a, b))
    return fields


class TestNegativeSphereClasses:
    def test_k7_square_minus_one_degree_three(self):
        s = rational_surface(7)
        fams = [f for f in sphere_classes(s, square=-1) if f.coeffs[0] == 3]
        got = family_instances(fams)
        want = set()
        for m in range(1, 8):
            rest = [i for i in range(1, 8) if i != m]
            for singles in itertools.combinations(rest, 6):
                coeffs = [3] + [0] * 7
                coeffs[m] = -2
                for i in singles:
                    coeffs[i] = -1
                want.add(divisor(s, coeffs))
        assert got == want
        assert len(got) == 7

    def test_k2_nonpositive_degree_families(self):
        s = rational_surface(2)
        fams = [f for f in sphere_classes(s, n_bound=2) if f.coeffs[0] <= 0]
        got = family_instances(fams)
        want = set()
        for b in (1, 2, 3):  # (1-b)H + bE1 and (1-b)H + bE1 - E2, plus swaps
            for i, j in ((1, 2), (2, 1)):
                base = [1 - b, 0, 0]
                base[i] = b
                want.add(divisor(s, base))
                with_c = list(base)
                with_c[j] = -1
                want.add(divisor(s, with_c))
        assert got == want

    def test_k8_degree_six(self):
        s = rational_surface(8)
        fams = [f for f in sphere_classes(s, square=-1) if f.coeffs[0] == 6]
        got = family_instances(fams)
        want = set()
        for m in range(1, 9):
            coeffs = [6] + [-2] * 8
            coeffs[m] = -3
            want.add(divisor(s, coeffs))
        assert got == want

    def test_all_outputs_satisfy_the_filters(self):
        s = rational_surface(6)
        for rep in sphere_classes(s, n_bound=3):
            assert rep.square() < 0
            assert adjunction_genus(rep) == 0
            for inst in distinct_arrangements(rep):
                assert inst.square() == rep.square()
                assert adjunction_genus(inst) == 0

    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_square_slice_is_the_filtered_search(self, k):
        s = rational_surface(k)
        everything = sphere_classes(s, n_bound=2)
        for q in (-1, -2, -3, -5):
            want = [f for f in everything if f.square() == q]
            assert sphere_classes(s, n_bound=2, square=q) == want
        zero = sphere_classes(s, square=0)
        assert zero and all(f.square() == 0 for f in zero)
        one = sphere_classes(s, square=1)
        assert one and all(f.square() == 1 and adjunction_genus(f) == 0 for f in one)


def brute_sphere_keys(k, square, a_hi=15):
    """Family keys of the genus-0 classes of the given square with degree
    1..a_hi and non-increasing subtracted coefficients in [0, a + 1], or in
    [-a - 1, a + 1] for square >= 0, wider than the search's windows."""
    keys = set()
    for a in range(1, a_hi + 1):
        lo = -a - 1 if square >= 0 else 0
        for b in itertools.combinations_with_replacement(range(a + 1, lo - 1, -1), k):
            sq = a * a - sum(x * x for x in b)
            # genus 0: C.C + K.C = -2 with K.C = -3a + sum b
            if sq == square and sq - 3 * a + sum(b) == -2:
                keys.add((a, tuple(-x for x in reversed(b))))
    return keys


class TestSphereClassSlices:
    @pytest.mark.parametrize("square", [1, 0, -1, -2, -3, -4])
    def test_positive_degree_slice_matches_brute_force(self, square):
        # degrees up to 15 also test the Cauchy-Schwarz degree range
        got = {family_key(f) for f in sphere_classes(rational_surface(4), square=square)
               if f.coeffs[0] >= 1}
        assert got == brute_sphere_keys(4, square)

    @pytest.mark.parametrize("k", range(9))
    def test_no_two_representatives_share_a_family(self, k):
        # the search keeps every class it admits, so its windows and the
        # anchored families must never meet one family twice
        s = rational_surface(k)
        for square in (None, 1, 0, -1, -2, -3, -4, -5, -6):
            for n_bound in (0, 2, 3):
                for margin in (0, 2):
                    keys = [family_key(x) for x in sphere_classes(s, n_bound, square, margin)]
                    assert keys == sorted(set(keys))

    def test_a_class_without_exceptional_part_is_labelled_so(self):
        # on two blowups the one sphere class of square one is the line
        assert [family_label(x) for x in sphere_classes(rational_surface(2), square=1)] == [
            "H (no exceptional part)"
        ]


class TestEightBlowupThetaCounts:
    """At k = 8, K^2 = 1 and the orthogonal complement of K is the E8
    lattice.  A genus-0 class C = tK + w of square s has t = K.C = -2 - s
    and w^2 = -(s^2 + 3s + 4), so such classes number
    240 sigma3((s^2 + 3s + 4)/2),
    the E8 theta series being the Eisenstein series E4 (Conway and Sloane,
    Sphere Packings, Lattices and Groups, ch. 4, 8.3).  The count does not
    depend on any search window."""

    @pytest.mark.parametrize("square,count", [(-1, 240), (0, 2160), (1, 17520)])
    def test_genus_zero_classes_match_the_theta_series(self, square, count):
        n = (square * square + 3 * square + 4) // 2
        assert count == 240 * sum(d**3 for d in range(1, n + 1) if n % d == 0)
        s = rational_surface(8)
        assert len(family_instances(sphere_classes(s, square=square))) == count

    def test_square_one_classes_with_a_negative_coefficient(self):
        # the classes 3H + Ei - (the other seven E's): some bi is -1, below a
        # window that starts at 0
        s = rational_surface(8)
        got = {c for c in family_instances(sphere_classes(s, square=1)) if max(c.coeffs[1:]) > 0}
        want = {divisor(s, [3] + [1 if j == i else -1 for j in range(8)]) for i in range(8)}
        assert got == want


class TestWeylOrbits:
    """The genus-0 classes of square -1, 0 and 1 on k = 3..8 blowups are the
    orbits of E1, H - E1 and H under W(E_k), and at k = 8, square 1, also of
    3H - E1 - ... - E7 + E8 (Humphreys, Reflection Groups and Coxeter Groups,
    1990, 1.12 and 5.13): an oracle that reads no search window."""

    @staticmethod
    def orbit(seeds):
        # the ordered classes, closed under the reflections, then every
        # arrangement of their E-coefficients
        ordered = {order(x) for x in seeds}
        todo = list(ordered)
        while todo:
            for x in moves(todo.pop()):
                if x not in ordered:
                    ordered.add(x)
                    todo.append(x)
        return {y for x in ordered for y in distinct_arrangements(x)}

    @pytest.mark.parametrize("k", range(3, 9))
    @pytest.mark.parametrize("square,seeds", [(-1, ["E1"]), (0, ["H-E1"]), (1, ["H"])])
    def test_sphere_classes_are_the_orbits(self, k, square, seeds):
        s = rational_surface(k)
        if k == 8 and square == 1:
            seeds = seeds + ["3H-E1-E2-E3-E4-E5-E6-E7+E8"]
        got = self.orbit([parse_class(t, s) for t in seeds])
        assert got == family_instances(sphere_classes(s, square=square, n_bound=0))


class TestBrokenSearch:
    def test_a_class_off_its_equations_raises(self, monkeypatch):
        # the searches check what they found by raising, so the checks also
        # hold under python -O
        monkeypatch.setattr(enumeration, "adjunction_genus", lambda c: 1)
        with pytest.raises(LatticeError, match="not a sphere class of square -1"):
            sphere_classes(rational_surface(2))
        with pytest.raises(LatticeError, match="not a sphere class of square -1"):
            exceptional_classes(rational_surface(2))
        with pytest.raises(LatticeError, match="not a sphere class of square 0"):
            sphere_classes(rational_surface(2), square=0)


class TestZeroSquareClasses:
    def test_fifteen_families_at_eight(self):
        assert len(sphere_classes(rational_surface(8), square=0)) == 15

    def test_contains_the_full_packing_class(self):
        s = rational_surface(8)
        got = family_instances(sphere_classes(s, square=0))
        assert parse_class("10H-4E1-4E2-4E3-4E4-3E5-3E6-3E7-3E8", s) in got

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_fiber_class_always_present(self, k):
        s = rational_surface(k)
        got = family_instances(sphere_classes(s, square=0))
        assert parse_class("H-E1", s) in got

    def test_brute_force_small_k(self):
        # independent loops: genus 0, square 0, up to three blowups
        k = 3
        s = rational_surface(k)
        kc = canonical_class(s)
        want = set()
        for a in range(1, 13):
            for bs in itertools.product(range(0, 13), repeat=k):
                c = divisor(s, [a] + [-b for b in bs])
                if c.square() == 0 and pair(kc, c) == -2:
                    want.add(c)
        assert family_instances(sphere_classes(s, square=0)) == want


class TestNineSquares:
    def test_eighteen_has_exactly_three(self):
        got = nine_squares_representations(18)
        assert got == [
            (3, 0, 0, 0, 0, 0, 0, 0, -3),
            (2, 2, 2, -1, -1, -1, -1, -1, -1),
            (1, 1, 1, 1, 1, 1, -2, -2, -2),
        ]

    def test_zero(self):
        assert nine_squares_representations(0) == [(0,) * 9]

    @pytest.mark.parametrize("total,count", [(18, 3), (36, 5), (54, 7), (72, 14)])
    def test_counts_against_multiset_oracle(self, total, count):
        # independent oracle: combinations with repetition over the value range
        bound = int(total**0.5)
        want = set()
        for combo in itertools.combinations_with_replacement(range(-bound, bound + 1), 9):
            if sum(x * x for x in combo) != total or sum(combo) != 0:
                continue
            if len({x % 3 for x in combo}) != 1:
                continue
            want.add(tuple(sorted(combo, reverse=True)))
        got = set(nine_squares_representations(total))
        assert got == want
        assert len(got) == count

    def test_seventy_two_has_two_beyond_the_display(self):
        got = set(nine_squares_representations(72))
        assert (5, 5, -1, -1, -1, -1, -1, -1, -4) in got
        assert (4, 1, 1, 1, 1, 1, 1, -5, -5) in got

    def test_without_zero_sum(self):
        got = set(nine_squares_representations(18, residue_sum_zero=False))
        assert (3, 3, 0, 0, 0, 0, 0, 0, 0) in got
        assert len(got) == 5


def _sum_square_solutions(
    count: int,
    total_sum: int | None,
    total_square: int,
    lo: int,
    hi: int,
) -> list[tuple[int, ...]]:
    """Non-increasing integer tuples with the given sum of squares, and the
    given sum when total_sum is not None."""
    out: list[tuple[int, ...]] = []

    def feasible(m: int, s, sq: int, v: int) -> bool:
        if sq < 0:
            return False
        if m == 0:
            return sq == 0 and (s is None or s == 0)
        if s is not None:
            # (x1+...+xm)^2 <= m (x1^2+...+xm^2)
            if s * s > m * sq:
                return False
            if s > m * v or s < m * lo:
                return False
        return True

    def rec(m: int, prev: int, s, sq: int, acc: list[int]):
        if m == 0:
            if sq == 0 and (s is None or s == 0):
                out.append(tuple(acc))
            return
        top = min(prev, hi, isqrt(sq) if sq >= 0 else lo - 1)
        for v in range(top, lo - 1, -1):
            ns = None if s is None else s - v
            nsq = sq - v * v
            if not feasible(m - 1, ns, nsq, v):
                continue
            acc.append(v)
            rec(m - 1, v, ns, nsq, acc)
            acc.pop()

    rec(count, hi, total_sum, total_square, [])
    return out


def search_then_filter(total: int, residue_sum_zero: bool = True) -> list[tuple[int, ...]]:
    """The nine-squares search before the residue class became part of it:
    every nine-tuple with |x| <= sqrt(total), and the sum free unless fixed
    at zero, then the tuples with mixed residues thrown away.  Kept word for
    word, with the free-sum search above, as a reference."""
    if total < 0:
        raise ValueError("total must be non-negative")
    bound = isqrt(total)
    target_sum = 0 if residue_sum_zero else None
    sols = _sum_square_solutions(9, target_sum, total, -bound, bound)
    out = []
    for s in sols:
        r = s[0] % 3
        if all(x % 3 == r for x in s):
            out.append(s)
    return sorted(out, reverse=True)


class TestNineSquaresResidueSearch:
    @pytest.mark.parametrize("residue_sum_zero,top", [(True, 100), (False, 45)])
    def test_matches_search_then_filter(self, residue_sum_zero, top):
        for total in range(top + 1):
            want = search_then_filter(total, residue_sum_zero)
            assert nine_squares_representations(total, residue_sum_zero) == want, total

    def test_large_totals(self):
        # 2000 is not divisible by 9, so no zero-sum representation exists
        assert nine_squares_representations(2000) == []
        assert len(nine_squares_representations(396)) == 150


class TestSweeps:
    @pytest.mark.parametrize("k", [0, 2, 5, 8])
    def test_no_positive_genus_nonpositive_square_below_nine(self, k, monkeypatch):
        monkeypatch.setattr(enumeration, "SWEEP_BOUND", 6)
        sweep = sweeps_up_to()[k]
        assert sweep.ok
        assert not sweep.negative_square_positive_genus
        assert not sweep.zero_square_positive_genus
        assert not sweep.nonneg_square_nonneg_k_pairing

    def test_nine_blowups_only_anti_canonical_multiples(self, monkeypatch):
        s = rational_surface(9)
        monkeypatch.setattr(enumeration, "SWEEP_BOUND", 7)
        sweep = sweeps_up_to()[9]
        assert sweep.ok
        assert not sweep.negative_square_positive_genus
        anti = -1 * canonical_class(s)
        assert divisor(s, [3] + [-1] * 9) in sweep.zero_square_positive_genus
        for c in sweep.zero_square_positive_genus:
            m = Fraction(c.coeffs[0], 3)
            assert c == m * anti

    def test_nine_blowups_at_bound_eight_find_minus_k_and_its_double(self):
        # -3K has degree 9, past the bound; -2K has every entry 2, the subtree
        # a prune that is one too eager drops
        s = rational_surface(9)
        anti = -1 * canonical_class(s)
        sweep = sweeps_up_to()[9]
        assert sweep.zero_square_positive_genus == (anti, 2 * anti)
        assert sweep.nonneg_square_nonneg_k_pairing == (anti, 2 * anti)

    def test_the_genus_bounds_stop_below_nine_blowups(self):
        with pytest.raises(LatticeError, match="^the genus bounds need k < 9$"):
            sweeps_up_to()[9].genus_bound_ok

    def test_genus_bound_audit_six(self):
        s = rational_surface(6)
        sweep = sweeps_up_to()[6]
        assert sweep.genus_bound_ok
        assert sweep.genus_one_equality == (parse_class("3H-E1-E2-E3-E4-E5-E6", s),)
        assert sweep.genus_one_equality[0].square() == 3  # 9 - k

    def test_genus_one_minimum_square_at_eight(self):
        sweep = sweeps_up_to()[8]
        assert sweep.genus_bound_ok
        assert sweep.genus_one_equality[0].square() == 1

    def test_no_nonnegative_k_pairing_class_small_k(self, monkeypatch):
        monkeypatch.setattr(enumeration, "SWEEP_BOUND", 6)
        sweep = sweeps_up_to()[3]
        assert sweep.nonneg_square_nonneg_k_pairing == ()

    @pytest.mark.parametrize("k,bound", [(4, 8)] + [
        (k, bound) for bound in range(1, 7) for k in range(10 if bound <= 4 else 6)
    ])
    def test_every_field_matches_brute_force(self, k, bound, monkeypatch):
        # most subtrees are skipped at k = 6..9, brute-forced up to bound 4
        monkeypatch.setattr(enumeration, "SWEEP_BOUND", bound)
        sweep = sweeps_up_to()[k]
        assert sweep.surface == rational_surface(k)
        want = brute_sweep(k, bound)
        for name in SWEEP_FIELDS:
            got = [(c.coeffs[0], c.b_vector()) for c in getattr(sweep, name)]
            assert sorted(got) == sorted(want[name]), name
        # degree <= 2 forces genus <= 0, which is why no field lists them
        assert want["low_degree"] == []
        if k == 9:
            assert want["nonneg_square_nonneg_k_pairing"] == ([(3, (1,) * 9)] if bound >= 3 else [])

    @pytest.mark.parametrize("k,bound", [(4, 8), (7, 4), (9, 4)])
    def test_every_reported_tuple_pairs_at_least_k_minus_nine(self, k, bound):
        # the lemma the sweep prunes by: sq + K.C = 2g - 2 >= 0, and K.C = -sq
        # >= k - 9 on the genus-one fields
        want = brute_sweep(k, bound)
        reported = [t for name in SWEEP_FIELDS for t in want[name]]
        assert reported
        for a, b in reported:
            assert sum(b) - 3 * a >= k - 9, (a, b)

    @pytest.mark.parametrize("k,field,literal", [
        (3, "negative_square_positive_genus", "3H-E1-E2-E3"),
        (8, "zero_square_positive_genus", "3H-E1-E2-E3-E4-E5-E6-E7-E8"),
        (9, "nonneg_square_nonneg_k_pairing", "H-E1"),
    ])
    def test_a_class_outside_the_verdict_fails_it(self, k, field, literal):
        # the classes need not belong in the field: ok reads only which field holds them
        sweep = sweeps_up_to()[k]
        assert sweep.ok
        extra = parse_class(literal, sweep.surface)
        bad = dataclasses.replace(sweep, **{field: getattr(sweep, field) + (extra,)})
        assert bad.ok is False

    def test_a_genus_one_violation_fails_the_genus_bound(self):
        sweep = sweeps_up_to()[6]
        assert sweep.genus_bound_ok
        bad = dataclasses.replace(sweep, genus_one_violations=sweep.genus_one_equality)
        assert bad.genus_bound_ok is False

    def test_one_pass_serves_every_k(self):
        # one report per k = 0..9; the k = 0 tuple of degree 3 is 3H
        reports = sweeps_up_to()
        assert [r.surface for r in reports] == [rational_surface(k) for k in range(10)]
        assert reports[0].genus_one_equality == (3 * H(rational_surface(0)),)
        assert all(r.genus_bound_ok for r in reports[:9])

    def test_genus_one_brute_force_small_k(self):
        # independent loops: every genus-1 class with positive degree on
        # three blowups has square at least 6, only 3H-E1-E2-E3 attains it
        s = rational_surface(3)
        kc = canonical_class(s)
        smallest, attained = None, []
        for a in range(1, 7):
            for bs in itertools.product(range(-6, 7), repeat=3):
                c = divisor(s, [a] + [-b for b in bs])
                if adjunction_genus(c) == 1:
                    if smallest is None or c.square() < smallest:
                        smallest = c.square()
                    if c.square() == 6:
                        attained.append(c)
        assert smallest == 6
        assert attained == [parse_class("3H-E1-E2-E3", s)]
