"""Reflections, ordering, reduction, and orbit equivalence."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conelab import cremona
from conelab.cremona import (
    EquivalenceOutcome,
    ReductionOutcome,
    cremona_equivalent,
    cremona_reduce,
    is_reduced,
    moves,
    order,
    reflect,
)
from conelab.enumeration import exceptional_classes, family_instances, sphere_classes
from conelab.lattice import (
    E,
    H,
    LatticeError,
    canonical_class,
    divisor,
    pair,
    parse_class,
    rational_surface,
    trivial_ruled,
)

S3 = rational_surface(3)


def integral_classes(k_min=3, k_max=8):
    @st.composite
    def build(draw):
        k = draw(st.integers(k_min, k_max))
        s = rational_surface(k)
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=k + 1, max_size=k + 1))
        return divisor(s, coeffs)

    return build()


class TestReflect:
    def test_conic_to_line(self):
        # x.alpha = 2 - 3 = -1, so the image subtracts alpha once
        assert reflect(parse_class("2H-E1-E2-E3", S3), (1, 2, 3)) == H(S3)

    def test_line_to_conic(self):
        assert reflect(H(S3), (1, 2, 3)) == parse_class("2H-E1-E2-E3", S3)

    def test_orthogonal_class_fixed(self):
        s4 = rational_surface(4)
        assert reflect(E(s4, 4), (1, 2, 3)) == E(s4, 4)

    def test_bad_triples_rejected(self):
        with pytest.raises(LatticeError):
            reflect(H(S3), (1, 1, 2))
        with pytest.raises(LatticeError):
            reflect(H(S3), (1, 2, 4))
        with pytest.raises(LatticeError):
            reflect(H(rational_surface(2)), (1, 2, 3))
        for triple in ((0, 1, 2), (1, 2, 2)):
            with pytest.raises(LatticeError):
                reflect(H(S3), triple)

    def test_fractional_and_ruled_classes_rejected(self):
        with pytest.raises(LatticeError):
            reflect(divisor(S3, [Fraction(1, 2), 0, 0, 0]), (1, 2, 3))
        with pytest.raises(LatticeError):
            reflect(divisor(trivial_ruled(1, 3), [1, 0, 0, 0, 0]), (1, 2, 3))

    def test_matches_the_reflection_through_the_pairing(self):
        # independent oracle: x + (x.alpha) alpha with alpha = H - Ei - Ej - El
        rng = random.Random(17)
        for _ in range(1000):
            k = rng.randint(3, 8)
            s = rational_surface(k)
            x = divisor(s, [rng.randint(-9, 9) for _ in range(k + 1)])
            triple = tuple(rng.sample(range(1, k + 1), 3))
            alpha = H(s) - E(s, triple[0]) - E(s, triple[1]) - E(s, triple[2])
            assert reflect(x, triple) == x + pair(x, alpha) * alpha

    @settings(deadline=None, max_examples=250)
    @given(integral_classes(), st.data())
    def test_preserves_form_and_canonical_and_is_involutive(self, x, data):
        k = x.surface.k
        triple = tuple(data.draw(st.permutations(range(1, k + 1)))[:3])
        y = reflect(x, triple)
        kc = canonical_class(x.surface)
        assert y.is_integral()
        assert y.square() == x.square()
        assert pair(kc, y) == pair(kc, x)
        assert reflect(y, triple) == x

    @settings(deadline=None, max_examples=100)
    @given(integral_classes(), st.data())
    def test_relabeling_equivariance(self, x, data):
        k = x.surface.k
        perm = data.draw(st.permutations(range(1, k + 1)))
        triple = tuple(sorted(perm[:3]))
        sigma_x = divisor(x.surface, [x.coeffs[0]] + [x.coeffs[p] for p in perm])
        image_triple = tuple(sorted(perm.index(t) + 1 for t in triple))
        assert order(reflect(sigma_x, image_triple)) == order(reflect(x, triple))


class TestOrder:
    def test_examples(self):
        assert order(parse_class("H-E3", S3)) == parse_class("H-E1", S3)
        s2 = rational_surface(2)
        assert order(parse_class("3H-E1-2E2", s2)) == parse_class("3H-2E1-E2", s2)

    @settings(deadline=None, max_examples=100)
    @given(integral_classes())
    def test_idempotent(self, x):
        assert order(order(x)) == order(x)


class TestIsReduced:
    def test_line_is_reduced(self):
        assert is_reduced(H(S3))

    def test_conic_through_three_points_is_not(self):
        assert not is_reduced(parse_class("2H-E1-E2-E3", S3))  # 2 < 3

    def test_exceptional_class_is_not(self):
        assert not is_reduced(order(E(S3, 1)))

    def test_unordered_input_rejected(self):
        with pytest.raises(LatticeError):
            is_reduced(parse_class("3H-E1-2E2", S3))

    def test_positive_degree_sections_are_reduced(self):
        for n in range(1, 5):
            cls = parse_class(f"{n+1}H-{n}E1", S3)
            assert is_reduced(cls)
            assert is_reduced(cls - E(S3, 2))


class TestReduce:
    def test_conic_reduces_to_line(self):
        out = cremona_reduce(parse_class("2H-E1-E2-E3", S3))
        assert out.kind == "reduced" and out.result == H(S3) and out.steps <= 2

    def test_exceptional_basis_class_cycles(self):
        # order(E1) = E3 is already the chamber class of its orbit, and is
        # not reduced; the walk continued from it comes back through H-E1-E2
        out = cremona_reduce(E(S3, 1))
        assert (out.kind, out.result, out.trace, out.steps) == ("cycle", None, (E(S3, 3),), 0)
        back = order(reflect(E(S3, 3), (1, 2, 3)))
        assert back == parse_class("H-E1-E2", S3)
        assert order(reflect(back, (1, 2, 3))) == E(S3, 3)

    def test_exceptional_line_class_cycles(self):
        out = cremona_reduce(parse_class("H-E1-E2", S3))
        assert out.kind == "cycle"

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_no_reduced_form_for_any_minus_one_class(self, k):
        s = rational_surface(k)
        for e in exceptional_classes(s):
            assert cremona_reduce(e).kind == "cycle"

    def test_square_one_orbit_reduces_to_line(self):
        rng = random.Random(3)
        for _ in range(50):
            k = rng.randint(3, 7)
            s = rational_surface(k)
            x = H(s)
            for _ in range(rng.randint(1, 8)):
                x = reflect(x, tuple(rng.sample(range(1, k + 1), 3)))
            out = cremona_reduce(x)
            assert out.kind == "reduced" and out.result == H(s)

    def test_square_one_sphere_classes_reduce_below_eight_blowups(self):
        # all 576 at k = 7 reduce to H; at k = 8 the 240 of the orbit of
        # -K + 2E8 cycle, each walk ending at its unreduced chamber class
        s7, s8 = rational_surface(7), rational_surface(8)
        outcomes = [cremona_reduce(x) for x in family_instances(sphere_classes(s7, square=1))]
        assert len(outcomes) == 576
        assert {(out.kind, out.result) for out in outcomes} == {("reduced", H(s7))}
        spheres = family_instances(sphere_classes(s8, square=1))
        cycling = {x for x in spheres if cremona_reduce(x).kind == "cycle"}
        assert (len(spheres), len(cycling)) == (17_520, 240)
        chamber = parse_class("3H-E1-E2-E3-E4-E5-E6-E7+E8", s8)
        assert not is_reduced(chamber)
        assert -canonical_class(s8) + 2 * E(s8, 8) in cycling
        assert {cremona_reduce(x).trace[-1] for x in cycling} == {chamber}

    def test_section_orbits_reduce_to_their_normal_forms(self):
        rng = random.Random(9)
        for n in (1, 2, 3):
            for tail in ("", "-E2"):
                s = rational_surface(4)
                normal = parse_class(f"{n+1}H-{n}E1{tail}", s)
                x = normal
                for _ in range(6):
                    x = reflect(x, tuple(rng.sample(range(1, 5), 3)))
                out = cremona_reduce(x)
                assert out.kind == "reduced" and out.result == order(normal)

    def test_budget_exceeded_trace(self):
        # E1 - E2 on nine blowups has an infinite orbit, so the MAX_STEPS
        # budget of 1,000 steps runs out; the trace holds the last five ordered classes
        s = rational_surface(9)
        out = cremona_reduce(parse_class("E1-E2", s))
        assert (out.kind, out.steps) == ("budget_exceeded", 1000)
        assert [str(c) for c in out.trace] == [
            "-1492H+497E1+497E2+497E3+497E4+497E5+497E6+498E7+498E8+498E9",
            "-1493H+497E1+497E2+497E3+498E4+498E5+498E6+498E7+498E8+498E9",
            "-1495H+498E1+498E2+498E3+498E4+498E5+498E6+499E7+499E8+499E9",
            "-1496H+498E1+498E2+498E3+499E4+499E5+499E6+499E7+499E8+499E9",
            "-1498H+499E1+499E2+499E3+499E4+499E5+499E6+500E7+500E8+500E9",
        ]
        assert str(out.result) == "-1499H+499E1+499E2+499E3+500E4+500E5+500E6+500E7+500E8+500E9"

    def test_cycle_trace_starts_at_the_ordered_input(self):
        out = cremona_reduce(parse_class("H-2E1", rational_surface(9)))
        assert (out.kind, out.steps, out.result) == ("cycle", 4, None)
        assert [str(c) for c in out.trace] == [
            "H-2E1",
            "-E1+E8+E9",
            "-H+E6+E7+E8+E9",
            "-2H+E3+E4+E5+E6+E7+E8+E9",
            "-3H+E1+E2+E3+E4+E5+E6+E7+E8+2E9",
        ]

    @settings(deadline=None, max_examples=200)
    @given(st.integers(3, 8), st.data())
    def test_every_walk_ends_below_nine_blowups(self, k, data):
        # W(E_k) is finite for k <= 8: outside the chamber each reflection
        # lowers the H coefficient, so the walk reaches the chamber
        coeffs = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=k + 1, max_size=k + 1))
        out = cremona_reduce(divisor(rational_surface(k), coeffs))
        assert out.kind in ("reduced", "cycle")


class TestMoves:
    def test_none_below_three_blowups(self):
        s2 = rational_surface(2)
        assert list(moves(H(s2))) == []
        assert list(moves(H(s2) - E(s2, 1))) == []

    def test_the_one_move_of_h_on_three_blowups(self):
        assert [str(c) for c in moves(H(S3))] == ["2H-E1-E2-E3"]

    @pytest.mark.parametrize("k", range(3, 11))
    def test_the_same_classes_first_seen_in_the_same_order_as_every_triple(self, k):
        # reference: the reflection in every index triple; coefficients from
        # a short range repeat, so many triples share their values
        sk = rational_surface(k)
        rng = random.Random(k)
        for _ in range(40):
            x = order(divisor(sk, [rng.randint(-3, 3) for _ in range(k + 1)]))
            every = (order(reflect(x, t)) for t in itertools.combinations(range(1, k + 1), 3))
            assert list(dict.fromkeys(moves(x))) == list(dict.fromkeys(every))


class TestEquivalence:
    def test_reduction_path(self):
        out = cremona_equivalent(parse_class("2H-E1-E2-E3", S3), H(S3))
        assert out.kind == "equivalent"
        assert [str(c) for c in out.path] == ["2H-E1-E2-E3", "H"]

    def test_a_class_is_its_own_path(self):
        assert cremona_equivalent(H(S3), H(S3)).path == (H(S3),)

    def test_path_replays_from_a_to_b(self):
        # a certificate replayable from the list alone: it starts at x, ends
        # at y, and each step permutes the E's or reflects once and orders,
        # with no class repeated
        s4 = rational_surface(4)
        triples = list(itertools.combinations(range(1, 5), 3))

        def step_ok(a, b):
            return order(a) == order(b) or any(b == order(reflect(a, t)) for t in triples)

        minus_one = sorted(exceptional_classes(s4), key=lambda c: c.coeffs)
        for x in minus_one:
            for y in minus_one:
                out = cremona_equivalent(x, y)
                assert out.kind == "equivalent"
                assert out.path[0] == x and out.path[-1] == y
                assert all(a != b and step_ok(a, b) for a, b in zip(out.path, out.path[1:]))

    def test_square_mismatch(self):
        out = cremona_equivalent(H(S3), 2 * H(S3))
        assert out.kind == "distinct_by_invariant" and out.which == "square"

    def test_permutation(self):
        out = cremona_equivalent(E(S3, 1), E(S3, 2))
        assert out.kind == "equivalent"

    def test_k_pairing_mismatch(self):
        # both have square -2, but K pairings 0 and 2
        a = parse_class("E1-E2", S3)
        b = parse_class("-E1-E2", S3)
        out = cremona_equivalent(a, b)
        assert out.kind == "distinct_by_invariant" and out.which == "k_pairing"

    def test_distinct_chamber_classes_are_a_distinctness_certificate(self):
        # E1 - E2 and H - E1 - E2 - E3 are roots of different irreducible
        # components on three blowups; their walks reach the chamber at
        # -E1+E3 and -H+E1+E2+E3, and each orbit meets the chamber once
        a = parse_class("E1-E2", S3)
        c = parse_class("H-E1-E2-E3", S3)
        out = cremona_equivalent(a, c)
        assert out.kind == "distinct_by_invariant" and out.which == "chamber"

    def test_budget_unknown(self, monkeypatch):
        # E1 - E2 and E1 - E2 - 10K on nine blowups share square and K-pairing,
        # and the search joins them within BUDGET; with a budget of five
        # visited classes it gives up first and says so
        s9 = rational_surface(9)
        x = parse_class("E1-E2", s9)
        y = x - 10 * canonical_class(s9)
        out = cremona_equivalent(x, y)
        assert (out.kind, len(out.path)) == ("equivalent", 24)
        monkeypatch.setattr(cremona, "BUDGET", 5)
        assert cremona_equivalent(x, y) == EquivalenceOutcome("unknown", "budget")

    @pytest.mark.parametrize("k", [3, 4])
    def test_no_path_repeats_a_class(self, k):
        # each -1 class and its negative, paired with itself and with every
        # relabelling of its E's
        s = rational_surface(k)
        for e in exceptional_classes(s):
            for x in (e, -e):
                for perm in itertools.permutations(range(1, k + 1)):
                    y = divisor(s, [x.coeffs[0]] + [x.coeffs[p] for p in perm])
                    out = cremona_equivalent(x, y)
                    assert out.kind == "equivalent"
                    assert out.path[0] == x and out.path[-1] == y
                    assert len(set(out.path)) == len(out.path)
                    if x == y:
                        assert out.path == (x,)


def _seeded_classes():
    """E1 on three blowups and 120 seeded integral classes at k = 3..8 with
    coefficients in [-4, 4]."""
    rng = random.Random(11)
    out = [E(S3, 1)]
    for k in range(3, 9):
        s = rational_surface(k)
        out += [divisor(s, [rng.randint(-4, 4) for _ in range(k + 1)]) for _ in range(20)]
    return out


def test_the_walk_stops_at_its_first_chamber_class(monkeypatch):
    """A walk of n classes makes n - 1 reflections, and its last class is
    the first with c.(H - E1 - E2 - E3) >= 0."""
    reflections = []

    def counting(x, triple):
        reflections.append(x)
        return reflect(x, triple)

    monkeypatch.setattr(cremona, "reflect", counting)
    for x in _seeded_classes():
        reflections.clear()
        trace = cremona_reduce(x).trace
        in_chamber = [c.coeffs[0] >= -sum(c.coeffs[1:4]) for c in trace]
        assert in_chamber == [False] * (len(trace) - 1) + [True], x
        assert len(reflections) == len(trace) - 1, x


def _reduce_to_a_repeat(x):
    """cremona_reduce as first written: the walk goes on past the chamber to
    the first reduced or the first repeated ordered class."""
    current = order(x)
    seen = {}
    for step in range(cremona.MAX_STEPS):
        if is_reduced(current):
            return ReductionOutcome("reduced", current, (*seen, current), step)
        if current in seen:
            return ReductionOutcome("cycle", None, (*seen, current), step)
        seen[current] = None
        current = order(reflect(current, (1, 2, 3)))
    return ReductionOutcome("budget_exceeded", current, tuple(seen)[-5:], cremona.MAX_STEPS)


def test_the_walk_to_a_repeat_gives_the_same_answer(monkeypatch):
    """Oracle: wherever the walk to a repeat does not spend its budget, it
    gives cremona_reduce's kind and result, its trace extends cremona_reduce's,
    and a cycle comes back to a class of cremona_reduce's walk.  The classes
    are seeded at k = 3..10: coefficient draws, draws of positive degree,
    and Weyl images of H, H - E1 and 2H - E1; a budget of 100 steps keeps
    the infinite orbits at k = 9 and 10 cheap."""
    monkeypatch.setattr(cremona, "MAX_STEPS", 100)
    rng = random.Random(26)
    kinds = set()
    for k in range(3, 11):
        s = rational_surface(k)
        for i in range(150):
            if i % 3 == 0:
                x = divisor(s, [rng.randint(-4, 4) for _ in range(k + 1)])
            elif i % 3 == 1:
                x = divisor(s, [rng.randint(0, 12)] + [rng.randint(-4, 2) for _ in range(k)])
            else:
                x = parse_class(rng.choice(["H", "H-E1", "2H-E1"]), s)
                for _ in range(rng.randint(1, 6)):
                    x = reflect(x, tuple(rng.sample(range(1, k + 1), 3)))
            old, new = _reduce_to_a_repeat(x), cremona_reduce(x)
            if old.kind == "budget_exceeded":
                assert k >= 9, x
                continue
            assert (new.kind, new.result) == (old.kind, old.result), x
            assert old.trace[: len(new.trace)] == new.trace, x
            if new.kind == "cycle":
                assert old.trace[-1] in new.trace, x
            kinds.add((k, new.kind))
    assert kinds == {(k, kind) for k in range(3, 11) for kind in ("reduced", "cycle")}


def _same_invariant_pairs():
    """Seeded pairs (x, y) with equal square and K-pairing: ten each at
    k = 4..7, with y a random Weyl image of x or a random
    class drawn until its invariants match; and two at k = 8, where x is
    twice a root, whose orbit is small, and y twice another root or a sum
    of four orthogonal roots, which share its square and K-pairing."""
    rng = random.Random(11)

    def weyl_image(x):
        k = x.surface.k
        for _ in range(rng.randint(0, 6)):
            x = reflect(x, tuple(rng.sample(range(1, k + 1), 3)))
        perm = rng.sample(range(1, k + 1), k)
        return divisor(x.surface, [x.coeffs[0]] + [x.coeffs[p] for p in perm])

    def drawn(s):
        return divisor(s, [rng.randint(-4, 4) for _ in range(s.k + 1)])

    pairs = []
    for k in range(4, 8):
        s = rational_surface(k)
        kc = canonical_class(s)
        for i in range(10):
            x = drawn(s)
            y = weyl_image(x) if i % 2 else drawn(s)
            while i % 2 == 0 and (y.square(), pair(kc, y)) != (x.square(), pair(kc, x)):
                y = drawn(s)
            pairs.append((x, y))
    s8 = rational_surface(8)
    x = weyl_image(2 * parse_class("E1-E2", s8))
    four = parse_class("E1-E2+E3-E4+E5-E6+E7-E8", s8)
    pairs += [(x, weyl_image(2 * parse_class("H-E1-E2-E3", s8))), (x, weyl_image(four))]
    return pairs


def test_equivalence_agrees_with_the_orbit_closure():
    """Oracle: y is equivalent to x exactly when order(y) lies in the
    closure of order(x) under cremona.moves."""
    answers = []
    for x, y in _same_invariant_pairs():
        orbit, frontier = {order(x)}, [order(x)]
        while frontier:
            frontier = {c for node in frontier for c in moves(node)} - orbit
            orbit.update(frontier)
        want = order(y) in orbit
        out = cremona_equivalent(x, y)
        assert out.kind == ("equivalent" if want else "distinct_by_invariant"), (x, y)
        answers.append(want)
    assert True in answers and False in answers


def test_the_search_agrees_with_the_chamber(monkeypatch):
    """The bidirectional search, forced by walks that report a spent budget,
    gives the chamber's answer on the pairs at k = 4..8; outside tests only
    nine or more blowups reach it."""
    pairs = _same_invariant_pairs()
    chamber = [cremona_equivalent(x, y) for x, y in pairs]
    spent = ReductionOutcome("budget_exceeded", None, (), cremona.MAX_STEPS)
    monkeypatch.setattr(cremona, "cremona_reduce", lambda x: spent)
    for (x, y), want in zip(pairs, chamber):
        got = cremona_equivalent(x, y)
        assert got.kind == want.kind, (x, y)
        if got.kind == "equivalent":
            assert (got.path[0], got.path[-1]) == (x, y)
        else:
            assert (got.which, want.which) == ("orbit_exhausted", "chamber"), (x, y)


def test_no_search_from_three_to_eight_blowups(monkeypatch):
    """The walks answer every pair from three to eight blowups alone."""
    def no_moves(x):
        raise AssertionError("cremona_equivalent searched")

    s3 = rational_surface(3)
    roots = [parse_class(r, s3) for r in ("E1-E2", "-E1+E3", "H-E1-E2-E3", "-H+E1+E2+E3")]
    minus_one = exceptional_classes(s3)
    pairs = [(x, y) for x in roots for y in roots] + [(x, y) for x in minus_one for y in minus_one]
    monkeypatch.setattr(cremona, "moves", no_moves)
    for x, y in pairs + _same_invariant_pairs():
        assert cremona_equivalent(x, y).kind in ("equivalent", "distinct_by_invariant")
