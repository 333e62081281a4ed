"""Pairing, canonical classes, genus and dimension arithmetic, literals."""

import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import conelab
from conelab.cli import parse_surface
from conelab.configurations import certified_sw_classes
from conelab.cremona import order, reflect
from conelab.enumeration import exceptional_classes
from conelab.lattice import (
    NONTRIVIAL_RULED,
    RATIONAL,
    DivisorClass,
    E,
    H,
    LatticeError,
    ParseError,
    SurfaceModel,
    T,
    U,
    adjunction_genus,
    canonical_class,
    divisor,
    format_class,
    nontrivial_ruled,
    pair,
    parse_class,
    rational_surface,
    sw_dimension,
    trivial_ruled,
)


def classes(max_k=6, lo=-9, hi=9):
    @st.composite
    def build(draw):
        k = draw(st.integers(0, max_k))
        s = rational_surface(k)
        coeffs = draw(st.lists(st.integers(lo, hi), min_size=k + 1, max_size=k + 1))
        return divisor(s, coeffs)

    return build()


def gram_matrix(surface):
    """The intersection form written out entry by entry: 1 on H, or U.T = 1
    and U^2 = 1 on the twisted bundle, 0 on the trivial one; -1 on each Ei."""
    n = surface.rank
    g = [[0] * n for _ in range(n)]
    if surface.kind == RATIONAL:
        g[0][0], head = 1, 1
    else:
        g[0][1] = g[1][0] = 1
        g[0][0], head = int(surface.kind == NONTRIVIAL_RULED), 2
    for i in range(head, n):
        g[i][i] = -1
    return g


any_surface = st.one_of(
    st.builds(rational_surface, st.integers(0, 8)),
    st.builds(trivial_ruled, st.integers(1, 3), st.integers(0, 8)),
    st.builds(nontrivial_ruled, st.integers(1, 3), st.integers(0, 8)),
)
coefficient = st.one_of(
    st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
)


class TestPairing:
    @settings(deadline=None, max_examples=200)
    @given(any_surface, st.data())
    def test_matches_the_gram_matrix(self, s, data):
        coeffs = st.lists(coefficient, min_size=s.rank, max_size=s.rank)
        x, y = divisor(s, data.draw(coeffs)), divisor(s, data.draw(coeffs))
        g = gram_matrix(s)
        want = sum(
            xi * g[i][j] * yj for i, xi in enumerate(x.coeffs) for j, yj in enumerate(y.coeffs)
        )
        got = pair(x, y)
        assert got == want
        # an int exactly when both classes are integral, as the printed results rely on
        assert (type(got) is int) == (x.is_integral() and y.is_integral())

    def test_equal_surfaces_need_not_be_one_object(self):
        s = rational_surface(2)
        twin = SurfaceModel(RATIONAL, 2)
        assert twin is not s
        assert pair(H(twin) - E(twin, 1), H(s) + E(s, 1)) == 2

    def test_form_definition(self):
        s = rational_surface(2)
        assert pair(H(s), H(s)) == 1
        assert pair(E(s, 1), E(s, 1)) == -1
        assert pair(H(s), E(s, 1)) == 0

    def test_cubic_pairs_minus_three_with_canonical(self):
        # expand by hand: (3H - E1 - ... - E6).K = -9 + 6
        s = rational_surface(6)
        cubic = parse_class("3H-E1-E2-E3-E4-E5-E6", s)
        assert pair(cubic, canonical_class(s)) == -3

    def test_ruled_form(self):
        s = trivial_ruled(2)
        assert pair(U(s), U(s)) == 0
        assert pair(U(s), T(s)) == 1
        assert pair(T(s), T(s)) == 0
        n = nontrivial_ruled(2)
        assert pair(U(n), U(n)) == 1
        assert pair(U(n), T(n)) == 1

    def test_surface_mismatch_rejected(self):
        with pytest.raises(LatticeError):
            pair(H(rational_surface(1)), H(rational_surface(2)))

    @settings(deadline=None, max_examples=200)
    @given(classes(), st.data())
    def test_symmetric_bilinear(self, x, data):
        s = x.surface
        y = divisor(s, data.draw(st.lists(st.integers(-9, 9), min_size=s.rank, max_size=s.rank)))
        z = divisor(s, data.draw(st.lists(st.integers(-9, 9), min_size=s.rank, max_size=s.rank)))
        lam = Fraction(data.draw(st.integers(-5, 5)), data.draw(st.integers(1, 5)))
        assert pair(x, y) == pair(y, x)
        assert pair(x + lam * y, z) == pair(x, z) + lam * pair(y, z)


class TestCanonicalClass:
    def test_plane(self):
        s = rational_surface(0)
        assert canonical_class(s) == -3 * H(s)

    def test_trivial_ruled_genus_two(self):
        s = trivial_ruled(2)
        assert canonical_class(s) == -2 * U(s) + 2 * T(s)

    def test_nontrivial_ruled_genus_one(self):
        s = nontrivial_ruled(1)
        assert canonical_class(s) == -2 * U(s) + T(s)

    def test_blowup_adds_exceptional_terms(self):
        s = rational_surface(3)
        assert canonical_class(s) == parse_class("-3H+E1+E2+E3", s)

    def test_canonical_square_is_eight_minus_k_or_genus(self):
        for k in range(5):
            assert canonical_class(rational_surface(k)).square() == 9 - k
        for h in (1, 2, 3):
            assert canonical_class(trivial_ruled(h)).square() == 8 - 8 * h
            assert canonical_class(nontrivial_ruled(h)).square() == 8 - 8 * h


class TestGenusAndDimension:
    def test_line_and_exceptional_have_genus_zero(self):
        s = rational_surface(1)
        assert adjunction_genus(H(s)) == 0  # (1 - 3)/2 + 1
        assert adjunction_genus(E(s, 1)) == 0  # (-1 - 1)/2 + 1

    def test_genus_is_an_int_on_integral_classes(self):
        s = rational_surface(1)
        assert type(adjunction_genus(E(s, 1))) is int
        assert adjunction_genus(Fraction(1, 3) * H(s)) == Fraction(5, 9)

    def test_sextic_with_one_triple_point(self):
        # C^2 = -1 and K.C = -1 by the pairing oracle, so genus 0
        s = rational_surface(8)
        c = parse_class("6H-3E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8", s)
        assert c.square() == -1
        assert pair(canonical_class(s), c) == -1
        assert adjunction_genus(c) == 0

    def test_anti_canonical_elliptic_at_nine(self):
        s = rational_surface(9)
        assert adjunction_genus(-1 * canonical_class(s)) == 1

    def test_dimension_examples(self):
        s2 = rational_surface(2)
        assert sw_dimension(E(s2, 1)) == 0
        assert sw_dimension(parse_class("H-E1-E2", s2)) == 0  # (-1) - (-1)
        t = trivial_ruled(2)
        assert sw_dimension(parse_class("2U+2T", t)) == 8  # 8 - 0

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from([rational_surface(3), trivial_ruled(2, 2), nontrivial_ruled(1, 2)]),
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        st.integers(1, 4),
    )
    def test_genus_matches_the_fraction_formula(self, surface, coeffs, denominator):
        # oracle: (x.x + K.x)/2 + 1 over Fraction, on integral classes of all
        # three surface kinds (each of rank 4) and on their fractional multiples
        k = canonical_class(surface)
        x = Fraction(1, denominator) * divisor(surface, coeffs)
        g = adjunction_genus(x)
        assert g == Fraction(pair(x, x) + pair(k, x), 2) + 1
        assert type(g) is (int if x.is_integral() or g.denominator == 1 else Fraction)

    @settings(deadline=None, max_examples=200)
    @given(classes())
    def test_adjunction_parity(self, x):
        k = canonical_class(x.surface)
        assert (pair(x, x) + pair(k, x)) % 2 == 0
        assert adjunction_genus(x).denominator == 1


class TestLightCone:
    def test_null_orthogonal_forces_proportional(self):
        s = rational_surface(9)
        a = parse_class("3H-E1-E2-E3-E4-E5-E6-E7-E8-E9", s)
        anti = -1 * canonical_class(s)
        assert a.square() == anti.square() == pair(a, anti) == 0
        assert a.primitive() == anti.primitive()

    def test_forward_classes_pair_nonnegatively(self):
        import random

        rng = random.Random(404)
        checked = 0
        while checked < 300:
            k = rng.randint(1, 6)
            s = rational_surface(k)
            a = divisor(s, [rng.randint(1, 9)] + [rng.randint(-4, 4) for _ in range(k)])
            b = divisor(s, [rng.randint(1, 9)] + [rng.randint(-4, 4) for _ in range(k)])
            if a.square() <= 0 or b.square() < 0:
                continue
            checked += 1
            assert pair(a, b) >= 0
            if pair(a, b) == 0:
                # only proportional null classes pair to zero; a has positive
                # square, so this never happens for nonzero b
                assert b.is_zero()


class TestCoefficients:
    def test_floats_rejected(self):
        s = rational_surface(1)
        with pytest.raises(LatticeError):
            divisor(s, [0.1, 0])
        with pytest.raises(LatticeError):
            0.1 * H(s)
        with pytest.raises(LatticeError):
            H(s) * 0.5

    def test_a_class_stores_its_numerators_over_one_denominator_only(self):
        assert [f.name for f in dataclasses.fields(DivisorClass)] == ["surface", "_num", "_den"]
        s = rational_surface(2)
        x = divisor(s, [Fraction(1, 2), Fraction(-2, 3), 1])
        assert (x._num, x._den) == ((3, -4, 6), 6)
        y = divisor(s, [3, -1, 0])
        assert y.coeffs is y._num and y._den == 1

    def test_int_unless_a_denominator_remains(self):
        s = rational_surface(2)
        x = divisor(s, [Fraction(4, 2), -1, Fraction(1, 2)])
        assert [type(c) for c in x.coeffs] == [int, int, Fraction]
        assert [type(c) for c in (2 * x).coeffs] == [int, int, int]
        assert type(pair(H(s) - E(s, 1), 2 * x)) is int
        assert type(parse_class("3H-E1-E2", s).square()) is int

    def test_every_input_meets_the_same_rules(self):
        # a tuple of plain ints is kept as it is; anything else is converted
        s = rational_surface(1)
        x = DivisorClass(s, [2, -1])
        assert type(x.coeffs) is tuple and x.coeffs == (2, -1)
        y = DivisorClass(s, [Fraction(4, 2), 1])
        assert y.coeffs == (2, 1) and [type(c) for c in y.coeffs] == [int, int]
        for bad in ([1, True], (1, True), [1, 0.5], (1, 0.5), (1, "2")):
            with pytest.raises(LatticeError):
                DivisorClass(s, bad)

    @pytest.mark.parametrize("coeffs", [
        (2, -1, 0), (Fraction(4, 2), -1, 3), (1, Fraction(1, 2), 0),
        (Fraction(-6, 3), Fraction(7, 1), Fraction(0)), (Fraction(5, 3), Fraction(-1, 4), 2),
        [3, Fraction(9, 3), -4],
    ])
    def test_is_integral_agrees_with_the_denominators(self, coeffs):
        # the stored denominator is the lcm of the entries' denominators,
        # so it is 1 exactly when every entry is whole
        x = divisor(rational_surface(2), coeffs)
        assert x.is_integral() == all(Fraction(c).denominator == 1 for c in coeffs)


def fraction_class(s, entries):
    """The class the checked constructor makes from entries computed with
    Fraction arithmetic."""
    return DivisorClass(s, tuple(Fraction(c) for c in entries))


def assert_same_class(got, want):
    """got, built by a closed operation, against the checked construction:
    coefficients and their types, integrality, equality, hash, and the
    pairing, which reads the stored numerators and denominator."""
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert got.is_integral() == want.is_integral() == all(type(c) is int for c in want.coeffs)
    assert got == want and hash(got) == hash(want)
    for other in (got, want):
        assert pair(got, other) == pair(want, other)
        assert type(pair(got, other)) is type(pair(want, other))


class TestTrustedPath:
    """Sums, scalings, negation, primitive, reflect and order skip the
    constructor's checks; each must build the class the checks would."""

    scalar = st.integers(-5, 5)
    fraction = st.fractions(-5, 5, max_denominator=6)

    @settings(deadline=None, max_examples=200)
    @given(any_surface, st.data())
    def test_arithmetic_matches_fraction_arithmetic(self, s, data):
        ints = st.lists(st.integers(-9, 9), min_size=s.rank, max_size=s.rank)
        mixed = st.lists(coefficient, min_size=s.rank, max_size=s.rank)
        x = divisor(s, data.draw(ints | mixed))
        y = divisor(s, data.draw(ints | mixed))
        n, q = data.draw(self.scalar), data.draw(self.fraction)
        fx, fy = [Fraction(c) for c in x.coeffs], [Fraction(c) for c in y.coeffs]
        assert_same_class(x + y, fraction_class(s, [a + b for a, b in zip(fx, fy)]))
        assert_same_class(x - y, fraction_class(s, [a - b for a, b in zip(fx, fy)]))
        assert_same_class(-x, fraction_class(s, [-a for a in fx]))
        assert_same_class(n * x, fraction_class(s, [n * a for a in fx]))
        assert_same_class(x * q, fraction_class(s, [q * a for a in fx]))
        if not x.is_zero():
            # the positive multiple with coprime integer entries
            m = 1
            while any((m * a).denominator != 1 for a in fx):
                m += 1
            g = math.gcd(*(int(m * a) for a in fx))
            assert_same_class(x.primitive(), fraction_class(s, [m * a / g for a in fx]))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(3, 6), st.data())
    def test_reflect_and_order_match_fraction_arithmetic(self, k, data):
        s = rational_surface(k)
        x = divisor(s, data.draw(st.lists(st.integers(-9, 9), min_size=k + 1, max_size=k + 1)))
        i, j, l = data.draw(st.permutations(range(1, k + 1)))[:3]
        fx = [Fraction(c) for c in x.coeffs]
        d = fx[0] + fx[i] + fx[j] + fx[l]  # pairing with H - Ei - Ej - El
        want = list(fx)
        want[0] += d
        for e in (i, j, l):
            want[e] -= d
        assert_same_class(reflect(x, (i, j, l)), fraction_class(s, want))
        y = divisor(s, data.draw(st.lists(coefficient, min_size=k + 1, max_size=k + 1)))
        fy = [Fraction(c) for c in y.coeffs]
        assert_same_class(order(y), fraction_class(s, [fy[0], *sorted(fy[1:])]))

    def test_other_scalars_go_through_the_checks(self):
        s = nontrivial_ruled(1, 2)
        x = divisor(s, [1, Fraction(1, 2), -2, 3])
        assert_same_class(True * x, x)
        assert_same_class(x * False, fraction_class(s, [0, 0, 0, 0]))
        for bad in (0.5, 2.0):
            with pytest.raises(LatticeError):
                bad * x

    def test_an_integral_pairing_of_a_fractional_class_is_a_fraction(self):
        s = rational_surface(1)
        half = divisor(s, [Fraction(1, 2), Fraction(1, 2)])
        assert pair(half, 2 * H(s)) == 1 and type(pair(half, 2 * H(s))) is Fraction
        assert type((2 * half).square()) is int


class TestHash:
    """The hash reads the doubled numerators: equal classes hash equal, and
    classes that differ by -1 against -2 in one slot do not collide."""

    def test_equal_classes_hash_equal(self):
        s, r = rational_surface(3), trivial_ruled(2, 1)
        pairs = [
            (divisor(s, [Fraction(4, 2), -1, 0, -2]), parse_class("2H-E1-2E3", s)),
            (divisor(s, [3, -1, -1, -1]), reflect(H(s), (1, 2, 3)) + H(s)),
            (divisor(s, [Fraction(1, 2), -1, Fraction(-3, 4), 0]),
             Fraction(1, 4) * divisor(s, [2, -4, -3, 0])),
            (divisor(r, [1, Fraction(-2, 2), -1]), U(r) - T(r) - E(r, 1)),
        ]
        for checked, trusted in pairs:
            assert checked == trusted and hash(checked) == hash(trusted)

    def test_the_exceptional_and_certified_classes_at_eight_blowups_have_distinct_hashes(self):
        s = rational_surface(8)
        minus_one = exceptional_classes(s)
        certified = certified_sw_classes(s)
        assert len(minus_one) == 240 and len({hash(e) for e in minus_one}) == 240
        assert len(certified) == 2401 and len({hash(c) for c in certified}) == 2401

    def test_the_hash_does_not_depend_on_the_hash_seed(self):
        code = (
            "from conelab.lattice import parse_class, rational_surface, trivial_ruled\n"
            "print(hash(parse_class('3H-2E1-E2', rational_surface(2))),"
            " hash(parse_class('U-2T+E1', trivial_ruled(1, 1))))\n"
        )
        src = str(Path(conelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        outs = [
            subprocess.run([sys.executable, "-c", code], env=dict(env, PYTHONHASHSEED=seed),
                           capture_output=True, text=True, timeout=60)
            for seed in ("1", "2")
        ]
        assert all(out.returncode == 0 for out in outs), [out.stderr for out in outs]
        assert outs[0].stdout == outs[1].stdout


class TestInterning:
    def test_constructors_share_surfaces(self):
        assert rational_surface(3) is rational_surface(3)
        assert trivial_ruled(2, 1) is trivial_ruled(2, 1)
        assert nontrivial_ruled(1, 2) is nontrivial_ruled(1, 2)
        assert H(rational_surface(3)).surface is E(rational_surface(3), 1).surface

    def test_parsed_surfaces_are_the_interned_ones(self):
        # a surface read from the command line or from JSON is the one the
        # constructors hand out, so canonical_class's cache, filled from a
        # parsed surface, still answers with a class on the constructed one
        canonical_class.cache_clear()
        parsed = parse_surface("rational:k=3")
        assert parsed is rational_surface(3)
        assert SurfaceModel.from_json(trivial_ruled(2).to_json()) is trivial_ruled(2)
        canonical_class(parsed)
        assert canonical_class(rational_surface(3)).surface is rational_surface(3)

    def test_a_cached_surface_does_not_answer_for_a_bool_or_float(self):
        # cache the integer arguments that True and 1.0 compare equal to
        trivial_ruled(1, 1)
        rational_surface(1)
        nontrivial_ruled(1)
        for make, args in [
            (trivial_ruled, (True, 1)),
            (trivial_ruled, (1.0, 1)),
            (nontrivial_ruled, (True,)),
            (rational_surface, (True,)),
            (rational_surface, (1.0,)),
        ]:
            with pytest.raises(LatticeError):
                make(*args)


class TestLiteralsAndJson:
    def test_parse_examples(self):
        s = rational_surface(3)
        assert parse_class("2H-E1-E2-E3", s).coeffs == (2, -1, -1, -1)
        assert parse_class("-H+2E1", s).coeffs == (-1, 2, 0, 0)
        assert parse_class("1/2H - 3/2 E2", s).coeffs == (Fraction(1, 2), 0, Fraction(-3, 2), 0)
        assert parse_class("2H\t-E1", s).coeffs == (2, -1, 0, 0)
        assert parse_class("H -\nE3\n", s).coeffs == (1, 0, 0, -1)
        assert parse_class("2*H-1/2*E1", s).coeffs == (2, Fraction(-1, 2), 0, 0)
        t = trivial_ruled(2, k=1)
        assert parse_class("U-3T+E1", t).coeffs == (1, -3, 1)

    def test_bad_literals_rejected(self):
        s = rational_surface(1)
        with pytest.raises(LatticeError):
            parse_class("H-E2", s)
        with pytest.raises(LatticeError):
            parse_class("H-2Q1", s)
        with pytest.raises(LatticeError):
            parse_class("U+T", s)
        # juxtaposed terms are no sum, and a `*` needs a coefficient before it
        for text in ["HE1", "H E1", "H*E1", "2H3E1", "*H", "H+*E1"]:
            with pytest.raises(ParseError):
                parse_class(text, s)
        with pytest.raises(ParseError):
            parse_class("2H-E1 E2", rational_surface(2))

    @settings(deadline=None, max_examples=150)
    @given(classes())
    def test_format_parse_round_trip(self, x):
        assert parse_class(format_class(x), x.surface) == x

    def test_paper_signs_rendering(self):
        s = rational_surface(2)
        assert format_class(parse_class("6H-3E1-2E2", s), paper_signs=True) == "(6; 3, 2)"

    def test_primitive(self):
        s = rational_surface(1)
        x = divisor(s, [Fraction(3, 2), Fraction(-1, 2)])
        assert x.primitive() == divisor(s, [3, -1])
