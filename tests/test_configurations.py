"""Configuration validity, blow-down, catalogs, and ruled surface data."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conelab import configurations
from conelab.configurations import (
    ConfigurationError,
    NegativeConfiguration,
    blow_down,
    catalog_cp2_1,
    catalog_cp2_2,
    catalog_cp2_3,
    certified_sw_classes,
    count_minus_one,
    disjoint_minus_one_configuration,
    is_classified_negative_class,
    ruled_negative_classes,
    validate_configuration,
)
from conelab.cremona import reflect
from conelab.enumeration import _max_degree, family_instances, sphere_classes
from conelab.lattice import (
    E,
    T,
    U,
    adjunction_genus,
    canonical_class,
    divisor,
    nontrivial_ruled,
    pair,
    parse_class,
    rational_surface,
    trivial_ruled,
)
from conelab.swcert import SWCertificate, sw_certificate

S2 = rational_surface(2)
S3 = rational_surface(3)


def config(surface, *texts):
    return NegativeConfiguration(surface, [parse_class(t, surface) for t in texts])


class TestConstruction:
    def test_nonnegative_square_curve_rejected(self):
        with pytest.raises(ConfigurationError):
            config(S2, "H-E1", "E2")

    def test_negative_genus_curve_rejected(self):
        with pytest.raises(ConfigurationError):
            config(S2, "2H-3E1")

    def test_negative_mutual_pairing_rejected(self):
        s = trivial_ruled(2)
        with pytest.raises(ConfigurationError):
            NegativeConfiguration(s, [U(s) - T(s), U(s) - 2 * T(s)])

    def test_json_round_trip(self):
        cfg = config(S3, "E3", "E2-E3", "H-E1-E2-E3", "-H+2E1-E2")
        assert NegativeConfiguration.from_json(cfg.to_json()) == cfg


class TestClassification:
    def test_positive_degree_families(self):
        assert is_classified_negative_class(parse_class("H-E1-E2", S2))
        s8 = rational_surface(8)
        assert is_classified_negative_class(
            parse_class("6H-3E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8", s8)
        )

    def test_anchored_families(self):
        assert is_classified_negative_class(parse_class("-2H+3E1-E2", S3))
        assert is_classified_negative_class(parse_class("E1-E2", S3))

    def test_rejections(self):
        assert not is_classified_negative_class(parse_class("H-E1", S2))  # square 0
        assert not is_classified_negative_class(parse_class("-H+2E1+2E2", S2))
        assert not is_classified_negative_class(parse_class("2H-3E1", S2))

    def test_ruled_sections(self):
        s = trivial_ruled(2)
        assert is_classified_negative_class(U(s) - 3 * T(s))
        assert not is_classified_negative_class(2 * U(s) - T(s))
        blown_up = U(trivial_ruled(1, 1)) - T(trivial_ruled(1, 1))
        assert blown_up.square() == -2 and not is_classified_negative_class(blown_up)

    @pytest.mark.parametrize("k,count", [(1, 3), (2, 13), (3, 40), (4, 107)])
    def test_agrees_with_the_sphere_class_search(self, k, count):
        # two definitions of the negative sphere classes pick the same classes
        # on a box that holds every searched class with room on each side
        s = rational_surface(k)
        top = _max_degree(k, 1)
        box = (
            divisor(s, (a, *(-b for b in bs)))
            for a in range(-2, top + 2)
            for bs in itertools.product(range(-4, top + 3), repeat=k)
        )
        picked = {c for c in box if is_classified_negative_class(c)}
        assert picked == family_instances(sphere_classes(s, n_bound=2))
        assert len(picked) == count


def _classified_before(c):
    """is_classified_negative_class as first written, on blowups of the
    plane: all b_i >= 0 at positive degree, and at degree -n <= 0 exactly one
    anchor b_i = -(n + 1) with every other b_j 0 or 1."""
    if not c.is_integral() or c.square() >= 0:
        return False
    if c.surface.k > 8 or adjunction_genus(c) != 0:
        return False
    a, b = c.coeffs[0], c.b_vector()
    if a >= 1:
        return all(v >= 0 for v in b)
    n = -a
    anchors = [v for v in b if v == -(n + 1)]
    return len(anchors) == 1 and all(v in (0, 1) for v in b if v != -(n + 1))


class TestClassificationAgainstItsFirstForm:
    """Oracle: genus 0 and a negative square leave the two predicates no
    class to disagree on."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exhaustive_box(self, k):
        # a class of non-negative square or non-zero genus fails the same
        # first tests in both, so only the rest of the box is built
        s = rational_surface(k)
        built = Counter()
        for a in range(-4, 5):
            for bs in itertools.product(range(-6, 7), repeat=k):
                sq = sum(b * b for b in bs)
                if a * a >= sq or sq - sum(bs) != (a - 1) * (a - 2):
                    continue
                c = divisor(s, (a, *(-b for b in bs)))
                got = is_classified_negative_class(c)
                assert got == _classified_before(c), c
                built[a >= 1, got] += 1
        # unanchored classes of degree <= 0 exist in the box, and are refused
        assert built[False, False] > 0 and built[False, True] > 0

    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_seeded_and_searched_classes(self, k):
        s = rational_surface(k)
        rng = random.Random(k)
        searched = family_instances(sphere_classes(s, margin=2))
        drawn = [divisor(s, [rng.randint(-5, 5) for _ in range(k + 1)]) for _ in range(500)]
        # Weyl images of the searched classes reach other degrees
        images = [reflect(c, tuple(rng.sample(range(1, k + 1), 3))) for c in searched]
        for c in (*searched, *drawn, *images):
            assert is_classified_negative_class(c) == _classified_before(c), c
        assert all(is_classified_negative_class(c) for c in searched)


class TestValidation:
    def test_two_blowup_configuration_passes(self):
        cfg = config(S2, "E2", "H-E1-E2", "-H+2E1")
        rep = validate_configuration(cfg)
        assert rep.passed
        # the exceptional class E1 decomposes with unit coefficients over
        # the three curves: (-H+2E1) + (H-E1-E2) + E2 = E1
        decomp = dict((str(t), c) for t, c in rep.decompositions)
        assert decomp["E1"] == (1, 1, 1)

    def test_missing_slant_line_fails(self):
        rep = validate_configuration(config(S2, "E1", "E2"))
        assert not rep.passed
        assert not rep.p3.passed
        assert "H-E1-E2" in rep.p3.details

    def test_catalog_case_seven_passes(self):
        for n in (0, 1, 2):
            cfg = config(S3, "E3", "E2-E3", "H-E1-E2-E3", f"-{n}H+{n+1}E1-E2")
            assert validate_configuration(cfg).passed

    def test_witness_has_positive_square(self):
        rep = validate_configuration(config(S2, "E2", "H-E1-E2", "-H+2E1"))
        assert rep.witness is not None and rep.witness.square() > 0

    def test_certified_classes_are_computed_once_per_surface(self, monkeypatch):
        built = []
        families = configurations.certified_sw_families
        monkeypatch.setattr(
            configurations, "certified_sw_families", lambda s: built.append(s) or families(s)
        )
        certified_sw_classes.cache_clear()
        s4 = rational_surface(4)
        first = certified_sw_classes(s4)
        assert certified_sw_classes(rational_surface(4)) == first
        assert built == [s4] and isinstance(first, tuple)

    def test_the_certified_ruled_section_is_the_least_certified_one(self):
        for s in [make(h) for make in (trivial_ruled, nontrivial_ruled) for h in (1, 2, 3)]:
            least = next(U(s) + a * T(s) for a in range(-3, 4)
                         if isinstance(sw_certificate(U(s) + a * T(s)), SWCertificate))
            assert certified_sw_classes(s) == (T(s), least), s


class TestBlowDown:
    def test_case_seven_lands_on_the_two_blowup_family(self):
        cfg = NegativeConfiguration(
            S3,
            [
                E(S3, 3),
                E(S3, 2) - E(S3, 3),
                parse_class("H-E1-E2-E3", S3),
                parse_class("-H+2E1", S3),
            ],
        )
        small, dropped = blow_down(cfg, E(S3, 3))
        assert small == config(S2, "E2", "H-E1-E2", "-H+2E1")
        assert not dropped

    def test_square_zero_transforms_are_dropped(self):
        cfg = config(S2, "E2", "H-E1-E2", "-H+2E1")
        small, dropped = blow_down(cfg, E(S2, 2))
        s1 = rational_surface(1)
        assert small.curves == (parse_class("-H+2E1", s1),)
        assert [str(c) for c in dropped] == ["H-E1-E2"]

    WITH_SQUARE_ZERO = NegativeConfiguration(
        S2, [parse_class(t, S2) for t in ("E1", "E2", "H-E1-E2")], [parse_class("H-E1", S2)]
    )

    def test_an_orthogonal_square_zero_generator_is_kept(self):
        small, dropped = blow_down(self.WITH_SQUARE_ZERO, E(S2, 2))
        s1 = rational_surface(1)
        assert small == NegativeConfiguration(s1, [E(s1, 1)], [parse_class("H-E1", s1)])
        assert [str(c) for c in dropped] == ["H-E1-E2"]

    def test_a_square_zero_generator_meeting_the_class_is_dropped(self):
        # H - E1 pairs 1 with E1, so its transform H has square 1
        small, dropped = blow_down(self.WITH_SQUARE_ZERO, E(S2, 1))
        s1 = rational_surface(1)
        assert small == NegativeConfiguration(s1, [E(s1, 1)])
        assert [str(c) for c in dropped] == ["H-E1-E2", "H-E1"]

    def test_pairing_two_grows_the_genus(self):
        s8 = rational_surface(8)
        sextic = parse_class("6H-3E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8", s8)
        cfg = NegativeConfiguration(s8, [sextic, E(s8, 8)])
        _, dropped = blow_down(cfg, E(s8, 8))
        # pairing 2 takes the genus from 0 to 1; the transform has square
        # -1 + 4 = 3, so the sextic leaves the configuration
        assert pair(sextic, E(s8, 8)) == 2 and adjunction_genus(sextic) == 0
        transform = parse_class("6H-3E1-2E2-2E3-2E4-2E5-2E6-2E7", rational_surface(7))
        assert adjunction_genus(transform) == 1
        assert dropped == (sextic,)

    def test_a_broken_genus_law_raises(self, monkeypatch):
        # the bookkeeping checks raise, so they also hold under python -O
        cfg = config(S2, "E2", "H-E1-E2", "-H+2E1")
        genus = configurations.adjunction_genus
        monkeypatch.setattr(
            configurations, "adjunction_genus", lambda c: genus(c) + (c.surface.k == 1)
        )
        with pytest.raises(ConfigurationError, match="genus equality"):
            blow_down(cfg, E(S2, 2))

    def test_non_basis_class_rejected(self):
        cfg = config(S2, "E2", "H-E1-E2", "-H+2E1")
        with pytest.raises(ConfigurationError):
            blow_down(cfg, parse_class("H-E1-E2", S2))

    def test_class_outside_the_configuration_rejected(self):
        cfg = config(S2, "E2", "H-E1-E2", "-H+2E1")
        with pytest.raises(ConfigurationError):
            blow_down(cfg, E(S2, 1))

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_blow_down_identities(self, data):
        k = data.draw(st.integers(1, 6))
        s = rational_surface(k)
        small = rational_surface(k - 1)
        c = divisor(s, data.draw(st.lists(st.integers(-6, 6), min_size=k + 1, max_size=k + 1)))
        e = E(s, k)
        m = pair(c, e)
        transformed = c + m * e
        reduced = divisor(small, transformed.coeffs[:-1])
        assert pair(transformed, e) == 0
        assert reduced.square() == c.square() + m * m
        assert pair(canonical_class(small), reduced) == pair(canonical_class(s), c) - m
        g0, g1 = adjunction_genus(c), adjunction_genus(reduced)
        assert g1 >= g0
        assert (g1 == g0) == (m in (0, 1))


class TestCatalogs:
    def test_entry_count(self):
        assert len(catalog_cp2_3((0, 1, 2))) == 36

    def test_generic_point_blowup_has_the_extra_line_at_n_zero(self):
        entries = {
            (e.case, e.variant, e.n): e.configuration for e in catalog_cp2_3((0, 1))
        }
        assert parse_class("H-E2-E3", S3) in entries[(1, 2, 0)].curves
        assert parse_class("H-E2-E3", S3) not in entries[(1, 2, 1)].curves

    def test_case_five_contents(self):
        entries = {(e.case, e.n): e.configuration for e in catalog_cp2_3((1,)) if e.case == 5}
        assert entries[(5, 1)] == config(S3, "E3", "E2", "H-E1-E2-E3", "-H+2E1-E3")

    def test_every_entry_validates(self):
        for entry in catalog_cp2_3((0, 1, 2)):
            assert validate_configuration(entry.configuration).passed, entry.label()

    def test_one_blowup_catalog_validates(self):
        # the single curve does not span, so its dual has a lineality and
        # the witness comes from the curve together with the certified classes
        s1 = rational_surface(1)
        reports = [validate_configuration(e.configuration) for e in catalog_cp2_1((0, 1, 2))]
        assert all(rep.passed for rep in reports)
        assert [rep.witness for rep in reports] == [
            parse_class(t, s1) for t in ("2H-E1", "3H-2E1", "4H-3E1")
        ]

    def test_two_blowup_catalog_validates(self):
        for entry in catalog_cp2_2((0, 1, 2)):
            assert validate_configuration(entry.configuration).passed


class TestMinusOneCounts:
    def test_two_blowup_configuration(self):
        classes = count_minus_one(config(S2, "E2", "H-E1-E2", "-H+2E1"))
        assert len(classes) == 2
        assert set(str(c) for c in classes) == {"E2", "H-E1-E2"}

    def test_catalog_case_seven_has_one(self):
        cfg = config(S3, "E3", "E2-E3", "H-E1-E2-E3", "-H+2E1-E2")
        assert count_minus_one(cfg) == [E(S3, 3)]

    def test_disjoint_construction_counts(self):
        cfg = disjoint_minus_one_configuration(5, 3)
        classes = count_minus_one(cfg)
        assert len(classes) == 3
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert pair(a, b) == 0


class TestDisjointConfiguration:
    def test_three_three(self):
        cfg = disjoint_minus_one_configuration(3, 3)
        assert set(cfg.curves) == {
            parse_class("H-E1-E2-E3", S3),
            E(S3, 1),
            E(S3, 2),
            E(S3, 3),
        }

    def test_four_two(self):
        cfg = disjoint_minus_one_configuration(4, 2)
        classes = count_minus_one(cfg)
        assert len(classes) == 2
        assert pair(classes[0], classes[1]) == 0

    def test_three_one(self):
        cfg = disjoint_minus_one_configuration(3, 1)
        assert count_minus_one(cfg) == [E(S3, 3)]

    def test_validates(self):
        for k in (3, 4, 5):
            for l in range(1, k + 1):
                assert validate_configuration(
                    disjoint_minus_one_configuration(k, l)
                ).passed

    def test_parameter_range(self):
        with pytest.raises(ConfigurationError):
            disjoint_minus_one_configuration(2, 1)
        with pytest.raises(ConfigurationError):
            disjoint_minus_one_configuration(4, 5)


class TestRuledNegativeClasses:
    def test_trivial_bundle(self):
        s = trivial_ruled(2)
        got = ruled_negative_classes(s)
        assert got == [U(s) - n * T(s) for n in range(8, 0, -1)]

    def test_nontrivial_bundle_squares(self):
        s = nontrivial_ruled(1)
        got = ruled_negative_classes(s)
        assert [c.square() for c in got] == [-15, -13, -11, -9, -7, -5, -3, -1]

    def test_sections_exclude_each_other(self):
        s = trivial_ruled(3)
        got = ruled_negative_classes(s)
        for a in got:
            for b in got:
                if a != b:
                    assert pair(a, b) < 0

    def test_non_ruled_rejected(self):
        with pytest.raises(ConfigurationError):
            ruled_negative_classes(rational_surface(2))
