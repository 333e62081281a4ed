"""Formal inflation steps, alternating limits, and vertex achievement."""

import hashlib
import random
from fractions import Fraction

import pytest

from conelab import configurations, inflation
from conelab.configurations import (
    NegativeConfiguration,
    catalog_cp2_1,
    catalog_cp2_2,
    catalog_cp2_3,
    validate_configuration,
)
from conelab.cones import dual_cone, k_symplectic_cone, ray_sum
from conelab.enumeration import exceptional_classes
from conelab.inflation import (
    InflationError,
    InflationTrace,
    RoundBoundaryError,
    achieve_all_rays,
    achieve_vertex,
    alternate_inflate,
    max_inflate,
)
from conelab.lattice import (
    E,
    H,
    LatticeError,
    T,
    U,
    canonical_class,
    divisor,
    nontrivial_ruled,
    pair,
    parse_class,
    rational_surface,
    sorted_classes,
    trivial_ruled,
)

S2 = rational_surface(2)
S3 = rational_surface(3)


class TestFormalInflate:
    # a formal step is A + eps*C with 0 < eps <= (A.C)/(-C.C); max_inflate
    # takes the whole window and refuses what the window does not allow
    def test_maximal_step_along_the_slant_line(self):
        got = max_inflate(H(S2), parse_class("H-E1-E2", S2))
        assert got == (parse_class("2H-E1-E2", S2), 1)

    def test_zero_window_rejected(self):
        # H pairs to zero with E1: no positive step is admissible
        assert max_inflate(H(S2), E(S2, 1)) == (H(S2), 0)

    def test_square_zero_direction_is_unbounded(self):
        # the window along a square-zero class has no end, so no maximal step
        s = trivial_ruled(2)
        with pytest.raises(InflationError, match="negative square"):
            max_inflate(U(s) + T(s), T(s))

    def test_step_beyond_the_window_rejected(self):
        # the window of H along H-E1-E2 ends at eps = 1; a step of 2 lands on
        # a class pairing negatively with the curve, where inflation stops
        c = parse_class("H-E1-E2", S2)
        assert pair(H(S2) + 2 * c, c) < 0
        with pytest.raises(InflationError, match="negative"):
            max_inflate(H(S2) + 2 * c, c)

    def test_negative_pairing_rejected(self):
        with pytest.raises(InflationError):
            max_inflate(E(S2, 2), parse_class("H-E1-E2", S2) + E(S2, 2) * 3)

    def test_float_step_rejected(self):
        with pytest.raises(LatticeError):
            H(S2) + 0.5 * parse_class("H-E1-E2", S2)

    def test_membership_is_preserved(self):
        # each admissible step keeps the class inside the positive dual
        cfg = parse_class("-H+2E1", S2), E(S2, 2), parse_class("H-E1-E2", S2)
        dual = dual_cone(cfg)
        start = sum(dual.rays[1:], dual.rays[0])
        rng = random.Random(8)
        current = start
        for _ in range(30):
            c = cfg[rng.randrange(3)]
            top = Fraction(pair(current, c), -c.square())
            if top == 0:
                continue
            eps = top * Fraction(rng.randint(1, 4), 4)
            current = current + eps * c
            assert all(pair(current, g) >= 0 for g in cfg)


class TestMaxInflate:
    def test_half_step(self):
        got, eps = max_inflate(H(S2) - E(S2, 1), E(S2, 1) - E(S2, 2))
        assert eps == Fraction(1, 2)
        assert got == divisor(S2, [1, Fraction(-1, 2), Fraction(-1, 2)])

    def test_unit_step(self):
        got, eps = max_inflate(parse_class("3H-E1-E2", S2), parse_class("H-E1-E2", S2))
        assert eps == 1 and got == parse_class("4H-2E1-2E2", S2)

    def test_result_lands_on_the_hyperplane(self):
        got, _ = max_inflate(parse_class("5H-E1-2E2", S2), parse_class("H-E1-E2", S2))
        assert pair(got, parse_class("H-E1-E2", S2)) == 0

    def test_nonnegative_square_rejected(self):
        with pytest.raises(InflationError):
            max_inflate(H(S2), H(S2) - E(S2, 1))


class TestAlternateInflate:
    def test_all_pairings_zero(self):
        got = alternate_inflate(H(S3), E(S3, 3), E(S3, 1) - E(S3, 2), 4)
        assert got.ratio == 0 and got.limit == H(S3)

    def test_decoupled_pair_converges_in_one_step(self):
        a = H(S2) - E(S2, 1)
        got = alternate_inflate(a, parse_class("H-E1-E2", S2), parse_class("E1-E2", S2), 6)
        assert got.ratio == 0
        assert got.limit == divisor(S2, [1, Fraction(-1, 2), Fraction(-1, 2)])
        assert pair(got.limit, parse_class("H-E1-E2", S2)) == 0
        assert pair(got.limit, parse_class("E1-E2", S2)) == 0

    def test_divergent_light_cone_pair(self):
        a = 2 * H(S2) - E(S2, 2)
        got = alternate_inflate(a, E(S2, 1), parse_class("H-E1-E2", S2), 6)
        assert got.ratio == 1
        assert got.limit == parse_class("H-E2", S2)
        assert len(set(got.odd_coefficients)) == 1  # no decay at ratio one

    def test_scaled_curves_keep_the_ratio_and_the_limit(self):
        # a curve scaled by s divides its step sizes by s
        a = parse_class("3H-2E1-2E2-E3", S3)
        c1, c2 = parse_class("E1-E2", S3), parse_class("E2-E3", S3)
        base = alternate_inflate(a, c1, c2, 6)
        got = alternate_inflate(a, Fraction(1, 2) * c1, Fraction(2, 3) * c2, 6)
        assert base.ratio == got.ratio == Fraction(1, 4)
        assert got.limit == base.limit and got.result == base.result
        assert got.odd_coefficients == tuple(Fraction(3, 2) * x for x in base.odd_coefficients)
        assert got.even_coefficients == tuple(2 * x for x in base.even_coefficients)

    def test_start_off_the_facet_rejected(self):
        with pytest.raises(InflationError):
            alternate_inflate(H(S2), parse_class("H-E1-E2", S2), E(S2, 1), 2)

    def test_light_cone_violation_rejected(self):
        s8 = rational_surface(8)
        c2 = parse_class("6H-3E1-2E2-2E3-2E4-2E5-2E6-2E7-2E8", s8)
        # (E8 . c2)^2 = 4 exceeds the product of squares 1
        with pytest.raises(InflationError):
            alternate_inflate(H(s8), E(s8, 8), c2, 2)

    def test_geometric_coefficient_law(self):
        rng = random.Random(21)
        curves = [
            parse_class(t, S3)
            for t in ("E3", "E2-E3", "E1-E2", "H-E1-E2-E3", "E1-E3", "-H+2E1-E2")
        ]
        checked = limits = 0
        for c1 in curves:
            for c2 in curves:
                if c1 == c2 or pair(c1, c2) < 0:
                    continue
                x = Fraction(pair(c1, c2) ** 2, c1.square() * c2.square())
                if x > 1:
                    continue
                dual = dual_cone([c1, c2])
                omega = None
                for r in list(dual.rays) + [v for v in dual.lineality if v.square() > 0]:
                    omega = r if omega is None else omega + r
                if omega is None or pair(omega, c1) < 0 or pair(omega, c2) < 0:
                    continue
                a, _ = max_inflate(omega, c1)
                got = alternate_inflate(a, c1, c2, 12)
                l1 = Fraction(pair(a, c2), -c2.square())
                assert got.odd_coefficients == tuple(l1 * x**j for j in range(6))
                checked += 1
                if x < 1:
                    # the closed form: a + l1/(1-x) * (c2 - (c1.c2)/c1^2 * c1)
                    s, t = l1 / (1 - x), Fraction(pair(c1, c2), c1.square())
                    want = [p + s * (q - t * r) for p, q, r in zip(a.coeffs, c2.coeffs, c1.coeffs)]
                    assert got.limit == divisor(S3, want)
                    assert pair(got.limit, c1) == pair(got.limit, c2) == 0
                    limits += 1
        assert checked >= 8 and limits >= 8

    def test_end_class_replays_the_coefficients(self):
        # odd steps run along c2 and even steps along c1, so the end class is
        # a + (sum of odd) c2 + (sum of even) c1, replayed here in Fraction
        # arithmetic on the pairs of the coefficient law, the light-cone pair
        # and a scaled pair
        curves = [
            parse_class(t, S3)
            for t in ("E3", "E2-E3", "E1-E2", "H-E1-E2-E3", "E1-E3", "-H+2E1-E2")
        ]
        runs = []
        for c1 in curves:
            for c2 in curves:
                if c1 == c2 or pair(c1, c2) < 0 or pair(c1, c2) ** 2 > c1.square() * c2.square():
                    continue
                dual = dual_cone([c1, c2])
                omega = None
                for r in list(dual.rays) + [v for v in dual.lineality if v.square() > 0]:
                    omega = r if omega is None else omega + r
                if omega is None or pair(omega, c1) < 0 or pair(omega, c2) < 0:
                    continue
                runs.append((max_inflate(omega, c1)[0], c1, c2))
        runs.append((2 * H(S2) - E(S2, 2), E(S2, 1), parse_class("H-E1-E2", S2)))
        a, c1, c2 = parse_class("3H-2E1-2E2-E3", S3), parse_class("E1-E2", S3), parse_class("E2-E3", S3)
        runs += [(a, c1, c2), (a, Fraction(1, 2) * c1, Fraction(2, 3) * c2)]
        for a, c1, c2 in runs:
            got = alternate_inflate(a, c1, c2, 12)
            odd, even = sum(got.odd_coefficients), sum(got.even_coefficients)
            want = [Fraction(p) + odd * q + even * r for p, q, r in zip(a.coeffs, c2.coeffs, c1.coeffs)]
            assert list(got.result.coeffs) == want, (a, c1, c2)
        assert len(runs) == 25


class TestGramSchmidt:
    # achieve_vertex orthogonalizes its curves and steps once along each
    # orthogonalized class the start pairs positively with
    def test_orthogonal_family_unchanged(self):
        curves = [E(S3, 3), parse_class("E1-E2", S3), parse_class("H-E1-E2", S3)]
        got = achieve_vertex(parse_class("5H-3E1-E2-E3", S3), curves)
        assert [u for u, _ in got.steps] == curves
        assert [c.square() for c, _ in got.steps] == [-1, -2, -1]

    def test_light_cone_meeting_detected(self):
        # E1 and H-E1-E2 orthogonalize to E1 and H-E2, of square zero: the
        # facets meet the light cone on the ray H-E2
        got = achieve_vertex(parse_class("3H-E1-E2", S2), [E(S2, 1), parse_class("H-E1-E2", S2)])
        assert got.limit_formula_used and got.result == parse_class("H-E2", S2)
        # replay does not apply to a light-cone limit, which verifies as flagged
        assert got.verify()

    def test_single_class_unchanged(self):
        s1 = rational_surface(1)
        got = achieve_vertex(parse_class("2H-E1", s1), [E(s1, 1)])
        assert got.steps == ((E(s1, 1), 1),)

    def test_dependent_input_rejected(self):
        with pytest.raises(InflationError, match="not a single ray"):
            achieve_vertex(H(S3), [E(S3, 1) - E(S3, 2), E(S3, 2) - E(S3, 1), E(S3, 3)])

    def test_outputs_are_pairwise_orthogonal(self):
        curves = [parse_class(t, S3) for t in ("E3", "E2-E3", "-H+2E1-E2")]
        got = achieve_vertex(parse_class("3H-2E1-E2-E3", S3), curves)
        ortho = [u for u, _ in got.steps]
        assert len(ortho) == 3
        for i, a in enumerate(ortho):
            assert a.square() < 0
            for b in ortho[i + 1 :]:
                assert pair(a, b) == 0


class TestAchieveVertex:
    CURVES = [
        parse_class("E3", S3),
        parse_class("E1-E2", S3),
        parse_class("H-E1-E2", S3),
    ]

    def test_from_the_line_class(self):
        got = achieve_vertex(H(S3), self.CURVES)
        assert got.result.primitive() == parse_class("2H-E1-E2", S3)
        assert got.result == parse_class("2H-E1-E2", S3)
        assert got.verify()

    def test_same_ray_from_another_start(self):
        got = achieve_vertex(H(S3) - E(S3, 1), self.CURVES)
        assert got.result.primitive() == parse_class("2H-E1-E2", S3)
        assert got.result == Fraction(1, 2) * parse_class("2H-E1-E2", S3)

    def test_single_orthogonal_curve_is_identity(self):
        s1 = rational_surface(1)
        got = achieve_vertex(H(s1), [E(s1, 1)])
        assert got.result.primitive() == H(s1) and got.steps == ()

    def test_result_is_orthogonal_to_every_curve(self):
        got = achieve_vertex(parse_class("4H-2E1-E2-E3", S3), self.CURVES)
        for c in self.CURVES:
            assert pair(got.result.primitive(), c) == 0

    def test_light_cone_ray_is_returned_flagged(self):
        got = achieve_vertex(
            parse_class("3H-E1-E2", S2),
            [E(S2, 2), parse_class("H-E1-E2", S2)],
        )
        assert got.limit_formula_used
        assert got.result.primitive() == parse_class("H-E1", S2)

    def test_a_null_residual_pointing_away_from_the_start_is_flipped(self):
        # E1 and -H+E1+E2 orthogonalize to E1 and -H+E2, a null class that
        # pairs -1 with the start; the ray is its negative, as it is for
        # H-E1-E2 in place of -H+E1+E2
        start = parse_class("2H-E2", S2)
        away = achieve_vertex(start, [E(S2, 1), parse_class("-H+E1+E2", S2)])
        toward = achieve_vertex(start, [E(S2, 1), parse_class("H-E1-E2", S2)])
        assert away == toward == InflationTrace(start, (), parse_class("H-E2", S2), True)

    def test_square_zero_curve_is_its_own_ray(self):
        s = trivial_ruled(1)
        start = parse_class("U+3T", s)
        assert achieve_vertex(start, [T(s)]) == InflationTrace(start, (), T(s), True)

    def test_positive_square_residual_is_a_light_cone_violation(self):
        # E1, E2 and H-E1-E2 orthogonalize to E1, E2 and H: three facets of
        # a rank-3 lattice whose last residual has left the light cone
        with pytest.raises(InflationError, match="^orthogonalized class H has positive square$"):
            achieve_vertex(
                parse_class("3H-E1-E2", S2), [E(S2, 1), E(S2, 2), parse_class("H-E1-E2", S2)]
            )

    def test_non_ray_intersection_rejected(self):
        with pytest.raises(InflationError):
            achieve_vertex(H(S3), [E(S3, 3)])


def fraction_vertex(a, curves):
    """achieve_vertex as a Gram-Schmidt on classes with Fraction
    coefficients, the reference for the fraction-free one: (steps, result,
    light-cone flag)."""
    ortho, null = [], None
    for c in curves:
        v = c
        for u in ortho:
            v = v - Fraction(pair(u, c), pair(u, u)) * u
        if v.is_zero():
            continue
        if v.square() == 0:
            null = v
        else:
            ortho.append(v)
    if null is not None:
        ray = null.primitive()
        return [], ray if pair(a, ray) >= 0 else -ray, True
    steps, current = [], a
    for u in ortho:
        eps = Fraction(pair(current, u), -pair(u, u))
        current = current + eps * u
        if eps:
            steps.append((u, eps))
    return steps, current, False


class TestFractionFree:
    # the same orthogonalized classes, steps, result and flag as the reference
    @pytest.mark.parametrize("k", range(2, 7))
    def test_seeded_tight_sets(self, k):
        # the -1 classes tight at each corner, in a seeded order, from -K and
        # from a seeded rational start inside the cone
        rng = random.Random(k)
        s = rational_surface(k)
        minus_one = sorted_classes(exceptional_classes(s))
        corners = [c.ray for c in k_symplectic_cone(s).corners]
        for ray in corners:
            tight = [e for e in minus_one if pair(e, ray) == 0]
            rng.shuffle(tight)
            scaled = [Fraction(rng.randint(1, 3), rng.randint(1, 3)) * e for e in tight]
            inside = sum(rng.sample(corners, min(3, len(corners))), -canonical_class(s))
            for start in (-canonical_class(s), Fraction(rng.randint(1, 5), rng.randint(1, 5)) * inside):
                for curves in (tight, scaled):
                    got = achieve_vertex(start, curves)
                    want = fraction_vertex(start, curves)
                    assert (list(got.steps), got.result, got.limit_formula_used) == want

    def test_catalog_configurations(self):
        # every ray of every polytopic catalog dual, from the sum of its rays
        rays = 0
        for entry in catalog_cp2_1() + catalog_cp2_2() + catalog_cp2_3():
            cfg = entry.configuration
            dual = cfg.dual
            if dual.lineality or any(r.square() < 0 for r in dual.rays):
                continue
            for ray in dual.rays:
                tight = [c for c in cfg.curves if pair(c, ray) == 0]
                curves = tight or [g for g in cfg.extra_square_zero if pair(g, ray) == 0]
                got = achieve_vertex(ray_sum(dual), curves)
                want = fraction_vertex(ray_sum(dual), curves)
                assert (list(got.steps), got.result, got.limit_formula_used) == want
                rays += 1
        assert rays == 175

    def test_the_vertices_from_minus_k_on_seven_blowups_are_pinned(self):
        # every step, result and flag at the 702 corners; the digest is that
        # of the Fraction Gram-Schmidt, which the fraction-free one reproduces
        s = rational_surface(7)
        minus_one = sorted_classes(exceptional_classes(s))
        digest = hashlib.sha256()
        for corner in k_symplectic_cone(s).corners:
            tight = [e for e in minus_one if pair(e, corner.ray) == 0]
            trace = achieve_vertex(-canonical_class(s), tight)
            steps = " ".join(f"{eps}*({u})" for u, eps in trace.steps)
            line = f"{corner.ray}: {steps} -> {trace.result} {trace.limit_formula_used}\n"
            digest.update(line.encode())
        assert digest.hexdigest() == "fd71bcf1e6da1499dd34ccf5253f582e26ab4351ab2b1205b4758d669247a07d"


class TestBrokenDivisions:
    def test_a_broken_division_raises(self, monkeypatch):
        # the orthogonality check after each division raises, so it also
        # holds under python -O; alternate_inflate's limit and achieve_vertex
        # step through max_inflate, whose check meets the broken step first
        monkeypatch.setattr(inflation, "Fraction", lambda p, q=1: Fraction(p, q) * Fraction(101, 100))
        with pytest.raises(InflationError, match="misses its hyperplane"):
            max_inflate(H(S2) - E(S2, 1), E(S2, 1) - E(S2, 2))
        with pytest.raises(InflationError, match="misses its hyperplane"):
            alternate_inflate(H(S2) - E(S2, 2), E(S2, 1), E(S2, 2), 0)
        with pytest.raises(InflationError, match="misses its hyperplane"):
            achieve_vertex(parse_class("2H-E1-E2", S2), [E(S2, 1), E(S2, 2)])


class TestAchieveAllRays:
    def test_exceptional_configuration(self):
        cfg = NegativeConfiguration(S2, [E(S2, 1), E(S2, 2), parse_class("H-E1-E2", S2)])
        got = achieve_all_rays(cfg, parse_class("3H-E1-E2", S2))
        assert set(got) == set(
            parse_class(t, S2) for t in ("H", "H-E1", "H-E2")
        )

    def test_section_family(self):
        cfg = NegativeConfiguration(S2, [parse_class(t, S2) for t in ("-H+2E1", "E2", "H-E1-E2")])
        start = parse_class("5H-3E1-E2", S2)
        got = achieve_all_rays(cfg, start)
        assert set(got) == set(
            parse_class(t, S2) for t in ("2H-E1", "H-E1", "2H-E1-E2")
        )

    def test_round_boundary_detected(self):
        with pytest.raises(RoundBoundaryError) as err:
            achieve_all_rays(NegativeConfiguration(S2, [E(S2, 1)]), H(S2))
        # the error names the negative-square directions of the dual
        assert err.value.evidence
        assert all(v.square() < 0 for v in err.value.evidence)

    @pytest.mark.parametrize("surface,section,rays", [
        (trivial_ruled(1), "U-T", {"T", "U+T"}),
        (trivial_ruled(2), "U-2T", {"T", "U+2T"}),
        (nontrivial_ruled(1), "U-T", {"T", "U"}),
    ])
    def test_fiber_ray_is_a_light_cone_limit(self, surface, section, rays):
        # no negative curve is tight on the fiber ray T, only the fiber is
        fiber = T(surface)
        start = parse_class("U+3T", surface)
        cfg = NegativeConfiguration(surface, [parse_class(section, surface)], [fiber])
        got = achieve_all_rays(cfg, start)
        assert {str(r) for r in got} == rays
        limit = got[fiber]
        assert limit.limit_formula_used
        assert limit.result == fiber and limit.steps == ()
        for ray, res in got.items():
            if ray != fiber:
                assert not res.limit_formula_used and res.verify()

    def test_fiber_ray_off_its_generator_raises(self, monkeypatch):
        # a vertex that lands off its dual ray is refused, the fiber ray too
        s = trivial_ruled(1)
        real = inflation.achieve_vertex

        def off_the_fiber(a, curves):
            if curves == [T(s)]:
                return InflationTrace(a, (), parse_class("U", s), True)
            return real(a, curves)

        monkeypatch.setattr(inflation, "achieve_vertex", off_the_fiber)
        with pytest.raises(InflationError, match="achieved U instead of dual ray T$"):
            achieve_all_rays(
                NegativeConfiguration(s, [parse_class("U-T", s)], [T(s)]), parse_class("U+3T", s)
            )

    def test_validation_and_inflation_build_one_dual(self, monkeypatch):
        # validate_configuration and achieve_all_rays both read cfg.dual
        built = []
        real = configurations.dual_cone
        monkeypatch.setattr(configurations, "dual_cone", lambda gens: built.append(gens) or real(gens))
        cfg = NegativeConfiguration(S2, [parse_class(t, S2) for t in ("-H+2E1", "E2", "H-E1-E2")])
        report = validate_configuration(cfg)
        assert report.passed
        assert set(achieve_all_rays(cfg, report.witness)) == set(cfg.dual.rays)
        assert len(built) == 1

    def test_trace_identities(self):
        cfg = NegativeConfiguration(S2, [parse_class(t, S2) for t in ("-H+2E1", "E2", "H-E1-E2")])
        got = achieve_all_rays(cfg, parse_class("5H-3E1-E2", S2))
        for ray, res in got.items():
            if not res.limit_formula_used:
                assert res.verify()
                assert res.result.primitive() == ray
