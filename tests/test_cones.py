"""Cone construction, duality, corners, audits, thresholds."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import conelab
from conelab import cones, cremona, exactlp, linalg
from conelab.cones import (
    ConeError,
    CornerInfo,
    KSymplecticCone,
    RationalCone,
    cone_theorem_audit,
    dual_cone,
    extreme_rays_h,
    k_symplectic_cone,
    nef_threshold,
)
from conelab.configurations import catalog_cp2_2, catalog_cp2_3
from conelab.cremona import cremona_reduce, moves, order, reflect
from conelab.enumeration import exceptional_classes, family_instances, sphere_classes
from conelab.lattice import (
    E,
    H,
    T,
    U,
    adjunction_genus,
    basis_class,
    canonical_class,
    divisor,
    gram_functional,
    nontrivial_ruled,
    pair,
    parse_class,
    rational_surface,
    sorted_classes,
    trivial_ruled,
)

S2 = rational_surface(2)
S3 = rational_surface(3)


def classes(surface, *texts):
    return [parse_class(t, surface) for t in texts]


def double_dual(gens):
    """The dual of the dual of the cone on gens: its extreme rays, and a
    lineality basis when it is not pointed.  A zero dual means the
    generators span everything, and the double dual is the whole space."""
    d = dual_cone(gens)
    back = [*d.rays, *d.lineality, *(-v for v in d.lineality)]
    if back:
        return dual_cone(back)
    s = gens[0].surface
    return RationalCone((), tuple(sorted_classes(basis_class(s, i) for i in range(s.rank))))


class TestConstruction:
    def test_scaling_duplicates_removed(self):
        assert dual_cone([E(S2, 1), 2 * E(S2, 1)]) == dual_cone([E(S2, 1)])

    def test_three_ray_cone(self):
        d = dual_cone(classes(S2, "H-E1-E2", "E1", "E2"))
        assert len(d.rays) == 3 and d.lineality == ()

    def test_facets_on_the_plane(self):
        s0 = rational_surface(0)
        c = dual_cone([H(s0)])
        assert c.rays == (H(s0),)

    def test_empty_and_mixed_inputs_rejected(self):
        with pytest.raises(ConeError, match="empty generator list"):
            dual_cone([])
        with pytest.raises(ConeError, match="generators on mixed surfaces"):
            dual_cone([H(S2), H(S3)])
        with pytest.raises(ConeError, match="all generators are zero"):
            dual_cone([0 * H(S2)])


@st.composite
def generators_and_variant(draw):
    """A list of classes on at most three blowups, at least one nonzero,
    and the same list reordered, each member scaled by a positive int or
    Fraction, with duplicates and zero classes added."""
    s = rational_surface(draw(st.integers(0, 3)))
    vector = st.lists(st.integers(-3, 3), min_size=s.rank, max_size=s.rank)
    gens = draw(st.lists(vector.map(lambda c: divisor(s, c)), min_size=1, max_size=6))
    gens.append(divisor(s, draw(vector.filter(any))))
    scale = st.integers(1, 5) | st.fractions(min_value=Fraction(1, 7), max_value=5).filter(bool)
    variant = [draw(scale) * g for g in gens]
    variant += draw(st.lists(st.sampled_from(gens), max_size=3))
    variant += [0 * gens[0]] * draw(st.integers(0, 2))
    return gens, draw(st.permutations(variant))


@settings(deadline=None, max_examples=120)
@given(generators_and_variant())
def test_dual_ignores_order_scale_duplicates_and_zeros(case):
    gens, variant = case
    assert dual_cone(variant) == dual_cone(gens)


class TestDualCone:
    def test_exceptional_cone_dual(self):
        d = dual_cone(classes(S2, "E1", "E2", "H-E1-E2"))
        assert set(d.rays) == set(classes(S2, "H", "H-E1", "H-E2"))

    def test_first_family_section_two(self):
        d = dual_cone(classes(S2, "-H+2E1", "E2", "H-E1-E2"))
        assert set(d.rays) == set(classes(S2, "2H-E1", "H-E1", "2H-E1-E2"))

    def test_full_space_has_zero_dual(self):
        d = dual_cone(classes(S2, "H", "-H", "E1", "-E1", "E2", "-E2"))
        assert d.rays == () and d.lineality == ()

    def test_dual_rays_satisfy_the_defining_inequalities(self):
        gens = classes(S3, "E3", "E2-E3", "H-E1-E2-E3", "-2H+3E1-E2")
        d = dual_cone(gens)
        for r in d.rays:
            assert all(pair(r, g) >= 0 for g in gens)
            # extremality: the tight generators span a hyperplane
            tight = [g.coeffs for g in gens if pair(r, g) == 0]
            assert len(linalg.rref(tight)[0]) == S3.rank - 1

    def test_dual_keeps_the_lineality_as_equations(self):
        # the half-space pair(x, H) >= 0 on one blowup has lineality E1, so its
        # dual is the ray H inside the hyperplane pair(y, E1) = 0
        s1 = rational_surface(1)
        d = double_dual([H(s1)])
        assert d.rays == (H(s1),)
        inequalities = dual_cone(d.rays)
        assert inequalities.lineality == (E(s1, 1),)
        # H + E1 breaks the equation; H satisfies it and every facet
        assert pair(H(s1) + E(s1, 1), E(s1, 1)) != 0
        assert pair(H(s1), E(s1, 1)) == 0
        assert all(pair(H(s1), f) >= 0 for f in inequalities.rays)

    def test_double_dual_round_trip(self):
        # LP oracle: the generated cone holds a line exactly when some
        # generator's negative is a non-negative combination of the others;
        # otherwise its extreme rays are the generators that are not
        rng = random.Random(17)
        pools = [
            sorted_classes(exceptional_classes(rational_surface(4))),
            sorted_classes(family_instances(sphere_classes(S3))),
        ]
        seen = Counter()
        for _ in range(120):
            gens = rng.sample(rng.choice(pools), rng.randint(2, 7))
            dd = double_dual(gens)

            def combination(target, g):
                others = [h.coeffs for h in gens if h != g]
                return exactlp.nonnegative_combination(others, target.coeffs)

            pointed = all(combination(-1 * g, g) is None for g in gens)
            assert pointed == (not dd.lineality), gens
            if pointed:
                assert set(dd.rays) == {g for g in gens if combination(g, g) is None}, gens
            seen[pointed] += 1
        assert seen[True] >= 100 and seen[False] >= 5, seen


def _kernel(rows, dim):
    """Basis of {x : r.x = 0 for every integer row r}, by Gauss-Jordan
    elimination with integer row operations."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(dim):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        for j in range(len(m)):
            if j != r and m[j][c]:
                m[j] = [m[r][c] * x - m[j][c] * y for x, y in zip(m[j], m[r])]
        pivots.append(c)
    scale = lcm(*(m[r][p] for r, p in enumerate(pivots)))
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        v = [scale * int(c == f) for c in range(dim)]
        for r, p in enumerate(pivots):
            v[p] = -m[r][f] * scale // m[r][p]
        g = gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis


def _dot(a, x):
    return sum(p * q for p, q in zip(a, x))


def _brute_force_rays(ineqs, dim):
    """Extreme rays of {x : a.x >= 0} inside the orthogonal complement of
    its lineality: every set of tight rows that, with the lineality, has a
    one-dimensional kernel gives two candidate directions; the feasible
    ones, made primitive, are the rays."""
    lineality = _kernel(ineqs, dim)
    rays = set()
    for subset in combinations(ineqs, dim - len(lineality) - 1):
        kernel = _kernel(list(subset) + lineality, dim)
        if len(kernel) != 1:
            continue
        for v in (kernel[0], tuple(-x for x in kernel[0])):
            if all(_dot(a, v) >= 0 for a in ineqs):
                rays.add(v)
    return rays, lineality


def _random_systems(rng):
    """Random integer systems in dimensions 3-5 with duplicated, scaled,
    redundant, zero and degenerate rows, some with a lineality space."""
    for _ in range(30):
        dim, span = rng.randint(3, 5), rng.choice((1, 2))
        rows = [[rng.randint(-span, span) for _ in range(dim)]
                for _ in range(rng.randint(dim, dim + 3))]
        a, b = rng.sample(rows, 2)
        rows += [a, [2 * x for x in a], [x + y for x, y in zip(a, b)], [0] * dim]
        yield rows, dim
    # cones over a square, a cube and a 4-cube: many rows per ray; the
    # 4-cube's rows are duplicated, scaled and summed along square faces, so
    # non-adjacent rays share dim - 2 tight rows, and the insertion order
    # decides which pairs the adjacency test sees
    yield [[1, 0, 0], [0, 1, 0], [-1, 0, 1], [0, -1, 1], [1, 1, 0], [0, 0, 1]], 3
    yield [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 1], [0, -1, 0, 1], [0, 0, -1, 1]], 4
    cube = [[int(i == j) for j in range(5)] for i in range(1, 5)]
    cube += [[1] + [-int(i == j) for j in range(1, 5)] for i in range(1, 5)]
    cube += [[0, 1, 0, 0, 0], [0, 2, 0, 0, 0], [0, 1, 1, 0, 0], [2, -1, -1, 0, 0], [1, 0, 0, -1, 0]]
    yield cube[::-1], 5
    for _ in range(3):
        yield rng.sample(cube, len(cube)), 5
    # orthogonal to a fixed vector: lineality of dimension at least one
    for _ in range(4):
        dim, ell = 4, [rng.randint(-2, 2) or 1 for _ in range(4)]
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(6)]
        yield [[_dot(ell, ell) * x - _dot(r, ell) * y for x, y in zip(r, ell)] for r in rows], dim
    # a half-space, the whole space's dual and a line
    yield [[1, 2, 0]], 3
    yield [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], 3
    yield [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], 3


class TestDoubleDescription:
    def test_extreme_rays_match_brute_force(self):
        # independent oracle: every extreme ray is found by enumerating
        # the subsets of rows that pin a direction down
        for ineqs, dim in _random_systems(random.Random(23)):
            rays, lineality = extreme_rays_h(ineqs, dim)
            expected_rays, expected_lineality = _brute_force_rays(ineqs, dim)
            assert set(rays) == expected_rays and len(rays) == len(expected_rays), (ineqs, rays)
            assert len(lineality) == len(expected_lineality), (ineqs, lineality)
            assert all(_dot(a, v) == 0 for a in ineqs for v in lineality)
            assert len(_kernel(lineality, dim)) == dim - len(lineality)

    def test_lineality_matches_sympy_nullspace(self):
        # differential oracle: sympy's rational nullspace, the kernel that
        # linalg.nullspace computes and the lineality the DD returns have the
        # same dimension, and each basis together with sympy's has that rank
        sympy = pytest.importorskip("sympy")
        for ineqs, dim in _random_systems(random.Random(23)):
            want = [list(w) for w in sympy.Matrix(ineqs).nullspace()]
            _, lineality = extreme_rays_h(ineqs, dim)
            for basis in (linalg.nullspace(ineqs, dim), lineality):
                assert len(basis) == len(want), (ineqs, basis)
                assert sympy.Matrix([list(v) for v in basis] + want).rank() == len(want), ineqs


class TestExtremalRays:
    """The extremal rays of a generated cone are the rays of its double dual."""

    def test_already_extremal(self):
        gens = classes(S2, "H", "H-E1", "H-E2")
        assert set(double_dual(gens).rays) == set(gens)

    def test_interior_generator_dropped(self):
        # the redundant generator E1 + E2 is no ray of the double dual
        dd = double_dual([E(S2, 1), E(S2, 2), E(S2, 1) + E(S2, 2)])
        assert set(dd.rays) == {E(S2, 1), E(S2, 2)}

    def test_non_pointed_reports_lineality(self):
        dd = double_dual([E(S2, 1), -1 * E(S2, 1), E(S2, 2)])
        assert dd.lineality in ((E(S2, 1),), (-1 * E(S2, 1),))

    def test_interior_generator_dropped_after_facets(self):
        # the facets of the cone on E1, E2 and E1 + E2 are the dual's rays,
        # and its lineality H gives an equation; the dual of those drops the
        # redundant E1 + E2
        facets = dual_cone([E(S2, 1), E(S2, 2), E(S2, 1) + E(S2, 2)])
        assert facets.lineality == (H(S2),)
        equations = [H(S2), -1 * H(S2)]
        assert set(dual_cone([*facets.rays, *equations]).rays) == {E(S2, 1), E(S2, 2)}

    def test_non_pointed_after_facets_reports_lineality(self):
        lineality = double_dual([E(S2, 1), -1 * E(S2, 1), E(S2, 2)]).lineality
        assert [v.primitive() for v in lineality] in ([E(S2, 1)], [-1 * E(S2, 1)])


class TestMembership:
    def test_lp_membership_agrees_with_dd_membership(self):
        # differential oracle: the exact simplex finds a non-negative
        # combination exactly when double description puts the target in
        # the cone; every solution is re-checked by direct arithmetic
        rng = random.Random(4)
        s4 = rational_surface(4)
        pool = sorted_classes(exceptional_classes(s4))
        feasible = infeasible = 0
        for _ in range(40):
            gens = rng.sample(pool, rng.randint(4, 6))
            inequalities = dual_cone(gens)
            for _ in range(5):
                target = divisor(s4, [rng.randint(-1, 2) for _ in range(s4.rank)])
                x = exactlp.nonnegative_combination([g.coeffs for g in gens], target.coeffs)
                inside = all(pair(target, e) == 0 for e in inequalities.lineality) and all(
                    pair(target, f) >= 0 for f in inequalities.rays
                )
                assert (x is not None) == inside, (gens, target)
                if x is None:
                    infeasible += 1
                    continue
                feasible += 1
                assert all(v >= 0 for v in x)
                total = tuple(sum(v * g.coeffs[i] for v, g in zip(x, gens)) for i in range(s4.rank))
                assert total == target.coeffs
        assert feasible >= 20 and infeasible >= 20, (feasible, infeasible)


class TestKSymplecticCone:
    @pytest.mark.parametrize(
        "k,corners",
        [
            (0, {"H"}),
            (1, {"H", "H-E1"}),
            (2, {"H", "H-E1", "H-E2"}),
            (3, {"H", "H-E1", "H-E2", "H-E3", "2H-E1-E2-E3"}),
        ],
    )
    def test_corner_sets(self, k, corners):
        ks = k_symplectic_cone(rational_surface(k))
        assert {str(c.ray) for c in ks.corners} == corners

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_corners_are_spheres_of_square_zero_or_one(self, k):
        s = rational_surface(k)
        ks = k_symplectic_cone(s)
        assert ks.corners_ok
        for c in ks.corners:
            assert c.square in (0, 1) and c.genus == 0
        # independent oracle: the corners are the square-0 and square-1
        # sphere classes that pair non-negatively with every -1 class, found
        # by the sphere-class search rather than generated by the group
        minus_one = exceptional_classes(s)
        spheres = family_instances(sphere_classes(s, square=0) + sphere_classes(s, square=1))
        nef = {x for x in spheres if all(pair(x, e) >= 0 for e in minus_one)}
        assert {c.ray for c in ks.corners} == nef

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_corners_are_closed_under_the_moves(self, k):
        corners = {c.ray for c in k_symplectic_cone(rational_surface(k)).corners}
        assert all(set(moves(order(c))) <= corners for c in corners)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_corners_are_the_double_description_of_the_minus_one_cone(self, k):
        # oracle: the full double description of the dual of the -1 classes
        s = rational_surface(k)
        ks = k_symplectic_cone(s)
        dual = dual_cone(exceptional_classes(s))
        assert tuple(c.ray for c in ks.corners) == dual.rays
        assert dual.lineality == ()

    @pytest.mark.parametrize(
        "k,square_one,square_zero", [(6, 72, 27), (7, 576, 126), (8, 17280, 2160)]
    )
    def test_corner_counts(self, k, square_one, square_zero):
        # 702 at k = 7 is the facet count of the Gosset polytope 3_21
        squares = [c.square for c in k_symplectic_cone(rational_surface(k)).corners]
        assert (squares.count(1), squares.count(0)) == (square_one, square_zero)
        assert len(squares) == square_one + square_zero

    @pytest.mark.parametrize(
        "k,square_one,square_zero", [(6, 72, 27), (7, 576, 126), (8, 17280, 2160)]
    )
    def test_corners_reduce_to_h_or_h_minus_e1(self, k, square_one, square_zero):
        # independent oracle: Cremona reduction sends every corner of square 1
        # to H and every corner of square 0 to H - E1
        reduced = Counter()
        for c in k_symplectic_cone(rational_surface(k)).corners:
            out = cremona_reduce(c.ray)
            assert out.kind == "reduced"
            reduced[c.square, str(out.result)] += 1
        assert reduced == {(1, "H"): square_one, (0, "H-E1"): square_zero}

    @pytest.mark.parametrize("k,facets", [(5, 26), (6, 99), (7, 702)])
    def test_corner_count_matches_a_floating_point_hull(self, k, facets):
        # differential oracle: every -1 class has K.C = -1, so its
        # E-coordinates map the slice of the -1 cone affinely; the facets of
        # their convex hull are the corners.  scipy triangulates each facet,
        # so rounded normalised facet equations are merged.
        spatial = pytest.importorskip("scipy.spatial")
        points = [c.coeffs[1:] for c in exceptional_classes(rational_surface(k))]
        hull = spatial.ConvexHull(points)
        merged = {tuple(round(x, 6) for x in row) for row in hull.equations}
        assert len(merged) == facets
        assert len(k_symplectic_cone(rational_surface(k)).corners) == facets

    def test_k8_corners_are_the_facets_of_the_gosset_polytope(self):
        # the -1 classes of eight blowups are the 240 vertices of the Gosset
        # polytope 4_21 on the slice K.x = -1, and its facets are 17,280
        # 7-simplices and 2,160 7-orthoplexes: a corner of square 1 is tight on
        # 8 of the -1 classes, one of square 0 on 14, and none pairs negatively
        np = pytest.importorskip("numpy")
        s = rational_surface(8)
        corners = k_symplectic_cone(s).corners
        rays = np.array([c.ray.coeffs for c in corners])
        minus_one = np.array([e.coeffs for e in exceptional_classes(s)]) * ([1] + [-1] * 8)
        pairings = rays @ minus_one.T
        assert (pairings >= 0).all()
        tight = Counter(zip((c.square for c in corners), (pairings == 0).sum(axis=1).tolist()))
        assert tight == {(1, 8): 17280, (0, 14): 2160}

    @pytest.mark.parametrize("k", range(9))
    def test_square_and_genus_agree_with_each_corner(self, k):
        # reference: square and genus paired on each corner, not read off
        # its ordered class
        ks = k_symplectic_cone(rational_surface(k))
        corners = ks.corners
        for c in corners:
            assert (c.square, c.genus) == (c.ray.square(), adjunction_genus(c.ray))
        keys = [c.ray.coeffs for c in corners]
        assert all(x < y for x, y in zip(keys, keys[1:]))
        assert ks.corners_ok == all(c.square in (0, 1) and c.genus == 0 for c in corners)

    @pytest.mark.parametrize("k,count", enumerate([1, 2, 2, 3, 4, 5, 8, 15, 50]))
    def test_one_entry_per_ordered_class(self, k, count):
        # reference: the corners are the arrangements of the entries, so each
        # corner's ordered class is an entry with its square and genus, and
        # the corners number the multinomial counts of the entries
        ks = k_symplectic_cone(rational_surface(k))
        assert len(ks.orbits) == count
        assert all(c.ray == order(c.ray) for c in ks.orbits)
        entries = {c.ray: c for c in ks.orbits}
        corners = ks.corners
        for c in corners:
            entry = entries[order(c.ray)]
            assert (entry.square, entry.genus) == (c.square, c.genus)
        arrangements = [
            factorial(k) // prod(map(factorial, Counter(c.ray.coeffs[1:]).values()))
            for c in ks.orbits
        ]
        keys = [c.ray.coeffs for c in corners]
        assert len(keys) == sum(arrangements)
        assert all(x < y for x, y in zip(keys, keys[1:]))

    def test_k8_entries_by_square(self):
        squares = Counter(c.square for c in k_symplectic_cone(rational_surface(8)).orbits)
        assert squares == {1: 35, 0: 15}

    def test_an_entry_of_square_two_fails(self):
        x = parse_class("2H-E1-E2", S2)
        assert (x.square(), adjunction_genus(x)) == (2, 0)
        ks = KSymplecticCone((CornerInfo(x, 2, 0),))
        assert not ks.corners_ok
        assert ks.corners == [CornerInfo(x, 2, 0)]

    def test_k3_corner_types(self):
        ks = k_symplectic_cone(rational_surface(3))
        squares = sorted(c.square for c in ks.corners)
        assert squares == [0, 0, 0, 1, 1]

    def test_large_k_rejected(self):
        with pytest.raises(ConeError):
            k_symplectic_cone(rational_surface(9))

    def test_curve_cone_generators_pair_positively_with_some_corner(self):
        corners = [c.ray for c in k_symplectic_cone(S3).corners]
        for entry in catalog_cp2_3((0, 1, 2)):
            for curve in entry.configuration.curves:
                assert any(pair(curve, r) > 0 for r in corners)

    def test_catalog_extremal_rays_lie_in_the_classification(self):
        allowed = family_instances(sphere_classes(S3, n_bound=3))
        for entry in catalog_cp2_3((0, 1, 2)):
            hull = double_dual(entry.configuration.curves)
            assert not hull.lineality
            assert set(hull.rays) <= allowed


class TestCornerCertificate:
    """Each step of the completeness certificate raises when it fails."""

    def test_a_rank_deficient_tight_set(self, monkeypatch):
        # without E3 only E1 and E2 are tight at H
        monkeypatch.setattr(
            cones, "exceptional_classes", lambda s: exceptional_classes(s) - {E(s, 3)}
        )
        with pytest.raises(ConeError, match="tight at H are not the 3 named"):
            k_symplectic_cone(S3)

    def test_a_missing_neighbour(self, monkeypatch):
        # without the moves to degree 2 the orbits hold only H and the H - Ei,
        # and the neighbour of H-E1 across the face tight on H-E1-E2 and
        # H-E1-E3 is lost
        monkeypatch.setattr(
            cones, "moves", lambda x: [y for y in moves(x) if y.coeffs[0] < 2]
        )
        with pytest.raises(ConeError, match="corner 2H-E1-E2-E3 is missing"):
            k_symplectic_cone(S3)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_one_neighbour_per_orbit_of_the_stabiliser(self, k):
        # reference: a ray shot along every edge direction of the tangent cone
        s = rational_surface(k)
        minus_one = exceptional_classes(s)
        for r, orbits in ((H(s), 1), (H(s) - E(s, 1), k)):
            tight = [e for e in minus_one if pair(e, r) == 0]
            loose = [e for e in minus_one if pair(e, r) > 0]
            every = set()
            for d in extreme_rays_h([gram_functional(e) for e in tight], s.rank)[0]:
                d = divisor(s, d)
                step = max(Fraction(-pair(e, d), pair(e, r)) for e in loose)
                every.add(order((d + step * r).primitive()))
            got = cones._neighbours(r, [gram_functional(e) for e in minus_one])
            assert len(got) == orbits
            assert {order(x) for x in got} == every

    @pytest.mark.parametrize("k", range(2, 9))
    def test_the_written_edges_are_the_double_description_rays(self, k):
        # reference: the double description of the tight -1 classes, whose
        # rays lie orthogonal to r; each edge d is projected there, and an
        # orbit of r's stabiliser is told by d's H-coordinate and the sorted
        # pairs (r_i, d_i)
        s = rational_surface(k)
        for r, count in ((H(s), 1), (H(s) - E(s, 1), k)):
            tight = [gram_functional(e) for e in exceptional_classes(s) if pair(e, r) == 0]
            named, directions = cones._tangent_cone(r)
            assert named == set(tight)
            rays, lineality = extreme_rays_h(tight, s.rank)
            assert lineality == [r.coeffs]
            assert len(rays) == (k if r == H(s) else 2 ** (k - 1))

            def orbit(d):
                rr = sum(x * x for x in r.coeffs)
                dr = sum(x * y for x, y in zip(d, r.coeffs))
                v = linalg.primitive([rr * x - dr * y for x, y in zip(d, r.coeffs)])
                return (v[0], *sorted(zip(r.coeffs[1:], v[1:])))

            keys = [orbit(d) for d in directions]
            assert len(keys) == len(set(keys)) == count
            assert set(keys) == {orbit(d) for d in rays}

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda s, got: got - {H(s) - E(s, 1) - E(s, 2)}, "tight at H-E1 are not the 4 named"),
            (lambda s, got: got | {E(s, 1) - E(s, 2)}, "tight at H are not the 3 named"),
        ],
        ids=["one-removed", "one-added"],
    )
    def test_a_tight_set_off_the_closed_form(self, monkeypatch, change, message):
        # without H - E1 - E2 the classes tight at H - E1 still have rank 3;
        # E1 - E2 is tight at H and keeps the rank there
        monkeypatch.setattr(
            cones, "exceptional_classes", lambda s: change(s, exceptional_classes(s))
        )
        with pytest.raises(ConeError, match=message):
            k_symplectic_cone(S3)

    def test_no_double_description(self, monkeypatch):
        # counted, not timed: the edges are written down for every k
        calls, rays = [], cones.extreme_rays_h
        monkeypatch.setattr(cones, "extreme_rays_h", lambda *a: calls.append(a) or rays(*a))
        for k in range(9):
            k_symplectic_cone(rational_surface(k))
        assert calls == []

    def test_one_gram_functional_per_minus_one_class(self, monkeypatch):
        # the 240 -1 classes of eight blowups serve both H and H - E1
        made = []
        monkeypatch.setattr(
            cones, "gram_functional", lambda e: made.append(e) or gram_functional(e)
        )
        k_symplectic_cone(rational_surface(8))
        assert len(made) == len(set(made)) == 240

    @pytest.mark.parametrize("k,reflections", [(7, 56), (8, 328)])
    def test_one_reflection_per_value_triple(self, monkeypatch, k, reflections):
        # every index triple of the 15 and 50 ordered classes of the two
        # orbits would make 15 * 35 and 50 * 56 = 2,800 reflections
        made = []
        monkeypatch.setattr(cremona, "reflect", lambda x, t: made.append(t) or reflect(x, t))
        k_symplectic_cone(rational_surface(k))
        assert len(made) == reflections


class TestPositiveDual:
    # achieve_all_rays raises RoundBoundaryError on these duals unless they
    # are polytopic; its tests cover that on the same curves
    def test_exceptional_configuration_polytopic(self):
        dual = dual_cone(classes(S2, "E1", "E2", "H-E1-E2"))
        assert not dual.lineality
        assert sorted(r.square() for r in dual.rays) == [0, 0, 1]

    def test_section_two_family(self):
        dual = dual_cone(classes(S2, "-H+2E1", "E2", "H-E1-E2"))
        assert not dual.lineality
        got = {str(r): r.square() for r in dual.rays}
        assert got == {"2H-E1": 3, "H-E1": 0, "2H-E1-E2": 2}

    def test_sparse_cone_has_round_boundary(self):
        dual = dual_cone([E(S2, 1)])
        assert any(v.square() < 0 for v in dual.rays + dual.lineality)

    def test_meeting_facets_obey_the_light_cone_inequality(self):
        for entry in catalog_cp2_3((0, 1, 2)):
            cfg = entry.configuration
            for ray in dual_cone(cfg.generators()).rays:
                tight = [c for c in cfg.curves if pair(c, ray) == 0]
                for c1, c2 in combinations(tight, 2):
                    lhs = pair(c1, c2) ** 2
                    rhs = c1.square() * c2.square()
                    assert lhs <= rhs
                    if lhs == rhs:
                        meet = c1 - Fraction(pair(c1, c2), c2.square()) * c2
                        assert meet.primitive() in (ray, -1 * ray)

    def test_equality_case_meeting_ray(self):
        # the facets of E1 and H-E1-E2 meet exactly in the null ray H-E2
        c1, c2 = E(S2, 1), parse_class("H-E1-E2", S2)
        assert pair(c1, c2) ** 2 == c1.square() * c2.square()
        meet = c1 - Fraction(pair(c1, c2), c2.square()) * c2
        assert meet.primitive() == parse_class("H-E2", S2)


class TestConeTheoremAudit:
    def test_exceptional_generators_pass(self):
        rep = cone_theorem_audit(classes(S2, "E1", "E2", "H-E1-E2"))
        assert rep.passed
        assert all(t == "minus_one" for _, t in rep.entries)

    def test_line_on_the_plane_passes(self):
        s0 = rational_surface(0)
        rep = cone_theorem_audit([H(s0)])
        assert rep.passed
        assert rep.entries[0][1] == "line"

    def test_fiber_on_one_blowup_passes(self):
        s1 = rational_surface(1)
        rep = cone_theorem_audit(classes(s1, "E1", "H-E1"))
        assert rep.passed
        assert {t for _, t in rep.entries} == {"minus_one", "fiber"}

    def test_low_pairing_violation_caught(self):
        s1 = rational_surface(1)
        rep = cone_theorem_audit([parse_class("3H-E1", s1)])
        assert not rep.passed
        assert [(str(r), t) for r, t in rep.entries] == [("3H-E1", "violation")]
        assert pair(canonical_class(s1), rep.entries[0][0]) == -8

    @pytest.mark.parametrize("surface", [trivial_ruled(1), trivial_ruled(2), nontrivial_ruled(1)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_minimal_ruled_surfaces_with_a_negative_curve(self, surface, n):
        # U - nT pairs positively with K and is skipped; the fiber is the
        # one K-negative extremal ray
        rep = cone_theorem_audit([U(surface) - n * T(surface), T(surface)])
        assert rep.passed
        assert rep.entries == ((T(surface), "fiber"),)

    def test_non_pointed_cone_names_its_lineality(self):
        s1 = rational_surface(1)
        rep = cone_theorem_audit(classes(s1, "E1", "-E1", "H"))
        assert not rep.passed and rep.entries == ()
        assert rep.failure == "cone is not pointed; lineality spanned by E1"

    def test_generators_spanning_everything_name_the_whole_basis(self):
        # the dual of the cone is zero, and the double dual is all of R^3
        rep = cone_theorem_audit(classes(S2, "H", "-H", "E1", "-E1", "E2", "-E2"))
        assert not rep.passed and rep.entries == ()
        assert rep.failure == "cone is not pointed; lineality spanned by E2, E1, H"

    def test_k_positive_rays_are_ignored(self):
        rep = cone_theorem_audit(classes(S3, "E3", "-2H+3E1-E2"))
        # -2H+3E1-E2 pairs positively with K and is skipped
        assert rep.passed
        assert len(rep.entries) == 1

    def test_allowed_taxonomies_imply_genus_and_pairing(self):
        """Oracle: an entry passes exactly when the earlier three-part test
        passes, which also required genus 0 and -3 <= K.r < 0, on the
        catalog cones of the cone-theorem-audit check, the minimal ruled
        cones, the line on the plane and the seeded 3H-E1."""
        generator_sets = [e.configuration.generators() for e in catalog_cp2_3() + catalog_cp2_2()]
        for s in (trivial_ruled(1), trivial_ruled(2), nontrivial_ruled(1)):
            generator_sets += [[U(s) - n * T(s), T(s)] for n in (1, 2)]
        generator_sets += [[H(rational_surface(0))], [parse_class("3H-E1", rational_surface(1))]]
        taxonomies = Counter()
        for gens in generator_sets:
            kc = canonical_class(gens[0].surface)
            for ray, taxonomy in cone_theorem_audit(gens).entries:
                old_ok = (
                    taxonomy != "violation"
                    and adjunction_genus(ray) == 0
                    and -3 <= pair(kc, ray) < 0
                )
                assert (taxonomy != "violation") == old_ok, (ray, taxonomy)
                taxonomies[taxonomy] += 1
        assert set(taxonomies) == {"minus_one", "fiber", "line", "violation"}


class TestNefThreshold:
    def test_plane(self):
        s0 = rational_surface(0)
        assert nef_threshold(H(s0), [H(s0)]) == Fraction(1, 3)

    def test_one_blowup(self):
        s1 = rational_surface(1)
        got = nef_threshold(parse_class("2H-E1", s1), classes(s1, "E1", "H-E1"))
        assert got == 1  # max(1/1, 1/2)

    def test_two_blowups(self):
        got = nef_threshold(parse_class("3H-E1-E2", S2), classes(S2, "E1", "E2", "H-E1-E2"))
        assert got == 1

    def test_errors(self):
        with pytest.raises(ConeError):
            nef_threshold(H(S2), [])
        with pytest.raises(ConeError):
            # the only curve pairs non-negatively with K
            nef_threshold(parse_class("H-E1", S2), [parse_class("-H+2E1", S2)])
        with pytest.raises(ConeError):
            nef_threshold(H(S2), [parse_class("-H+2E1", S2)])  # omega pairing <= 0

    def test_denominator_bound_survives_python_O(self):
        # the paper's bound of at most 3 is a raised error, not an assert,
        # so an optimized interpreter still rejects 2/5 on one blowup
        code = (
            "from conelab.cones import ConeError, nef_threshold\n"
            "from conelab.lattice import parse_class, rational_surface\n"
            "s = rational_surface(1)\n"
            "assert False, 'asserts run'\n"
            "try:\n"
            "    print(nef_threshold(parse_class('H', s), [parse_class('2H-E1', s)]))\n"
            "except ConeError as err:\n"
            "    print('raised:', err)\n"
        )
        src = str(Path(conelab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "raised: threshold denominator 5 exceeds 3\n"

    def test_denominator_bound_on_random_integral_classes(self):
        rng = random.Random(12)
        corners = [c.ray for c in k_symplectic_cone(S2).corners]
        curves = classes(S2, "E1", "E2", "H-E1-E2")
        for _ in range(50):
            omega = sum((rng.randint(1, 15) * c for c in corners[1:]), rng.randint(1, 15) * corners[0])
            t0 = nef_threshold(omega, curves)
            assert t0.denominator <= 3
