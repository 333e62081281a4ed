"""No-float guard: the functions that divide pairings return int or Fraction.

``pair`` returns an int on integral classes, so a division of two pairings
written ``p / q`` would give a float; each is written ``Fraction(p, q)``.
Random integral and fractional inputs go through every function with such a
division, and every number in the result is checked.  The exact simplex keeps
a stricter rule: a value is an int, and a Fraction only with a denominator."""

import dataclasses
import random
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings, strategies as st

from conelab.configurations import (
    NegativeConfiguration,
    catalog_cp2_1,
    catalog_cp2_2,
    catalog_cp2_3,
    disjoint_minus_one_configuration,
    validate_configuration,
)
from conelab.cones import dual_cone, nef_threshold, ray_sum
from conelab.enumeration import exceptional_classes, family_instances, sphere_classes
from conelab.exactlp import nonnegative_combination
from conelab.inflation import achieve_vertex, alternate_inflate, max_inflate
from conelab.lattice import (
    DivisorClass,
    adjunction_genus,
    divisor,
    pair,
    parse_class,
    rational_surface,
    sorted_classes,
)

S3 = rational_surface(3)
NEGATIVE = sorted_classes(family_instances(sphere_classes(S3, n_bound=2)))
# pairs with a common dual class of non-negative square, as alternate_inflate
# needs; opposite classes leave only a hyperplane as their dual
PAIRS = [
    (c1, c2)
    for c1, c2 in permutations(NEGATIVE, 2)
    if c1 != -c2 and pair(c1, c2) >= 0 and pair(c1, c2) ** 2 <= c1.square() * c2.square()
]
CURVES = [parse_class(t, S3) for t in ("E3", "E2-E3", "H-E1-E2-E3", "-H+2E1-E2")]
CURVE_DUAL_RAYS = dual_cone(CURVES).rays
# the K-symplectic cone of three blowups, the dual of the -1 classes
K_SYMPLECTIC = dual_cone(exceptional_classes(S3))
EXTREMAL = sorted_classes(exceptional_classes(S3)) + [parse_class("H-E1", S3)]
# every configuration of the k <= 3 catalogs, and the disjoint -1 curves at k = 3
CONFIGURATIONS = [
    e.configuration for catalog in (catalog_cp2_1, catalog_cp2_2, catalog_cp2_3) for e in catalog()
] + [disjoint_minus_one_configuration(3, l) for l in (1, 2, 3)]


def numbers_in(lo, hi, n):
    """Lists of n numbers in [lo, hi]: all int, or int and Fraction mixed, so
    that integral inputs are as common as fractional ones."""
    ints = st.integers(lo, hi)
    mixed = ints | st.fractions(lo, hi, max_denominator=5)
    return st.lists(ints, min_size=n, max_size=n) | st.lists(mixed, min_size=n, max_size=n)


classes = numbers_in(-6, 6, S3.rank).map(lambda c: divisor(S3, c))


def combination(weights, rays):
    return sum((w * r for w, r in zip(weights, rays)), 0 * rays[0])


def numbers(value):
    """Every number in a result: class coefficients, and the fields of
    dataclasses and tuples, recursively; flags are not numbers."""
    if isinstance(value, DivisorClass):
        yield from value.coeffs
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from numbers(getattr(value, field.name))
    elif isinstance(value, tuple):
        for v in value:
            yield from numbers(v)
    elif not isinstance(value, bool):
        yield value


def assert_exact(*results):
    for x in numbers(results):
        assert type(x) in (int, Fraction), f"{x!r} is a {type(x).__name__}"


def assert_int_unless_denominator(values):
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)


@settings(deadline=None, max_examples=100)
@given(classes, classes)
def test_pair_and_adjunction_genus(x, y):
    assert type(pair(x, x)) is int or not x.is_integral()
    assert_exact(pair(x, x), pair(x, y), pair(y, y), adjunction_genus(x), adjunction_genus(y))


@settings(deadline=None, max_examples=100)
@given(classes, st.sampled_from(NEGATIVE), numbers_in(1, 4, 1))
def test_max_inflate(a, c, scale):
    c = scale[0] * c
    assert_exact(max_inflate(a if pair(a, c) >= 0 else -a, c))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(PAIRS), numbers_in(1, 4, 3))
def test_alternate_inflate(curves, scales):
    c1, c2 = scales[0] * curves[0], scales[1] * curves[1]
    start, _ = max_inflate(scales[2] * ray_sum(dual_cone([c1, c2])), c1)
    assert_exact(alternate_inflate(start, c1, c2, iterations=4))


@settings(deadline=None, max_examples=60)
@given(numbers_in(1, 4, len(CURVE_DUAL_RAYS) + 1), st.sampled_from(CURVE_DUAL_RAYS))
def test_achieve_vertex(weights, ray):
    tight = [weights[-1] * c for c in CURVES if pair(c, ray) == 0]
    assert_exact(achieve_vertex(combination(weights, CURVE_DUAL_RAYS), tight))


@settings(deadline=None, max_examples=60)
@given(numbers_in(0, 4, len(K_SYMPLECTIC.rays) + 1))
def test_nef_threshold(weights):
    omega = ray_sum(K_SYMPLECTIC) + combination(weights, K_SYMPLECTIC.rays)
    assert_exact(nef_threshold(omega, [(1 + weights[-1]) * c for c in EXTREMAL]))


systems = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=1, max_size=6)
)


@settings(deadline=None, max_examples=100)
@given(systems, st.data())
def test_nonnegative_combination(columns, data):
    # a random target, or a non-negative combination of the columns
    m, n = len(columns[0]), len(columns)
    weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    feasible = [sum(w * c[i] for w, c in zip(weights, columns)) for i in range(m)]
    target = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m) | st.just(feasible))
    assert_int_unless_denominator(nonnegative_combination(columns, target) or ())


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(CONFIGURATIONS), st.integers(0, 2**32))
def test_validate_configuration_decompositions(cfg, seed):
    # the configuration with E1..Ek relabelled by a seeded permutation
    k = cfg.surface.k
    perm = random.Random(seed).sample(range(1, k + 1), k)
    curves = [divisor(cfg.surface, [c.coeffs[0]] + [c.coeffs[j] for j in perm]) for c in cfg.curves]
    report = validate_configuration(NegativeConfiguration(cfg.surface, curves))
    assert report.passed
    assert_int_unless_denominator(v for _, coeffs in report.decompositions for v in coeffs)
