"""Acceptance gate: every reproduction check must pass at its stated
tolerance (all tolerances are exact equality; everything is rational).

Run with -s to see one PASS/FAIL line per criterion; the same checks back
the ``conelab verify-paper`` command.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from conelab import cones, cremona, inflation, swcert, verify
from conelab.lattice import TRIVIAL_RULED, E, H, canonical_class, divisor, pair, rational_surface


CRITERIA = [(f"{i:02d}", fn) for i, fn in enumerate(verify.ALL_CHECKS, start=1)]


@pytest.mark.parametrize("number,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(number, check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number} {result.name}: {result.details}")
    assert result.passed, f"criterion {number} ({result.name}): {result.details}"


def test_every_criterion_is_covered():
    defined = {fn for name, fn in vars(verify).items() if name.startswith("check_")}
    assert defined == set(verify.ALL_CHECKS)
    assert len(CRITERIA) == 17
    for suite in verify.SUITES.values():
        assert len(set(suite)) == len(suite) and set(suite) <= defined


@pytest.mark.parametrize(
    "check,module,attr,fake,name",
    [
        ("check_achieve_all_rays", inflation, "achieve_all_rays", lambda cfg, start: {},
         "achieve-all-rays-catalog"),
        ("check_nef_threshold", cones, "nef_threshold", lambda omega, curves: Fraction(1, 5),
         "nef-threshold"),
        ("check_sw_certificates", swcert, "anti_canonical_eight_point_audit", lambda: False,
         "sw-certificates"),
    ],
    ids=["achieve-all-rays", "nef-threshold", "sw-certificates"],
)
def test_a_failing_check_keeps_its_name_and_reference(monkeypatch, check, module, attr, fake, name):
    """An early failure reports the name verify-paper shows when the check
    passes, and its reference."""
    monkeypatch.setattr(module, attr, fake)
    result = getattr(verify, check)()
    assert not result.passed
    assert result.name == name and result.reference


@pytest.mark.parametrize("broken", ["square", "k_pairing", "involution"])
def test_the_cremona_check_catches_a_broken_reflection(monkeypatch, broken):
    """Check 14 tests every sampled reflection for square, K-pairing and
    involution: adding H breaks the square, negating every E-coefficient is
    an involution that keeps the square but not K, and ordering the image
    keeps form and K but is no involution."""
    reflect = cremona.reflect
    fakes = {
        "square": lambda x, triple: x + H(x.surface),
        "k_pairing": lambda x, triple: divisor(x.surface, [x.coeffs[0]] + [-c for c in x.coeffs[1:]]),
        "involution": lambda x, triple: cremona.order(reflect(x, triple)),
    }
    monkeypatch.setattr(cremona, "reflect", fakes[broken])
    result = verify.check_cremona()
    assert not result.passed
    assert result.details.endswith("preserve invariants: False")


@pytest.mark.parametrize("answer", [
    cremona.EquivalenceOutcome("distinct_by_invariant", "chamber"),
    cremona.EquivalenceOutcome("equivalent"),
], ids=["distinct", "equivalent"])
def test_the_cremona_check_decides_equivalence(monkeypatch, answer):
    """Check 14 asks cremona_equivalent for one pair it must call equivalent
    (2H-E1-E2-E3 and H) and one it must set apart in the chamber (E1-E2 and
    H-E1-E2-E3), so one fixed answer fails it."""
    monkeypatch.setattr(cremona, "cremona_equivalent", lambda x, y: answer)
    result = verify.check_cremona()
    assert not result.passed
    assert result.details.startswith("Cremona equivalence undecided; ")


def test_the_sw_check_recomputes_each_magnitude(monkeypatch):
    """Check 15 recomputes |1 + e.T|^h itself, so a wrong exponent in
    wall_crossing_magnitude fails it although every certificate, checked
    against that same function, revalidates."""
    magnitude = swcert.wall_crossing_magnitude

    def one_power_too_many(e):
        return magnitude(e) if e.surface.is_rational else magnitude(e) * abs(1 + e.coeffs[0])

    monkeypatch.setattr(swcert, "wall_crossing_magnitude", one_power_too_many)
    result = verify.check_sw_certificates()
    assert not result.passed
    assert result.details.startswith("wrong wall-crossing magnitude for ")


def test_check_9_computes_each_dual_once(monkeypatch):
    """42 catalog configurations and the round-boundary control: 43 duals,
    though check 9 and achieve_all_rays each ask for the catalog's."""
    calls = []
    rays = cones.extreme_rays_h
    monkeypatch.setattr(cones, "extreme_rays_h", lambda *a: calls.append(a) or rays(*a))
    assert verify.check_achieve_all_rays().passed
    assert len(calls) == 43


def test_the_cremona_samples_are_the_draws_of_one_call_per_class():
    """Reference: check 14 draws the coefficients of all classes of one k in
    one call, which reads the random stream as one call per class does."""
    rng = random.Random(5)
    counts = Counter(rng.choices(range(3, 9), k=10_000))
    want = []
    for k in range(3, 9):
        for triple in rng.choices(list(permutations(range(1, k + 1), 3)), k=counts[k]):
            want.append((k, tuple(rng.choices(range(-9, 10), k=k + 1)), triple))
    got = [(x.surface.k, x.coeffs, triple) for x, triple in verify._reflection_samples()]
    assert got == want


def test_check_9_reports_a_round_boundary_through_the_wrapper(monkeypatch):
    """A catalog dual that is not polytopic fails check 9 with the
    RoundBoundaryError that achieve_all_rays raises, as the check wrapper
    reports every ValueError."""
    s2 = rational_surface(2)

    def round_boundary(cfg, start):
        raise inflation.RoundBoundaryError([E(s2, 1) - E(s2, 2)])

    monkeypatch.setattr(inflation, "achieve_all_rays", round_boundary)
    result = verify.check_achieve_all_rays()
    assert result.passed is False
    assert result.details == (
        "raised RoundBoundaryError: positive dual has round boundary; "
        "negative-square directions E1-E2"
    )


def test_the_ruled_samples_are_k_negative_by_their_draw():
    """Check 15 decomposes every sample without testing K.C: all 120 are
    K-negative, and K.C is the formula the _ruled_samples docstring states
    for each family (U + bT - 2E1 on the blowup; 2(a(h - 1) - b) on a
    trivial bundle, -2b at h = 1; a(2h - 3) - 2b on a nontrivial one)."""
    samples = verify._ruled_samples()
    assert len(samples) == 120
    for c in samples:
        s, (a, b) = c.surface, c.coeffs[:2]
        if s.k:
            stated = 2 - 2 * b
        elif s.kind == TRIVIAL_RULED:
            stated = 2 * (a * (s.h - 1) - b)
        else:
            stated = a * (2 * s.h - 3) - 2 * b
        assert pair(canonical_class(s), c) == stated < 0, c
