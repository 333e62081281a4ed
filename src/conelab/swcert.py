"""Wall-crossing nonvanishing certificates.

On a surface with b+ = 1, a class e with non-negative expected dimension
whose complementary class K - e is killed by a positive-square witness has
invariant of magnitude 1 (rational case) or |1 + e.T|^h (irrationally
ruled).  A certificate records exactly those three facts; the absence of a
certificate never claims vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .configurations import certified_sw_classes
from .lattice import (
    DivisorClass,
    E,
    H,
    T,
    adjunction_genus,
    canonical_class,
    divisor,
    pair,
    rational_surface,
    sw_dimension,
)


class CertificateError(ValueError):
    pass


def wall_crossing_magnitude(e: DivisorClass) -> int:
    """|SW+ - SW-| for the class e: 1 on rational surfaces, |1 + e.T|^h on
    irrationally ruled ones."""
    surface = e.surface
    if surface.is_rational:
        return 1
    a = pair(e, T(surface))
    if a.denominator != 1:
        raise CertificateError("wall crossing needs an integral fiber degree")
    return abs(1 + int(a)) ** surface.h


@dataclass(frozen=True)
class SWCertificate:
    cls: DivisorClass
    dimension: Fraction
    witness: DivisorClass
    magnitude: int

    def revalidate(self) -> bool:
        kc = canonical_class(self.cls.surface)
        return (
            self.dimension == sw_dimension(self.cls)
            and self.dimension >= 0
            and self.witness.square() >= 0
            and pair(kc - self.cls, self.witness) < 0
            and self.magnitude == wall_crossing_magnitude(self.cls)
            and self.magnitude > 0
        )


@dataclass(frozen=True)
class NoCertificate:
    cls: DivisorClass
    reason: str


def sw_certificate(
    e: DivisorClass, witness_pool: Sequence[DivisorClass] | None = None
) -> SWCertificate | NoCertificate:
    """Certify nonvanishing of the invariant of e when possible.

    Needs dimension >= 0 and a pool member W of non-negative square with
    (K - e).W < 0; the default pool is {H} on rational surfaces and {T} on
    ruled ones."""
    surface = e.surface
    if witness_pool is None:
        witness_pool = [H(surface) if surface.is_rational else T(surface)]
    dim = sw_dimension(e)
    if dim < 0:
        return NoCertificate(e, f"dimension {dim} negative")
    kc = canonical_class(surface)
    for w in witness_pool:
        if w.square() >= 0 and pair(kc - e, w) < 0:
            return SWCertificate(e, dim, w, wall_crossing_magnitude(e))
    return NoCertificate(e, "no vanishing witness in the pool")


# ---------------------------------------------------------------------------
# non-extremality witnesses on irrational ruled surfaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """scale * C = sum of the certified summands."""

    cls: DivisorClass
    scale: int
    summands: tuple[tuple[DivisorClass, SWCertificate], ...]

    def revalidate(self) -> bool:
        total = self.summands[0][0]
        for s, _ in self.summands[1:]:
            total = total + s
        return (
            total == self.scale * self.cls
            and all(cert.revalidate() for _, cert in self.summands)
            and len(self.summands) >= 2
        )


@dataclass(frozen=True)
class ExtremalReport:
    cls: DivisorClass
    reason: str


def _is_allowed_extremal(c: DivisorClass) -> str | None:
    surface = c.surface
    if c == T(surface):
        return "fiber class"
    for i in range(1, surface.k + 1):
        if c == E(surface, i):
            return "exceptional class"
        if c == T(surface) - E(surface, i):
            return "fiber minus exceptional class"
    return None


def non_extremal_witness(c: DivisorClass) -> Decomposition | ExtremalReport:
    """Split a K-negative class on an irrational ruled surface into two
    non-proportional certified classes, eliminating it as an extremal ray.

    Fiber degree a > 0 splits off one fiber directly when the base genus
    exceeds one or some blowup multiplicity exceeds a; over a torus base a
    multiple l C - T is certified instead, with the smallest l > 2a whose
    dimension is positive."""
    surface = c.surface
    if not surface.is_ruled:
        raise CertificateError("non-extremality witnesses cover ruled surfaces")
    if not c.is_integral():
        raise CertificateError("integral classes only")
    kc = canonical_class(surface)
    if pair(kc, c) >= 0:
        raise CertificateError(f"K.C = {pair(kc, c)} is not negative")
    reason = _is_allowed_extremal(c)
    if reason is not None:
        return ExtremalReport(c, f"extremal, no witness expected: {reason}")
    fiber = T(surface)
    a = pair(c, fiber)
    if a <= 0:
        raise CertificateError("fiber degree must be positive for the case split")
    multiplicities = [(-x, i) for i, x in enumerate(c.e_coeffs(), start=1)]
    big = max(multiplicities, default=(0, 0))
    if surface.h > 1:
        parts = [c - fiber, fiber]
        scale = 1
    elif big[0] > a:
        # torus base, a blowup multiplicity exceeding the fiber degree:
        # split off T - Ei instead of a bare fiber
        ei = E(surface, big[1])
        parts = [c - fiber + ei, fiber - ei]
        scale = 1
    else:
        window = range(2 * a + 1, 2 * a + 11)
        scale = next((l for l in window if sw_dimension(l * c - fiber) > 0), None)
        if scale is None:
            raise CertificateError("no certified multiple found in the scan window")
        parts = [scale * c - fiber, fiber]
    certs = []
    for p in parts:
        cert = sw_certificate(p, [fiber, fiber - E(surface, big[1])] if surface.k else [fiber])
        if isinstance(cert, NoCertificate):
            raise CertificateError(f"summand {p} not certified: {cert.reason}")
        certs.append((p, cert))
    dec = Decomposition(c, scale, tuple(certs))
    if not dec.revalidate():
        raise CertificateError(f"the decomposition of {c} does not revalidate")
    return dec


# ---------------------------------------------------------------------------
# the eight-point blowup audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AntiCanonicalAudit:
    square: Fraction
    summand_certificates: tuple[SWCertificate, ...]
    integral_obstruction: str

    @property
    def passed(self) -> bool:
        return (
            self.square == 1
            and all(c.revalidate() for c in self.summand_certificates)
            and bool(self.integral_obstruction)
        )


def anti_canonical_eight_point_audit() -> AntiCanonicalAudit:
    """On the eight-point blowup, -K has square one and splits rationally as
    (6H - 3E1 - 2E2 - ... - 2E8)/2 + E1/2 with both directions certified,
    while no integral splitting into two certified classes can exist: every
    certified class pairs at least 1 with -K, so two positive integer
    multiples would force (-K)^2 >= 2."""
    surface = rational_surface(8)
    kc = canonical_class(surface)
    anti = -1 * kc
    six = divisor(surface, [6, -3, -2, -2, -2, -2, -2, -2, -2])
    e1 = E(surface, 1)
    if Fraction(1, 2) * six + Fraction(1, 2) * e1 != anti:
        raise CertificateError(f"({six} + {e1})/2 is not -K")
    if adjunction_genus(six) != 0 or adjunction_genus(e1) != 0:
        raise CertificateError(f"{six} or {e1} is not a sphere class")
    certs = []
    for part in (six, e1):
        cert = sw_certificate(part)
        if isinstance(cert, NoCertificate):
            raise CertificateError(f"summand {part} not certified: {cert.reason}")
        certs.append(cert)
    floor = min(pair(anti, p) for p in certified_sw_classes(surface))
    if anti.square() == 1 and floor >= 1:
        obstruction = (
            "every certified class pairs >= 1 with -K and (-K)^2 = 1 < 2, "
            "so m1 C1 + m2 C2 with integer m1, m2 >= 1 is impossible"
        )
    else:
        obstruction = ""
    return AntiCanonicalAudit(anti.square(), tuple(certs), obstruction)
