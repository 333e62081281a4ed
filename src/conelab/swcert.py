"""Wall-crossing nonvanishing certificates.

On a surface with b+ = 1, a class e with non-negative expected dimension
whose complementary class K - e is killed by a positive-square witness has
invariant of magnitude 1 (rational case) or |1 + e.T|^h (irrationally
ruled), which is 0 when e.T = -1.  A certificate records these facts and a
magnitude > 0; the absence of a certificate never claims vanishing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .configurations import certified_sw_families
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
    return abs(1 + pair(e, T(surface))) ** surface.h


@dataclass(frozen=True)
class SWCertificate:
    cls: DivisorClass
    dimension: int
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


def sw_certificate(e: DivisorClass) -> SWCertificate | str:
    """Certify nonvanishing of the invariant of the integral class e when
    possible, or say why not.

    Needs dimension >= 0, (K - e).W < 0 for the witness W (H on rational
    surfaces, T on ruled ones; both have square >= 0) and magnitude > 0."""
    if not e.is_integral():
        raise CertificateError("integral classes only")
    surface = e.surface
    dim = sw_dimension(e)
    if dim < 0:
        return f"dimension {dim} negative"
    w = H(surface) if surface.is_rational else T(surface)
    if pair(canonical_class(surface) - e, w) >= 0:
        return "no vanishing witness in the pool"
    cert = SWCertificate(e, dim, w, wall_crossing_magnitude(e))
    return cert if cert.magnitude > 0 else "wall-crossing magnitude 0"


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


def _is_allowed_extremal(c: DivisorClass) -> str | None:
    surface = c.surface
    if c == T(surface) and not surface.k:
        return "fiber class"
    for i in range(1, surface.k + 1):
        if c == E(surface, i):
            return "exceptional class"
        if c == T(surface) - E(surface, i):
            return "fiber minus exceptional class"
    return None


def non_extremal_witness(c: DivisorClass) -> Decomposition | str:
    """Split a K-negative class on an irrational ruled surface into two
    non-proportional certified classes, eliminating it as an extremal ray;
    a class that is extremal gets the reason instead.

    Fiber degree a > 0 splits off one fiber directly when the base genus
    exceeds one or some blowup multiplicity exceeds a; over a torus base a
    multiple l C - T is certified instead, with the smallest l > 2a whose
    dimension is positive."""
    surface = c.surface
    if surface.is_rational:
        raise CertificateError("non-extremality witnesses cover ruled surfaces")
    if not c.is_integral():
        raise CertificateError("integral classes only")
    kc = canonical_class(surface)
    if pair(kc, c) >= 0:
        raise CertificateError(f"K.C = {pair(kc, c)} is not negative")
    reason = _is_allowed_extremal(c)
    if reason is not None:
        return f"extremal, no witness expected: {reason}"
    fiber = T(surface)
    a = pair(c, fiber)
    if a <= 0:
        raise CertificateError("fiber degree must be positive for the case split")
    multiplicities = [(b, i) for i, b in enumerate(c.b_vector(), start=1)]
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
        cert = sw_certificate(p)
        if isinstance(cert, str):
            raise CertificateError(f"summand {p} not certified: {cert}")
        certs.append((p, cert))
    dec = Decomposition(c, scale, tuple(certs))
    if not dec.revalidate():
        raise CertificateError(f"the decomposition of {c} does not revalidate")
    return dec


# ---------------------------------------------------------------------------
# the eight-point blowup audit
# ---------------------------------------------------------------------------


def anti_canonical_eight_point_audit() -> bool:
    """On the eight-point blowup, -K has square one and splits rationally as
    (6H - 3E1 - 2E2 - ... - 2E8)/2 + E1/2 into two certified sphere
    classes, while no integral splitting into two certified classes can
    exist: every certified class pairs at least 1 with -K, so m1 C1 + m2 C2
    with integers m1, m2 >= 1 would force (-K)^2 >= 2 > 1.  Permuting
    E1..E8 fixes -K, so one representative per family stands for all 2,401
    certified classes.  True when each of these facts holds."""
    surface = rational_surface(8)
    anti = -1 * canonical_class(surface)
    six = divisor(surface, [6, -3, -2, -2, -2, -2, -2, -2, -2])
    e1 = E(surface, 1)
    return (
        anti.square() == 1
        and Fraction(1, 2) * six + Fraction(1, 2) * e1 == anti
        and all(
            adjunction_genus(part) == 0 and isinstance(sw_certificate(part), SWCertificate)
            for part in (six, e1)
        )
        and all(pair(anti, p) >= 1 for p in certified_sw_families(surface))
    )
