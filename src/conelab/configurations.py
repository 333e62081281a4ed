"""Negative-curve configurations: validity, combinatorial blow-down, the
catalog of three-point blowups of the plane, and ruled-surface data.

A configuration is the combinatorial shadow of the negative curves of a
tamed almost complex structure: the surface, the classes of the negative
curves, and their pairwise pairings.  Validity asks three things: the
classes come from the certified classification and meet non-negatively;
some rational class of positive square pairs positively with everything in
sight; and every -1 sphere class decomposes non-negatively into configured
curves and certified classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from . import exactlp
from .cones import RationalCone, dual_cone, ray_sum
from .enumeration import family_instances, sphere_classes
from .lattice import (
    DivisorClass,
    SurfaceModel,
    T,
    TRIVIAL_RULED,
    U,
    adjunction_genus,
    canonical_class,
    divisor,
    E,
    H,
    pair,
    parse_class_list,
    rational_surface,
    sorted_classes,
)


class ConfigurationError(ValueError):
    pass


@dataclass(frozen=True, repr=False)
class NegativeConfiguration:
    """A surface with a finite set of negative classes and optional
    square-zero curve-cone generators (the ruled fiber, for instance); both
    are distinct integral classes, kept as sorted tuples."""

    surface: SurfaceModel
    curves: Sequence[DivisorClass]
    extra_square_zero: Sequence[DivisorClass] = ()

    def __post_init__(self):
        surface = self.surface
        object.__setattr__(self, "curves", tuple(sorted_classes(self.curves)))
        object.__setattr__(self, "extra_square_zero", tuple(sorted_classes(self.extra_square_zero)))
        seen = set()
        for c in self.curves:
            if c.surface != surface:
                raise ConfigurationError("curve on the wrong surface")
            if not c.is_integral():
                raise ConfigurationError(f"curve {c} is not integral")
            if c.square() >= 0:
                raise ConfigurationError(f"curve {c} has non-negative square")
            if adjunction_genus(c) < 0:
                raise ConfigurationError(f"curve {c} has negative genus")
            if c in seen:
                raise ConfigurationError(f"duplicate curve {c}")
            seen.add(c)
        for c in self.extra_square_zero:
            if c.surface != surface or c.square() != 0 or c.is_zero():
                raise ConfigurationError(f"{c} is not a square-zero class here")
            if not c.is_integral():
                raise ConfigurationError(f"square-zero class {c} is not integral")
            if c in seen:
                raise ConfigurationError(f"duplicate square-zero class {c}")
            seen.add(c)
        for i, a in enumerate(self.curves):
            for b in self.curves[i + 1 :]:
                if pair(a, b) < 0:
                    raise ConfigurationError(
                        f"distinct curves {a} and {b} pair negatively"
                    )

    def generators(self) -> list[DivisorClass]:
        return list(self.curves) + list(self.extra_square_zero)

    @cached_property
    def dual(self) -> RationalCone:
        """The dual of the curve cone, built on the first read only."""
        return dual_cone(self.generators())

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.curves)
        return f"NegativeConfiguration({self.surface}: {body})"

    def to_json(self) -> dict:
        d = {
            "surface": self.surface.to_json(),
            "curves": [str(c) for c in self.curves],
        }
        if self.extra_square_zero:
            d["extra_square_zero"] = [str(c) for c in self.extra_square_zero]
        return d

    @staticmethod
    def from_json(d: dict) -> "NegativeConfiguration":
        surface = SurfaceModel.from_json(d["surface"])
        curves = parse_class_list(d["curves"], surface)
        extra = parse_class_list(d.get("extra_square_zero", []), surface)
        return NegativeConfiguration(surface, curves, extra)


# ---------------------------------------------------------------------------
# classification membership and certified SW classes
# ---------------------------------------------------------------------------


def is_classified_negative_class(c: DivisorClass) -> bool:
    """Membership in the certified classification of negative sphere classes.

    Positive H-degree: genus 0 and negative square (the six-family list).
    These force every subtracted coefficient b_i >= 0 for k <= 8: genus 0
    gives sum b_i(b_i - 1) = (a - 1)(a - 2) and a negative square gives
    sum b_i >= 3a - 1, so a b_1 <= -1 leaves the other at most seven a sum
    S >= 3a with S^2/7 - S <= a^2 - 3a, which fails for a >= 1
    (Cauchy-Schwarz).  Non-positive H-degree: the anchored shape
    -nH + (n+1)Ei - further E's; an entry b_i = a - 1 uses the whole genus
    budget (a - 1)(a - 2) > 0, so it is the only one and every other b_j is
    0 or 1.  Minimal ruled: U - nT.
    """
    surface = c.surface
    if not c.is_integral() or c.square() >= 0:
        return False
    if not surface.is_rational:
        if surface.k != 0:
            return False
        u, t = c.coeffs[0], c.coeffs[1]
        return u == 1 and t < 0
    if surface.k > 8 or adjunction_genus(c) != 0:
        return False
    a = c.coeffs[0]
    return a >= 1 or a - 1 in c.b_vector()


def certified_sw_families(surface: SurfaceModel) -> tuple[DivisorClass, ...]:
    """The certified classes of a blowup of the plane by family, each as its
    representative: H, the -1 classes and the square-zero sphere classes."""
    if surface.k > 8:
        raise ConfigurationError("certified sets are finite only for k <= 8")
    return (H(surface), *sphere_classes(surface, n_bound=0, square=-1), *sphere_classes(surface, square=0))


@cache
def certified_sw_classes(surface: SurfaceModel) -> tuple[DivisorClass, ...]:
    """Classes carrying a wall-crossing nonvanishing certificate, used as
    known curve-cone members by the validity checks; computed once per
    surface."""
    if surface.is_rational:
        return tuple(sorted_classes(family_instances(certified_sw_families(surface))))
    if surface.k != 0:
        raise ConfigurationError("certified ruled sets cover minimal surfaces")
    h = surface.h
    a = h // 2 if surface.kind == TRIVIAL_RULED else (h - 1) // 2
    section = U(surface) + a * T(surface)
    return tuple(sorted_classes({T(surface), section}))


# ---------------------------------------------------------------------------
# the three validity properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    passed: bool
    details: str


@dataclass(frozen=True)
class ValidationReport:
    p1: PropertyResult
    p2: PropertyResult
    p3: PropertyResult
    witness: DivisorClass | None
    decompositions: tuple[tuple[DivisorClass, tuple[int | Fraction, ...]], ...]

    @property
    def passed(self) -> bool:
        return self.p1.passed and self.p2.passed and self.p3.passed


def validate_configuration(cfg: NegativeConfiguration) -> ValidationReport:
    surface = cfg.surface
    # P1: classification membership; NegativeConfiguration checked the pairings
    bad = [c for c in cfg.curves if not is_classified_negative_class(c)]
    p1 = PropertyResult(
        not bad,
        "all curves classified" if not bad else "unclassified: " + ", ".join(map(str, bad)),
    )

    certified = certified_sw_classes(surface)
    gens = cfg.generators()
    known = gens + list(certified)

    # P2: an explicit rational class of positive square pairing positively
    # with the curves and with every certified class; the certified classes
    # join the curves when there are none or they leave a lineality
    dual = cfg.dual if gens else None
    if dual is None or dual.lineality:
        dual = dual_cone(known)
    witness = ray_sum(dual)
    if witness is None:
        p2 = PropertyResult(False, "dual cone has no extremal rays")
    else:
        failures = [c for c in known if pair(witness, c) <= 0]
        if witness.square() <= 0:
            p2 = PropertyResult(False, f"witness {witness} has square {witness.square()}")
        elif failures:
            p2 = PropertyResult(
                False, "witness not positive on: " + ", ".join(map(str, failures))
            )
        else:
            p2 = PropertyResult(True, f"witness {witness}")

    # P3: every -1 sphere class is a non-negative combination of the curves
    # and the other certified classes
    decomps = []
    failed = []
    columns = [g.coeffs for g in known]
    # the -1 classes are the square -1 slice of the certified ones; each
    # target's own column is left out
    for i, target in enumerate(certified, start=len(gens)):
        if target.square() != -1:
            continue
        coeffs = exactlp.nonnegative_combination(columns[:i] + columns[i + 1 :], target.coeffs)
        if coeffs is None:
            failed.append(target)
        else:
            decomps.append((target, tuple(coeffs[: len(gens)])))
    p3 = PropertyResult(
        not failed,
        "all -1 classes decompose"
        if not failed
        else "no decomposition for: " + ", ".join(map(str, failed)),
    )
    return ValidationReport(p1, p2, p3, witness, tuple(decomps))


# ---------------------------------------------------------------------------
# combinatorial blow-down
# ---------------------------------------------------------------------------


def blow_down(
    cfg: NegativeConfiguration, at: DivisorClass
) -> tuple[NegativeConfiguration, tuple[DivisorClass, ...]]:
    """Remove a -1 basis class E from the configuration, replacing every
    other curve and square-zero generator C by C + (C.E) E and deleting the
    E coordinate; returns the new configuration and the dropped classes.

    The replaced classes are orthogonal to E, so the deletion is exact; a
    curve whose replacement has non-negative square leaves the configuration
    and is dropped, returned as it was.  A square-zero generator stays one
    when orthogonal to E; otherwise its replacement has square (C.E)^2 > 0,
    and it is dropped too.  New-lattice genus never drops:
    it is preserved exactly when C.E is 0 or 1 and grows otherwise.  These
    laws are checked here, for every class; a broken one raises
    ConfigurationError.
    """
    surface = cfg.surface
    if not surface.is_rational:
        raise ConfigurationError("blow-down implemented for rational surfaces")
    if at not in cfg.curves:
        raise ConfigurationError(f"{at} is not a curve of the configuration")
    if at.square() != -1 or adjunction_genus(at) != 0:
        raise ConfigurationError(f"{at} is not a -1 sphere class")
    # the coefficient position of E_index is index, as H sits at 0
    index = next((i for i in range(1, surface.k + 1) if at == E(surface, i)), None)
    if index is None:
        raise ConfigurationError(
            f"{at} is not a basis class; apply a Cremona change of basis first"
        )
    small = rational_surface(surface.k - 1)
    kc, kc_small = canonical_class(surface), canonical_class(small)
    kept, kept_square_zero, dropped = [], [], []
    for c in (*cfg.curves, *cfg.extra_square_zero):
        if c == at:
            continue
        m = pair(c, at)
        transformed = c + m * at
        g_before = adjunction_genus(c)
        reduced = divisor(small, [x for i, x in enumerate(transformed.coeffs) if i != index])
        g_after = adjunction_genus(reduced)
        broken = [law for law, holds in (
            ("orthogonality to E", pair(transformed, at) == 0),
            ("square", reduced.square() == c.square() + m * m),
            ("K-pairing", pair(kc_small, reduced) == pair(kc, c) - m),
            ("genus monotonicity", g_after >= g_before),
            ("genus equality iff C.E in {0, 1}", (g_after == g_before) == (m in (0, 1))),
        ) if not holds]
        if broken:
            raise ConfigurationError(f"blowing down {at} breaks the {broken[0]} law for {c}")
        if reduced.square() < 0:
            kept.append(reduced)
        elif m == 0:
            kept_square_zero.append(reduced)
        else:
            dropped.append(c)
    return NegativeConfiguration(small, kept, kept_square_zero), tuple(dropped)


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    case: int
    variant: int
    n: int
    configuration: NegativeConfiguration

    def label(self) -> str:
        return f"case {self.case}{'ab'[self.variant - 1]} n={self.n}"


def _negative_section(surface: SurfaceModel, n: int) -> DivisorClass:
    """(n+1)E1 - nH, the negative curve inherited from an odd Hirzebruch
    surface; for n = 0 this is just E1."""
    return (n + 1) * E(surface, 1) - n * H(surface)


def catalog_cp2_1(n_values: Sequence[int] = (0, 1, 2)) -> list[CatalogEntry]:
    """One blowup of the plane: the single negative curve (n+1)E1 - nH."""
    surface = rational_surface(1)
    return [
        CatalogEntry(1, 1, n, NegativeConfiguration(surface, [_negative_section(surface, n)]))
        for n in n_values
    ]


def catalog_cp2_2(n_values: Sequence[int] = (0, 1, 2)) -> list[CatalogEntry]:
    """Two blowups: blow up a point on the negative curve (variant 1) or a
    generic point (variant 2)."""
    surface = rational_surface(2)
    e2 = E(surface, 2)
    line = H(surface) - E(surface, 1) - E(surface, 2)
    out = []
    for n in n_values:
        a = _negative_section(surface, n)
        out.append(
            CatalogEntry(1, 1, n, NegativeConfiguration(surface, [e2, line, a - e2]))
        )
        out.append(
            CatalogEntry(1, 2, n, NegativeConfiguration(surface, [e2, line, a]))
        )
    return out


def catalog_cp2_3(n_values: Sequence[int] = (0, 1, 2)) -> list[CatalogEntry]:
    """Three blowups of the plane: all complex negative-curve configurations,
    indexed by the position of the third blown-up point relative to the
    negative curves of the two-point configuration."""
    surface = rational_surface(3)
    h = H(surface)
    e1, e2, e3 = (E(surface, i) for i in (1, 2, 3))
    l12, l13, l23 = h - e1 - e2, h - e1 - e3, h - e2 - e3
    l123 = h - e1 - e2 - e3
    entries = []
    for n in n_values:
        a = _negative_section(surface, n)
        cases: list[tuple[int, int, list[DivisorClass]]] = [
            (1, 1, [e3, e2, l12, l13, a - e2]),
            (1, 2, [e3, e2, l12, l13] + ([l23] if n == 0 else []) + [a]),
            (2, 1, [e3, e2 - e3, l12, a - e2]),
            # for n = 0 the line through the second point in the direction of
            # the third stays irreducible, exactly as in case 1
            (2, 2, [e3, e2 - e3, l12] + ([l23] if n == 0 else []) + [a]),
            (3, 1, [e3, e2, l123, a - e2]),
            (3, 2, [e3, e2, l123, a]),
            (4, 1, [e3, e2, l12, l13, a - e2 - e3]),
            (4, 2, [e3, e2, l12, l13, a - e3]),
            (5, 1, [e3, e2, l123, a - e3]),
            (6, 1, [e3, e2 - e3, l12, a - e2 - e3]),
            (7, 1, [e3, e2 - e3, l123, a - e2]),
            (7, 2, [e3, e2 - e3, l123, a]),
        ]
        for case, variant, curves in cases:
            entries.append(
                CatalogEntry(case, variant, n, NegativeConfiguration(surface, curves))
            )
    return entries


# ---------------------------------------------------------------------------
# -1 curve bookkeeping and constructions
# ---------------------------------------------------------------------------


def count_minus_one(cfg: NegativeConfiguration) -> list[DivisorClass]:
    """The -1 sphere classes among the curves."""
    return [c for c in cfg.curves if c.square() == -1 and adjunction_genus(c) == 0]


def disjoint_minus_one_configuration(k: int, l: int) -> NegativeConfiguration:
    """A configuration on k blowups with exactly l mutually disjoint -1
    sphere classes: a line through l points, then a chain of infinitely
    near points on the last one."""
    if k < 3 or not 1 <= l <= k:
        raise ConfigurationError("need k >= 3 and 1 <= l <= k")
    surface = rational_surface(k)
    curves = [H(surface) - sum((E(surface, i) for i in range(2, k + 1)), E(surface, 1))]
    curves += [E(surface, i) for i in range(1, l)]
    curves += [E(surface, i) - E(surface, i + 1) for i in range(l, k)]
    curves += [E(surface, k)]
    return NegativeConfiguration(surface, curves)


RULED_BOUND = 8


def ruled_negative_classes(surface: SurfaceModel) -> list[DivisorClass]:
    """All candidate negative classes aU + bT on a minimal ruled surface
    with 0 <= a <= RULED_BOUND and |b| <= RULED_BOUND: negative square,
    non-negative fiber degree, and genus at least that of a degree-a cover
    of the base.  The survivors are exactly U - nT for n >= 1."""
    if surface.is_rational or surface.k != 0:
        raise ConfigurationError("minimal ruled surfaces only")
    h = surface.h
    u, t = U(surface), T(surface)
    out = []
    for a in range(0, RULED_BOUND + 1):
        for b in range(-RULED_BOUND, RULED_BOUND + 1):
            c = a * u + b * t
            if c.square() >= 0:
                continue
            if 2 * adjunction_genus(c) - 2 < a * (2 * h - 2):
                continue
            out.append(c)
    return sorted_classes(out)
