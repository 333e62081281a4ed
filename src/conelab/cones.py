"""Exact rational polyhedral cones under the intersection pairing.

Cones are generated by divisor classes (V-representation) or cut out by
pairing inequalities pair(facet, .) >= 0 (H-representation).  Conversion in
both directions runs the double description method on primitive integer
vectors, with bitmask tight sets and the combinatorial adjacency test;
ranks in this package never exceed 10, so no effort is spent on sparse or
floating point shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .enumeration import exceptional_classes
from .lattice import (
    DivisorClass,
    SurfaceModel,
    T,
    adjunction_genus,
    canonical_class,
    divisor,
    E,
    gram_functional,
    H,
    is_forward,
    pair,
    sorted_classes,
)
from .linalg import IntVec, Vec


class ConeError(ValueError):
    pass


class NonPointedError(ConeError):
    """The cone contains a line; carries a basis of the lineality space."""

    def __init__(self, lineality: list[DivisorClass]):
        self.lineality = lineality
        super().__init__(
            "cone is not pointed; lineality spanned by "
            + ", ".join(str(v) for v in lineality)
        )


# ---------------------------------------------------------------------------
# double description core (euclidean functionals)
# ---------------------------------------------------------------------------


def _dd_pointed(ineqs: list[IntVec], dim: int) -> list[IntVec]:
    """Extreme rays of {t : a.t >= 0} for integer rows a spanning R^dim.

    Double description after Fukuda and Prodon (1996): each ray carries the
    bitmask of the inserted rows it is tight on, and a positive and a
    negative ray are adjacent when their common tight set has at least
    dim - 2 rows and no third ray is tight on all of it.
    """
    # one row reduction of [A^T | I]: its pivot columns are the first rows
    # that span, and row c of its identity block is column c of the inverse
    # of those rows, the start ray tight on every chosen row but the c-th
    m = len(ineqs)
    reduced, chosen = linalg.rref(
        [[a[r] for a in ineqs] + [int(r == c) for c in range(dim)] for r in range(dim)]
    )
    if chosen[-1] >= m:
        raise ConeError(f"the inequalities do not span a space of dimension {dim}")
    start = sum(1 << i for i in chosen)
    rays = [linalg.primitive(row[m:]) for row in reduced]
    tights = [start ^ (1 << i) for i in chosen]
    for idx, a in enumerate(ineqs):
        bit = 1 << idx
        if start & bit:
            continue
        vals = [sum(map(mul, a, r)) for r in rays]
        pos = [(p, vp) for p, vp in enumerate(vals) if vp > 0]
        neg = [(n, vn) for n, vn in enumerate(vals) if vn < 0]
        new_rays, new_tights = [], []
        for p, vp in pos:
            tp, rp = tights[p], rays[p]
            for n, vn in neg:
                common = tp & tights[n]
                if common.bit_count() < dim - 2 or not _adjacent(common, tights):
                    continue
                new_rays.append(linalg.primitive([vp * y - vn * x for x, y in zip(rp, rays[n])]))
                new_tights.append(common | bit)
        keep = [j for j, v in enumerate(vals) if v >= 0]
        rays = [rays[j] for j in keep] + new_rays
        tights = [tights[j] | bit if vals[j] == 0 else tights[j] for j in keep] + new_tights
    return rays


def _adjacent(common: int, tights: list[int]) -> bool:
    """True when exactly two tight sets (those of the pair) contain common."""
    found = 0
    for t in tights:
        if t & common == common:
            found += 1
            if found > 2:
                return False
    return True


def extreme_rays_h(ineqs: Sequence[Vec], dim: int) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of {x : a.x >= 0 for all a}, as
    primitive integer vectors.

    The rays are those of the cone meet the orthogonal complement of its
    lineality: the lineality enters the double description as equation rows
    v >= 0 and -v >= 0, and with them the rows span R^dim.
    """
    ineqs = [linalg.primitive(a) for a in ineqs if not linalg.is_zero(a)]
    lineality = [linalg.sign_normalized(linalg.primitive(v)) for v in linalg.nullspace(ineqs, dim)]
    rows = ineqs + lineality + [tuple(-x for x in v) for v in lineality]
    return _dd_pointed(rows, dim), lineality


# ---------------------------------------------------------------------------
# cones over a surface lattice
# ---------------------------------------------------------------------------


class RationalCone:
    """A polyhedral cone of divisor classes: cone(rays) + span(lineality),
    equal to {x : pair(x, f) >= 0 for all facets, pair(x, e) = 0 for all
    equations}.

    The rays are generators.  A cone built from facets computes them, as
    extreme rays with a lineality basis, when it is built; a cone built
    from rays keeps them as given, interior or opposite ones included, with
    no lineality (extremal_rays gives the minimal ones).  The facets of a
    cone built from rays are computed on first use.
    """

    def __init__(
        self,
        ambient: SurfaceModel,
        rays: Sequence[DivisorClass] | None = None,
        facets: Sequence[DivisorClass] | None = None,
        equations: Sequence[DivisorClass] = (),
    ):
        if rays is None and facets is None:
            raise ConeError("a cone needs rays or facets")
        self.ambient = ambient
        self._facets = None if facets is None else tuple(facets)
        self._equations = None if facets is None else tuple(equations)
        lineality: Sequence[DivisorClass] = ()
        if rays is None:
            ineqs = [gram_functional(f) for f in facets]
            for e in equations:
                q = gram_functional(e)
                ineqs += [q, tuple(-x for x in q)]
            rays, lineality = extreme_rays_h(ineqs, ambient.rank)
            rays = sorted_classes(divisor(ambient, r) for r in rays)
            lineality = sorted_classes(divisor(ambient, v) for v in lineality)
        self._rays = tuple(rays)
        self._lineality = tuple(lineality)

    # -- representations ---------------------------------------------------

    def rays(self) -> tuple[DivisorClass, ...]:
        return self._rays

    def lineality(self) -> tuple[DivisorClass, ...]:
        return self._lineality

    def facets(self) -> tuple[DivisorClass, ...]:
        if self._facets is None:
            self._compute_h_rep()
        return self._facets

    def equations(self) -> tuple[DivisorClass, ...]:
        if self._equations is None:
            self._compute_h_rep()
        return self._equations

    def _compute_h_rep(self):
        dual = dual_cone(self)
        self._facets = dual.rays()
        self._equations = dual.lineality()

    def __repr__(self) -> str:
        parts = ["rays " + ", ".join(str(r) for r in self._rays)]
        if self._facets is not None:
            parts.append("facets " + ", ".join(str(f) for f in self._facets))
        return f"RationalCone({'; '.join(parts)})"

    def to_json(self) -> dict:
        d: dict = {"surface": self.ambient.to_json(), "rays": [str(r) for r in self._rays]}
        if self._facets is not None:
            d["facets"] = [str(f) for f in self._facets]
        return d


def _normalized_generators(gens: Iterable[DivisorClass]) -> tuple[SurfaceModel, list[DivisorClass]]:
    gens = list(gens)
    if not gens:
        raise ConeError("empty generator list")
    surface = gens[0].surface
    out: list[DivisorClass] = []
    for g in gens:
        if g.surface != surface:
            raise ConeError("generators on mixed surfaces")
        if g.is_zero():
            continue
        p = g.primitive()
        if p not in out:
            out.append(p)
    if not out:
        raise ConeError("all generators are zero")
    return surface, sorted_classes(out)


def cone_from_rays(rays: Iterable[DivisorClass]) -> RationalCone:
    surface, gens = _normalized_generators(rays)
    return RationalCone(surface, rays=gens)


def cone_from_facets(facets: Iterable[DivisorClass]) -> RationalCone:
    surface, gens = _normalized_generators(facets)
    return RationalCone(surface, facets=gens)


def dual_cone(cone: RationalCone) -> RationalCone:
    """The pairing-dual {y : pair(y, r) >= 0 on all generators}: the cone cut
    out by the rays as facets and the lineality as equations."""
    return RationalCone(cone.ambient, facets=cone.rays(), equations=cone.lineality())


def ray_sum(cone: RationalCone) -> DivisorClass | None:
    """The sum of the extremal rays, a point in the relative interior of a
    pointed cone; None for a cone without rays."""
    rays = cone.rays()
    return sum(rays[1:], rays[0]) if rays else None


def extremal_rays(cone: RationalCone) -> list[DivisorClass]:
    """Minimal generating rays: the rays of the double dual, which drops
    interior generators; raises NonPointedError on its lineality."""
    hull = dual_cone(dual_cone(cone))
    if hull.lineality():
        raise NonPointedError(list(hull.lineality()))
    return list(hull.rays())


@dataclass(frozen=True)
class Membership:
    kind: str  # "interior" | "boundary" | "outside"
    tight: tuple[DivisorClass, ...] = ()
    violated: DivisorClass | None = None


def membership(cone: RationalCone, x: DivisorClass) -> Membership:
    """Exact position of x relative to the cone, with a certificate."""
    for e in cone.equations():
        if pair(x, e) != 0:
            return Membership("outside", violated=e)
    tight = []
    for f in cone.facets():
        v = pair(x, f)
        if v < 0:
            return Membership("outside", violated=f)
        if v == 0:
            tight.append(f)
    if not tight and not cone.equations():
        return Membership("interior")
    return Membership("boundary", tight=tuple(tight))


# ---------------------------------------------------------------------------
# the K-symplectic cone and duals of curve cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CornerInfo:
    ray: DivisorClass
    square: int
    genus: int | Fraction

    @property
    def ok(self) -> bool:
        return self.square in (0, 1) and self.genus == 0


@dataclass(frozen=True)
class KSymplecticCone:
    cone: RationalCone
    corners: tuple[CornerInfo, ...]

    @property
    def corners_ok(self) -> bool:
        return all(c.ok for c in self.corners)


def k_symplectic_cone(surface: SurfaceModel) -> KSymplecticCone:
    """Closed cone of symplectic classes with the standard canonical class,
    cut out inside the forward cone by positivity on the -1 sphere classes.

    Finite data exists for k <= 8 only.  For k >= 2 the linear dual of the
    -1 classes already lies in the closed forward cone (certified ray by
    ray); k in {0, 1} needs the forward-cone boundary rays H and H - E1.
    """
    if not surface.is_rational:
        raise ConeError("the K-symplectic cone helper covers rational surfaces")
    if surface.k > 8:
        raise ConeError("infinitely many -1 classes for k >= 9")
    if surface.k == 0:
        cone = RationalCone(surface, rays=(H(surface),), facets=(H(surface),))
    elif surface.k == 1:
        cone = cone_from_rays([H(surface), H(surface) - E(surface, 1)])
    else:
        cone = dual_cone(cone_from_rays(sorted_classes(exceptional_classes(surface))))
    corners = []
    for r in cone.rays():
        if not is_forward(r):
            raise ConeError(f"dual ray {r} escapes the closed forward cone")
        corners.append(CornerInfo(r, r.square(), adjunction_genus(r)))
    return KSymplecticCone(cone, tuple(corners))


@dataclass(frozen=True)
class PositiveDual:
    """Linear dual of a curve cone with round-boundary bookkeeping.

    polytopic means the dual is pointed with every extremal ray of
    non-negative square, so the positive dual is a cone over a polytope with
    no round boundary piece.
    """

    linear_dual: RationalCone
    round_boundary_rays: tuple[DivisorClass, ...]
    polytopic: bool


def positive_dual(curve_cone: RationalCone | Iterable[DivisorClass]) -> PositiveDual:
    if not isinstance(curve_cone, RationalCone):
        curve_cone = cone_from_rays(curve_cone)
    dual = dual_cone(curve_cone)
    evidence = [r for r in dual.rays() if r.square() < 0]
    evidence += [v for v in dual.lineality() if v.square() < 0]
    polytopic = not evidence and not dual.lineality()
    return PositiveDual(dual, tuple(sorted_classes(evidence)), polytopic)


# ---------------------------------------------------------------------------
# cone theorem audit and the nef threshold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    ray: DivisorClass
    k_pairing: int
    genus: int | Fraction
    taxonomy: str  # "minus_one" | "fiber" | "line" | "violation"

    @property
    def ok(self) -> bool:
        return (
            self.taxonomy != "violation"
            and self.genus == 0
            and -3 <= self.k_pairing < 0
        )


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]
    passed: bool
    failure: str = ""


def _extremal_taxonomy(surface: SurfaceModel, ray: DivisorClass) -> str:
    kc = canonical_class(surface)
    if pair(ray, ray) == -1 and pair(kc, ray) == -1:
        return "minus_one"
    if surface.is_ruled and surface.k == 0 and ray == T(surface):
        return "fiber"
    if surface.is_rational and surface.k == 1 and ray == H(surface) - E(surface, 1):
        return "fiber"
    if surface.is_rational and surface.k == 0 and ray == H(surface):
        return "line"
    return "violation"


def cone_theorem_audit(generators: Iterable[DivisorClass], surface: SurfaceModel) -> AuditReport:
    """Check every K-negative extremal ray of the generated cone: rational,
    pairing with K in [-3, 0), and of the allowed extremal-curve shapes."""
    try:
        rays = extremal_rays(cone_from_rays(generators))
    except NonPointedError as err:
        return AuditReport((), False, failure=str(err))
    kc = canonical_class(surface)
    entries = []
    for r in rays:
        kp = pair(kc, r)
        if kp >= 0:
            continue
        entries.append(AuditEntry(r, kp, adjunction_genus(r), _extremal_taxonomy(surface, r)))
    return AuditReport(tuple(entries), all(e.ok for e in entries))


def nef_threshold(omega: DivisorClass, extremal_curves: Sequence[DivisorClass]) -> Fraction:
    """sup t with t*K + omega nef against the listed extremal curves:
    the maximum of pair(L, omega) / (-pair(K, L)) over K-negative L."""
    curves = list(extremal_curves)
    if not curves:
        raise ConeError("no extremal curves supplied")
    kc = canonical_class(omega.surface)
    for c in curves:
        if pair(omega, c) <= 0:
            raise ConeError(f"omega does not pair positively with {c}")
    ratios = [Fraction(pair(c, omega), -pair(kc, c)) for c in curves if pair(kc, c) < 0]
    if not ratios:
        raise ConeError("the canonical class is nef on the given curves")
    t0 = max(ratios)
    if omega.is_integral() and t0.denominator > 3:
        raise ConeError(f"threshold denominator {t0.denominator} exceeds 3")
    return t0
