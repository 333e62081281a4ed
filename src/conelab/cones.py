"""Exact rational polyhedral cones under the intersection pairing.

Cones are generated by divisor classes (V-representation) or cut out by
pairing inequalities pair(facet, .) >= 0 (H-representation).  Conversion in
both directions runs the double description method over Fraction; ranks in
this package never exceed 10, so no effort is spent on sparse or floating
point shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .linalg import Vec


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


def _dd_pointed(ineqs: list[Vec], dim: int) -> list[Vec]:
    """Extreme rays of {t : a.t >= 0} assuming the a span R^dim (pointed)."""
    chosen: list[int] = []
    rows: list[Vec] = []
    for i, a in enumerate(ineqs):
        if linalg.rank(rows + [a]) > len(rows):
            rows.append(a)
            chosen.append(i)
        if len(rows) == dim:
            break
    inv = linalg.invert(rows)
    assert inv is not None
    # columns of the inverse generate the simplicial cone of the chosen rows
    rays = [linalg.primitive(tuple(inv[r][c] for r in range(dim))) for c in range(dim)]
    processed = list(chosen)

    def tight_set(r: Vec) -> frozenset[int]:
        return frozenset(i for i in processed if linalg.dot(ineqs[i], r) == 0)

    tights = {r: tight_set(r) for r in rays}
    for idx in range(len(ineqs)):
        if idx in chosen:
            continue
        a = ineqs[idx]
        vals = {r: linalg.dot(a, r) for r in rays}
        pos = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        neg = [r for r in rays if vals[r] < 0]
        if not neg:
            processed.append(idx)
            tights = {r: tights[r] | ({idx} if vals[r] == 0 else frozenset()) for r in rays}
            rays = pos + zero
            tights = {r: tights[r] for r in rays}
            continue
        new: list[Vec] = []
        for p in pos:
            for n in neg:
                common = tights[p] & tights[n]
                if linalg.rank([ineqs[i] for i in common]) != dim - 2:
                    continue
                w = linalg.primitive(
                    linalg.add(linalg.scale(vals[p], n), linalg.scale(-vals[n], p))
                )
                if w not in new:
                    new.append(w)
        processed.append(idx)
        rays = pos + zero + new
        tights = {r: tight_set(r) for r in rays}
    return rays


def extreme_rays_h(ineqs: Sequence[Vec], dim: int) -> tuple[list[Vec], list[Vec]]:
    """Extreme rays and lineality basis of {x : a.x >= 0 for all a}."""
    ineqs = [linalg.primitive(a) for a in ineqs if not linalg.is_zero(a)]
    if not ineqs:
        basis = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
        return [], basis
    lineality = linalg.nullspace(ineqs, dim)
    w_basis, _ = linalg.rref(ineqs)
    d = len(w_basis)
    projected = [tuple(linalg.dot(a, w) for w in w_basis) for a in ineqs]
    rays_t = _dd_pointed(projected, d)
    rays = []
    for t in rays_t:
        x = tuple(
            sum((ti * w[c] for ti, w in zip(t, w_basis)), Fraction(0))
            for c in range(dim)
        )
        rays.append(linalg.primitive(x))
    return rays, [linalg.sign_normalized(linalg.primitive(v)) for v in lineality]


# ---------------------------------------------------------------------------
# cones over a surface lattice
# ---------------------------------------------------------------------------


class RationalCone:
    """A polyhedral cone of divisor classes with lazily computed V/H data.

    The cone is cone(rays) + span(lineality) and equals
    {x : pair(x, f) >= 0 for all facets, pair(x, e) = 0 for all equations}.
    """

    def __init__(
        self,
        ambient: SurfaceModel,
        rays: Sequence[DivisorClass] | None = None,
        facets: Sequence[DivisorClass] | None = None,
        equations: Sequence[DivisorClass] | None = None,
    ):
        if rays is None and facets is None:
            raise ConeError("a cone needs rays or facets")
        self.ambient = ambient
        self._rays = None if rays is None else tuple(rays)
        self._lineality = None if rays is None else ()
        self._facets = None if facets is None else tuple(facets)
        self._equations = None if equations is None else tuple(equations)
        if facets is not None and equations is None:
            self._equations = ()

    # -- representations ---------------------------------------------------

    def rays(self) -> tuple[DivisorClass, ...]:
        if self._rays is None:
            self._compute_v_rep()
        return self._rays

    def lineality(self) -> tuple[DivisorClass, ...]:
        if self._lineality is None:
            self._compute_v_rep()
        return self._lineality

    def facets(self) -> tuple[DivisorClass, ...]:
        if self._facets is None:
            self._compute_h_rep()
        return self._facets

    def equations(self) -> tuple[DivisorClass, ...]:
        if self._equations is None:
            self._compute_h_rep()
        return self._equations

    def _compute_v_rep(self):
        ineqs = [gram_functional(f) for f in self._facets]
        for e in self._equations:
            q = gram_functional(e)
            ineqs.append(q)
            ineqs.append(tuple(-x for x in q))
        rays, lin = extreme_rays_h(ineqs, self.ambient.rank)
        self._rays = tuple(sorted_classes(divisor(self.ambient, r) for r in rays))
        self._lineality = tuple(sorted_classes(divisor(self.ambient, v) for v in lin))

    def _compute_h_rep(self):
        dual = dual_cone(self)
        self._facets = dual.rays()
        self._equations = dual.lineality()

    def is_pointed(self) -> bool:
        return not self.lineality()

    def __repr__(self) -> str:
        parts = []
        if self._rays is not None:
            parts.append("rays " + ", ".join(str(r) for r in self._rays))
        if self._facets is not None:
            parts.append("facets " + ", ".join(str(f) for f in self._facets))
        return f"RationalCone({'; '.join(parts)})"

    def to_json(self) -> dict:
        d: dict = {"surface": self.ambient.to_json()}
        if self._rays is not None:
            d["rays"] = [str(r) for r in self._rays]
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
    out by the rays as facets and the lineality as equations, with its own
    rays computed."""
    dual = RationalCone(cone.ambient, facets=cone.rays(), equations=cone.lineality())
    dual.rays()
    return dual


def ray_sum(cone: RationalCone) -> DivisorClass | None:
    """The sum of the extremal rays, a point in the relative interior of a
    pointed cone; None for a cone without rays."""
    rays = cone.rays()
    return sum(rays[1:], rays[0]) if rays else None


def extremal_rays(cone: RationalCone) -> list[DivisorClass]:
    """Minimal generating rays; raises NonPointedError on a lineality space."""
    if not cone.is_pointed():
        raise NonPointedError(list(cone.lineality()))
    rays = cone.rays()
    if cone._facets is not None or cone._rays is None:
        return list(rays)
    # V-representation input: run the round trip to drop interior generators
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
    square: Fraction
    genus: Fraction

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
    k_pairing: Fraction
    genus: Fraction
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
    ratios = [pair(c, omega) / -pair(kc, c) for c in curves if pair(kc, c) < 0]
    if not ratios:
        raise ConeError("the canonical class is nef on the given curves")
    t0 = max(ratios)
    if omega.is_integral():
        assert t0.denominator <= 3, f"threshold denominator {t0.denominator} exceeds 3"
    return t0
