"""Exact rational polyhedral cones under the intersection pairing.

dual_cone takes a list of classes and returns the dual of their cone, held
by its extreme rays, the facets pair(f, .) >= 0 of the cone, and a
lineality basis.  The double description, extreme_rays_h, runs on
primitive integer vectors, with bitmask tight sets and the combinatorial
adjacency test; ranks in this package never exceed 10, so no effort is
spent on sparse or floating point shortcuts.  dual_cone is its one caller.

The K-symplectic cone of k >= 2 blowups, the dual of the -1 classes, is not
converted whole: k_symplectic_cone generates its corners as the orbits of H
and H - E1 and certifies them complete by adjacency decomposition up to
symmetry, from edges of the two tangent cones written down in closed form.
The cone is held as its ordered classes; its corners are expanded on read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from . import linalg
from .cremona import moves, order
from .enumeration import distinct_arrangements, exceptional_classes
from .lattice import (
    DivisorClass,
    SurfaceModel,
    T,
    adjunction_genus,
    basis_class,
    canonical_class,
    divisor,
    E,
    gram_functional,
    H,
    pair,
    sorted_classes,
)
from .linalg import IntVec


class ConeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# double description core (euclidean functionals)
# ---------------------------------------------------------------------------


def _dd_pointed(ineqs: list[IntVec], dim: int) -> list[IntVec]:
    """Extreme rays of {t : a.t >= 0} for integer rows a spanning R^dim.

    Double description after Fukuda and Prodon (1996): each ray carries the
    bitmask of the inserted rows it is tight on, and a positive and a
    negative ray are adjacent when their common tight set has at least
    dim - 2 rows and no third ray is tight on all of it.  Its one caller,
    extreme_rays_h, adds a basis of the rows' kernel and its negatives, so
    the rows span R^dim and every pivot of the row reduction falls among
    them, none in the identity block.
    """
    # one row reduction of [A^T | I]: its pivot columns are the first rows
    # that span, and row c of its identity block is column c of the inverse
    # of those rows, the start ray tight on every chosen row but the c-th
    m = len(ineqs)
    reduced, chosen = linalg.rref(
        [[a[r] for a in ineqs] + [int(r == c) for c in range(dim)] for r in range(dim)]
    )
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


def extreme_rays_h(ineqs: Sequence[Sequence[int]], dim: int) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of {x : a.x >= 0 for all a}, as
    primitive integer vectors.

    The rays are those of the cone meet the orthogonal complement of its
    lineality: the lineality enters the double description as equation rows
    v >= 0 and -v >= 0, and with them the rows span R^dim.
    """
    ineqs = [linalg.primitive(a) for a in ineqs if any(a)]
    lineality = [linalg.sign_normalized(linalg.primitive(v)) for v in linalg.nullspace(ineqs, dim)]
    rows = ineqs + lineality + [tuple(-x for x in v) for v in lineality]
    return _dd_pointed(rows, dim), lineality


# ---------------------------------------------------------------------------
# cones over a surface lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalCone:
    """The dual of a list of classes, cone(rays) + span(lineality): the rays
    are the facets of their cone, and the lineality gives its equations."""

    rays: tuple[DivisorClass, ...]
    lineality: tuple[DivisorClass, ...]


def dual_cone(generators: Iterable[DivisorClass]) -> RationalCone:
    """The pairing-dual {y : pair(y, g) >= 0 for every generator g}, with
    its extreme rays and lineality basis sorted.  Order, positive scaling,
    repeats and zero classes among the generators do not change it."""
    gens = list(generators)
    if not gens:
        raise ConeError("empty generator list")
    surface = gens[0].surface
    if any(g.surface != surface for g in gens):
        raise ConeError("generators on mixed surfaces")
    if all(g.is_zero() for g in gens):
        raise ConeError("all generators are zero")
    # positive multiples of the primitive generators' functionals, the same rows once primitive
    rays, lineality = extreme_rays_h([gram_functional(g) for g in gens], surface.rank)
    return RationalCone(
        tuple(sorted_classes(divisor(surface, r) for r in rays)),
        tuple(sorted_classes(divisor(surface, v) for v in lineality)),
    )


def ray_sum(cone: RationalCone) -> DivisorClass | None:
    """The sum of the extremal rays, a point in the relative interior of a
    pointed cone; None for a cone without rays."""
    rays = cone.rays
    return sum(rays[1:], rays[0]) if rays else None


# ---------------------------------------------------------------------------
# the K-symplectic cone and duals of curve cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CornerInfo:
    ray: DivisorClass
    square: int
    genus: int


@dataclass(frozen=True)
class KSymplecticCone:
    orbits: tuple[CornerInfo, ...]  # one per ordered class of the corners, sorted

    @property
    def corners(self) -> list[CornerInfo]:
        """Every corner, expanded from its ordered class on each read, sorted by coefficients."""
        out = (CornerInfo(x, c.square, c.genus) for c in self.orbits
               for x in distinct_arrangements(c.ray))
        return sorted(out, key=lambda c: c.ray.coeffs)

    @property
    def corners_ok(self) -> bool:
        return all(c.square in (0, 1) and c.genus == 0 for c in self.orbits)


def k_symplectic_cone(surface: SurfaceModel) -> KSymplecticCone:
    """Closed cone of symplectic classes with the standard canonical class,
    cut out inside the forward cone by positivity on the -1 sphere classes.

    Finite data exists for k <= 8 only.  k in {0, 1} needs the forward-cone
    boundary rays H and H - E1.  For k >= 2 the cone is the dual of the -1
    classes, and its corners are the orbits of H and H - E1 under the Weyl
    group W(E_k), generated by permuting E1..Ek and by the Cremona
    reflection.  No double description of the whole cone is run: adjacency
    decomposition up to symmetry (Christof and Reinelt, Int. J. Comput.
    Geom. Appl. 11, 2001; Bremner, Dutour Sikiric and Schuermann,
    "Polyhedral representation conversion up to symmetries", 2009)
    certifies the set complete.  The group permutes the -1 classes, so it
    maps the cone to itself; two steps remain.

    (a) The -1 classes tight at H, and at H - E1, have rank k, so both are
        extreme rays, and so is every class of their orbits.
    (b) Each neighbour of H and of H - E1 on the cone lies in the orbits,
        tested for one per orbit of the permutations of E1..Ek that fix H,
        or H - E1 (_neighbours).  The group carries this to every member.

    The ray graph of a pointed cone is connected (Balinski), so a set of
    extreme rays holding every neighbour of each member holds every ray.
    A failed step raises ConeError.  The cone holds one CornerInfo per
    ordered class: the form and K = -3H + sum Ei are symmetric in E1..Ek, so
    its arrangements share its square and genus.
    """
    if not surface.is_rational:
        raise ConeError("the K-symplectic cone helper covers rational surfaces")
    if surface.k > 8:
        raise ConeError("infinitely many -1 classes for k >= 9")
    if surface.k == 0:
        ordered = [H(surface)]
    elif surface.k == 1:
        ordered = [H(surface), H(surface) - E(surface, 1)]
    else:
        ordered = _certified_corners(surface)
    orbits = (CornerInfo(x, x.square(), adjunction_genus(x)) for x in sorted_classes(ordered))
    return KSymplecticCone(tuple(orbits))


def _certified_corners(surface: SurfaceModel) -> set[DivisorClass]:
    """The ordered classes of the corners for k in 2..8, certified as in k_symplectic_cone."""
    targets = (H(surface), H(surface) - E(surface, 1))
    # the ordered classes of the two orbits, closed under the reflections
    ordered, todo = set(targets), list(targets)
    while todo:
        for x in moves(todo.pop()):
            if x not in ordered:
                ordered.add(x)
                todo.append(x)
    functionals = [gram_functional(e) for e in exceptional_classes(surface)]
    for t in targets:
        for x in _neighbours(t, functionals):
            if order(x) not in ordered:
                raise ConeError(f"the corner {x} is missing from the orbits of H and H-E1")
    return ordered


def _neighbours(r: DivisorClass, functionals: Iterable[IntVec]) -> list[DivisorClass]:
    """One extreme ray adjacent to r = H or H - E1 on the dual of the -1
    classes, each e as its Gram functional, per orbit of r's stabiliser in
    the permutations of E1..Ek; raises ConeError unless the e tight at r are
    the named ones of _tangent_cone.  These cut out the tangent cone at r and
    have rank k, so r is extreme: at H they are -u_1..-u_k, and at H - E1 the
    -u_j and u_0 + u_1 + u_j, j = 2..k, span u_0 + u_1 and u_2..u_k.  Each
    edge d of that cone spans a 2-face with r, whose other ray is d + s r for
    the least s that leaves every pairing non-negative: the largest
    -(e.d)/(e.r).  The stabiliser permutes the loose e too, so one d per
    orbit is shot.
    """
    surface, coeffs = r.surface, r.coeffs
    pairings = [(q, sum(map(mul, q, coeffs))) for q in functionals]
    tight = {q for q, er in pairings if not er}
    loose = [(q, er) for q, er in pairings if er]
    named, directions = _tangent_cone(r)
    if tight != named:
        raise ConeError(f"the -1 classes tight at {r} are not the {len(named)} named")
    out = []
    for d in directions:
        # s = num / den with den > 0, compared by cross-multiplying; (-1, 0)
        # stands below every ratio
        num, den = -1, 0
        for q, er in loose:
            p = -sum(map(mul, q, d))
            if p * den > num * er:
                num, den = p, er
        out.append(divisor(surface, [den * x + num * y for x, y in zip(d, coeffs)]).primitive())
    return out


def _tangent_cone(r: DivisorClass) -> tuple[set[IntVec], list[IntVec]]:
    """The Gram functionals of the -1 classes tight at r = H or H - E1, and
    one edge of their cone per orbit of r's stabiliser, u_i the unit vectors.
    At H: E1..Ek, or -u_1..-u_k; modulo the line of H the cone is the orthant
    d1..dk <= 0, whose edges -Ei are one orbit.  At H - E1: Ej and H - E1 - Ej,
    or -u_j and u_0 + u_1 + u_j, j = 2..k; modulo the line of H - E1 the cone
    is 0 <= -dj <= d0 + d1, over a (k-1)-cube, whose 2^(k-1) edges H - (the Ej,
    j in S), S in 2..k, are k orbits by |S| = m: H - E2 - ... - E(m+1)."""
    k, at_h = r.surface.k, r == H(r.surface)
    tight = {tuple(-int(i == j) for i in range(k + 1)) for j in range(1 if at_h else 2, k + 1)}
    if at_h:
        return tight, [(0, -1) + (0,) * (k - 1)]
    tight |= {tuple(int(i in (0, 1, j)) for i in range(k + 1)) for j in range(2, k + 1)}
    return tight, [(1, 0) + (-1,) * m + (0,) * (k - 1 - m) for m in range(k)]


# ---------------------------------------------------------------------------
# cone theorem audit and the nef threshold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[tuple[DivisorClass, str], ...]  # (ray, _extremal_taxonomy(ray))
    passed: bool
    failure: str = ""


def _extremal_taxonomy(ray: DivisorClass) -> str:
    surface = ray.surface
    kc = canonical_class(surface)
    if pair(ray, ray) == -1 and pair(kc, ray) == -1:
        return "minus_one"
    if not surface.is_rational and surface.k == 0 and ray == T(surface):
        return "fiber"
    if surface.is_rational and surface.k == 1 and ray == H(surface) - E(surface, 1):
        return "fiber"
    if surface.is_rational and surface.k == 0 and ray == H(surface):
        return "line"
    return "violation"


def cone_theorem_audit(generators: Iterable[DivisorClass]) -> AuditReport:
    """Check that every K-negative extremal ray of the generated cone has an
    allowed extremal-curve shape: a -1 class, a fiber or the line, which are
    rational and pair with K to -1, -2 and -3.  The extremal rays are those
    of the double dual, which drops interior generators; a lineality there
    fails the audit."""
    gens = list(generators)
    dual, surface = dual_cone(gens), gens[0].surface
    back = [*dual.rays, *dual.lineality, *(-v for v in dual.lineality)]
    # a zero dual means the generators span everything
    basis = (basis_class(surface, i) for i in range(surface.rank))
    hull = dual_cone(back) if back else RationalCone((), tuple(sorted_classes(basis)))
    if hull.lineality:
        lines = ", ".join(str(v) for v in hull.lineality)
        return AuditReport((), False, failure=f"cone is not pointed; lineality spanned by {lines}")
    kc = canonical_class(surface)
    entries = tuple((r, _extremal_taxonomy(r)) for r in hull.rays if pair(kc, r) < 0)
    return AuditReport(entries, all(t != "violation" for _, t in entries))


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
