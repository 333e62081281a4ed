"""Formal inflation calculus on the positive dual of a curve cone.

A formal inflation moves a class A to A + eps*C; along a negative class the
admissible step is 0 < eps <= (A.C)/(-C.C), with the maximal step landing on
the hyperplane of C.  Alternating maximal steps along two negative classes
converge geometrically, and a Gram-Schmidt pass over a negative-definite
span turns the whole limit process into one exact orthogonal projection.
Vertex achievement returns that projection as an InflationTrace; a vertex
on the light cone is reached as a flagged limit with no steps.

The steps run on the integer core: classes and Gram-Schmidt residuals are
integer numerators over one denominator, paired by lattice.pair_numerators,
and the one Fraction of a step is its eps.  The Gram-Schmidt pass is
fraction-free (Bareiss 1968; Erlingsson, Kaltofen and Musser 1996).
InflationTrace.verify replays a trace in Fraction arithmetic, an oracle
independent of the steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .configurations import NegativeConfiguration
from .lattice import DivisorClass, _check_same_surface, _from_numerators, pair, pair_numerators, sorted_classes


class InflationError(ValueError):
    pass


class RoundBoundaryError(InflationError):
    def __init__(self, evidence: Sequence[DivisorClass]):
        self.evidence = tuple(evidence)
        super().__init__(
            "positive dual has round boundary; negative-square directions "
            + ", ".join(str(v) for v in evidence)
        )


@dataclass(frozen=True)
class InflationTrace:
    start: DivisorClass
    steps: tuple[tuple[DivisorClass, Fraction], ...]
    result: DivisorClass
    limit_formula_used: bool = False

    def verify(self) -> bool:
        """Exact replay: result = start + sum of the recorded steps.

        Traces that end on a light-cone ray record the limit instead of a
        finite sum and are flagged; replay does not apply to those."""
        if self.limit_formula_used:
            return True
        acc = self.start
        for curve, eps in self.steps:
            acc = acc + eps * curve
        return acc == self.result


def max_inflate(a: DivisorClass, c: DivisorClass) -> tuple[DivisorClass, Fraction]:
    """The maximal step along a negative class; the result pairs to 0 with c.
    It is built from eps's numerator and denominator, so that integer pairing
    checks eps."""
    kind, x, y = c.surface.kind, a._num, c._num
    cc = pair_numerators(kind, y, y)
    if cc >= 0:
        raise InflationError("maximal inflation needs a class of negative square")
    _check_same_surface(a, c)
    ac = pair_numerators(kind, x, y)
    if ac < 0:
        raise InflationError(f"pairing {pair(a, c)} negative; cannot inflate along {c}")
    eps = Fraction(ac * c._den, -cc * a._den)
    f, g = eps.denominator * c._den, eps.numerator * a._den
    num = tuple([f * p + g * q for p, q in zip(x, y)])
    if pair_numerators(kind, num, y):
        raise InflationError(f"maximal step from {a} along {c} misses its hyperplane")
    return _from_numerators(a.surface, num, a._den * f), eps


@dataclass(frozen=True)
class AlternateInflation:
    result: DivisorClass  # a + (sum of odd coefficients) c2 + (sum of even coefficients) c1
    limit: DivisorClass
    ratio: Fraction  # (C1.C2)^2 / (C1^2 C2^2); at 1 the limit ray sits on the light cone
    odd_coefficients: tuple[Fraction, ...]
    even_coefficients: tuple[Fraction, ...]


def alternate_inflate(
    a: DivisorClass, c1: DivisorClass, c2: DivisorClass, iterations: int
) -> AlternateInflation:
    """Alternating maximal inflations along c2, c1, c2, ... from a class on
    the hyperplane of c1.

    Odd-step coefficients follow the geometric law l_(2k+1) = l_1 * x^k with
    x = (c1.c2)^2/(c1^2 c2^2).  For x < 1 the exact limit is one maximal
    step from a along d = c2 - (c1.c2)/c1^2 * c1: d^2 = c2^2 (1 - x) < 0,
    and max_inflate lands the limit on d's hyperplane, while a.c1 = d.c1 = 0
    keeps it on c1's, so it is orthogonal to both classes.  For x = 1 the
    coefficient sum diverges and only the limit ray d exists.
    """
    if pair(a, c1) != 0:
        raise InflationError("start class must lie on the hyperplane of the first curve")
    kind, y1, y2 = a.surface.kind, c1._num, c2._num
    n11, n12, n22 = (pair_numerators(kind, p, q) for p, q in ((y1, y1), (y1, y2), (y2, y2)))
    if n11 >= 0 or n22 >= 0:
        raise InflationError("alternating inflation needs two negative classes")
    _check_same_surface(c1, c2)
    x = Fraction(n12 * n12, n11 * n22)
    if x > 1:
        raise InflationError(
            f"(c1.c2)^2 = {pair(c1, c2) ** 2} exceeds c1^2 c2^2 = {c1.square() * c2.square()}; "
            "no common positive-square dual class exists for this pair"
        )
    odd, even = [], []
    current = a
    for k in range(iterations):
        current, eps = max_inflate(current, c2 if k % 2 == 0 else c1)
        (odd if k % 2 == 0 else even).append(eps)
    # c2 - (c1.c2)/c1^2 * c1 is (y1.y2) y1 - (y1.y1) y2 over -(y1.y1) d2, d2 c2's denominator
    num = tuple([n12 * p - n11 * q for p, q in zip(y1, y2)])
    direction = _from_numerators(a.surface, num, -n11 * c2._den)
    limit = direction.primitive() if x == 1 else max_inflate(a, direction)[0]
    return AlternateInflation(current, limit, x, tuple(odd), tuple(even))


def achieve_vertex(a: DivisorClass, curves: Sequence[DivisorClass]) -> InflationTrace:
    """Reach the ray where the curves' facets meet by maximal inflations.

    With all orthogonalized squares negative this is the exact orthogonal
    projection of the start class onto the common pairing kernel, reached in one
    maximal step per orthogonalized class: max_inflate lands each step on its
    class's hyperplane, and Gram-Schmidt made every later class orthogonal to
    it, so the result needs no further check.  When an orthogonalized class goes
    null (a square-zero curve among them), the facets meet the light cone in
    exactly that ray, and another null class pairs to zero with it only when
    proportional (the light-cone lemma); its trace records no steps and is
    flagged as a limit.  The ray is the trace's result.primitive()."""
    if not curves:
        raise InflationError("no curves supplied")
    kind = a.surface.kind
    ortho: list[tuple[DivisorClass, int]] = []  # each with its numerators' square
    null_direction: DivisorClass | None = None
    for c in curves:
        _check_same_surface(a, c)
        v, lam = c._num, c._den
        if pair_numerators(kind, v, v) > 0:
            raise InflationError(f"{c} has positive square")
        # v -> (-w.w) v + (w.v) w on the numerators w of each kept class keeps
        # v at lam d times the curve minus its projections, d its denominator
        for u, ww in ortho:
            f = pair_numerators(kind, u._num, v)
            if f:
                v = [f * q - ww * p for p, q in zip(v, u._num)]
                lam *= -ww
        if not any(v):
            continue  # facet already implied by the previous ones
        v = _from_numerators(a.surface, tuple(v), lam)
        sq = pair_numerators(kind, v._num, v._num)
        if sq > 0:
            raise InflationError(f"orthogonalized class {v} has positive square")
        if sq == 0:
            if null_direction is not None and pair(null_direction, v) != 0:
                raise InflationError("facet intersection is not a single ray")
            null_direction = v
            continue
        ortho.append((v, sq))
    if null_direction is not None:
        for c in curves:
            if pair(c, null_direction) != 0:
                raise InflationError("facet intersection is not a single ray")
        ray = null_direction.primitive()
        if pair(a, ray) < 0:
            ray = -1 * ray
        return InflationTrace(a, (), ray, limit_formula_used=True)
    # pairwise orthogonal classes of negative square are linearly independent
    if len(ortho) != a.surface.rank - 1:
        raise InflationError("facet intersection is not a single ray")
    steps = []
    current = a
    for u, _ in ortho:
        current, eps = max_inflate(current, u)
        if eps:
            steps.append((u, eps))
    if current.is_zero():
        raise InflationError("projection collapsed to zero; start class is degenerate")
    return InflationTrace(a, tuple(steps), current)


def achieve_all_rays(
    cfg: NegativeConfiguration, start: DivisorClass
) -> dict[DivisorClass, InflationTrace]:
    """Achieve every extremal ray of the positive dual of cfg's curve cone.

    Requires the dual to be polytopic: pointed, with every extremal ray of
    non-negative square; otherwise RoundBoundaryError names the dual's
    negative-square directions, or its lineality.  The start class must pair
    non-negatively with every generator.  Each dual ray is reached through
    maximal inflations along the negative curves tight on it.  A ray that no
    negative curve is tight on but a square-zero generator is, is that
    generator's ray (two forward classes of square >= 0 pair to zero only
    when both are null and proportional), reached as a light-cone limit.
    The dict holds the rays in dual_cone's order, sorted by coefficients."""
    gens = cfg.generators()
    dual = cfg.dual
    evidence = [r for r in dual.rays + dual.lineality if r.square() < 0]
    if evidence or dual.lineality:
        raise RoundBoundaryError(sorted_classes(evidence) or dual.lineality)
    for g in gens:
        if pair(start, g) < 0:
            raise InflationError(f"start class pairs negatively with {g}")
    achieved: dict[DivisorClass, InflationTrace] = {}
    for ray in dual.rays:
        tight = [c for c in cfg.curves if pair(c, ray) == 0]
        null = [g for g in cfg.extra_square_zero if pair(g, ray) == 0]
        trace = achieve_vertex(start, tight or null)
        if trace.result.primitive() != ray:
            raise InflationError(f"achieved {trace.result.primitive()} instead of dual ray {ray}")
        achieved[ray] = trace
    return achieved
