"""Intersection lattices of rational and ruled 4-manifolds.

A divisor class lives in H^2 of one of three surface models:

* ``rational``          -- blowup of the projective plane, basis (H, E1..Ek),
                           form diag(1, -1, ..., -1);
* ``trivial_ruled``     -- blowup of S^2 x Sigma_h, basis (U, T, E1..Ek) with
                           U^2 = 0, U.T = 1, T^2 = 0;
* ``nontrivial_ruled``  -- blowup of the twisted S^2-bundle over Sigma_h,
                           same basis but U^2 = 1.

A class is stored as integer numerators in basis order over one denominator,
so aH - b1 E1 - ... - bk Ek is stored as (a, -b1, ..., -bk) over 1.  Its
``coeffs`` are ints, and Fractions where an entry has a denominator; floats are
rejected.  So ``pair`` returns an int on integral classes, and a caller that
divides a pairing writes ``Fraction(p, q)``, since ``p / q`` is a float.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable

from . import linalg

RATIONAL = "rational"
TRIVIAL_RULED = "trivial_ruled"
NONTRIVIAL_RULED = "nontrivial_ruled"

_KINDS = (RATIONAL, TRIVIAL_RULED, NONTRIVIAL_RULED)


class LatticeError(ValueError):
    """Raised for malformed surfaces, classes, or mismatched pairings."""


class ParseError(LatticeError):
    """Raised for malformed or contradictory input from outside the program:
    a class literal, a file or a command line."""


@dataclass(frozen=True)
class SurfaceModel:
    """A fixed lattice: surface kind, number of blowups k, base genus h."""

    kind: str
    k: int = 0
    h: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise LatticeError(f"unknown surface kind {self.kind!r}")
        if type(self.k) is not int or type(self.h) is not int:
            raise LatticeError(f"k and h must be integers: k={self.k!r}, h={self.h!r}")
        if self.k < 0:
            raise LatticeError("blowup count k must be >= 0")
        if self.kind == RATIONAL:
            if self.h != 0:
                raise LatticeError("rational surfaces carry no base genus")
        elif self.h < 1:
            raise LatticeError("ruled surfaces need base genus h >= 1")

    @property
    def rank(self) -> int:
        return (1 if self.kind == RATIONAL else 2) + self.k

    @property
    def is_rational(self) -> bool:
        return self.kind == RATIONAL

    @functools.cached_property
    def basis_labels(self) -> tuple[str, ...]:
        """H, or U and T, then E1..Ek: built once per surface, which is interned."""
        head = ("H",) if self.is_rational else ("U", "T")
        return head + tuple(f"E{i}" for i in range(1, self.k + 1))

    def __str__(self) -> str:
        if self.is_rational:
            return f"rational(k={self.k})"
        return f"{self.kind}(h={self.h}, k={self.k})"

    def to_json(self) -> dict:
        d = {"kind": self.kind, "k": self.k}
        if not self.is_rational:
            d["h"] = self.h
        return d

    @staticmethod
    def from_json(d: dict) -> "SurfaceModel":
        """The surface a JSON object describes; a malformed one raises
        ParseError, and one without a kind KeyError."""
        try:
            return intern_surface(SurfaceModel(d["kind"], d.get("k", 0), d.get("h", 0)))
        except (TypeError, ValueError) as err:
            raise ParseError(f"bad surface {d!r}: {err}") from None


# Every surface, a parsed one too, is the one object this cache keeps for its
# value, so classes built on one surface, canonical_class's among them, share it
# and a pairing's surface check is an identity test.  The key is a checked
# surface, whose k and h are ints, so True never stands for 1.
@functools.cache
def intern_surface(surface: SurfaceModel) -> SurfaceModel:
    return surface


def rational_surface(k: int) -> SurfaceModel:
    return intern_surface(SurfaceModel(RATIONAL, k))


def trivial_ruled(h: int, k: int = 0) -> SurfaceModel:
    return intern_surface(SurfaceModel(TRIVIAL_RULED, k, h))


def nontrivial_ruled(h: int, k: int = 0) -> SurfaceModel:
    return intern_surface(SurfaceModel(NONTRIVIAL_RULED, k, h))


def _exact(c) -> int | Fraction:
    """A coefficient as coeffs reads it: int, or Fraction when its denominator is not 1."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise LatticeError(f"coefficient {c!r} is neither an int nor a Fraction")


@dataclass(frozen=True, slots=True, init=False)
class DivisorClass:
    """An exact class over a fixed surface lattice, with int or Fraction coefficients.

    The constructor checks its input and stores only integer numerators over
    their least common denominator, 1 on an integral class, so a sum, a
    scaling or a pairing runs in int; ``coeffs`` reads the entries off them.
    Equality reads the surface, the numerators and the denominator.  The
    hash reads the numerators alone, doubled because hash(-1) == hash(-2) in
    CPython: numerators over a denominator coprime to them are a canonical
    form, so equal classes hash equal, and the hash does not depend on
    PYTHONHASHSEED.
    """

    surface: SurfaceModel
    _num: tuple[int, ...]
    _den: int

    def __init__(self, surface: SurfaceModel, coeffs: tuple[int | Fraction, ...]):
        if len(coeffs) != surface.rank:
            raise LatticeError(
                f"coefficient vector of length {len(coeffs)} on rank {surface.rank} surface"
            )
        # a tuple of plain ints is stored as it is (a bool is not a plain int)
        if type(coeffs) is tuple and {*map(type, coeffs)} == {int}:
            num, den = coeffs, 1
        else:
            c = tuple(map(_exact, coeffs))
            den = lcm(*(x.denominator for x in c))
            num = c if den == 1 else tuple(x.numerator * (den // x.denominator) for x in c)
        _set_surface(self, surface)
        _set_num(self, num)
        _set_den(self, den)

    @property
    def coeffs(self) -> tuple[int | Fraction, ...]:
        num, den = self._num, self._den
        return num if den == 1 else tuple(Fraction(n, den) if n % den else n // den for n in num)

    def __hash__(self) -> int:
        return hash(tuple([n + n for n in self._num]))

    # -- vector space structure ------------------------------------------

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return _combine(self, other, add)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return _combine(self, other, sub)

    def __neg__(self) -> "DivisorClass":
        return _from_numerators(self.surface, tuple(-n for n in self._num), self._den)

    def __rmul__(self, scalar) -> "DivisorClass":
        if type(scalar) in (int, Fraction):
            p = scalar.numerator
            return _from_numerators(
                self.surface, tuple(p * n for n in self._num), scalar.denominator * self._den
            )
        # any other scalar, a bool or a float, goes through the checks
        return DivisorClass(self.surface, tuple(scalar * a for a in self.coeffs))

    __mul__ = __rmul__

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_integral(self) -> bool:
        return self._den == 1

    # -- lattice structure -----------------------------------------------

    def square(self) -> int | Fraction:
        return pair(self, self)

    def b_vector(self) -> tuple[int | Fraction, ...]:
        """Subtracted coefficients (b1, ..., bk) of aH - sum bi Ei."""
        head = 1 if self.surface.is_rational else 2
        return tuple(-c for c in self.coeffs[head:])

    def primitive(self) -> "DivisorClass":
        """Scale by a positive rational so entries are integers with gcd 1."""
        return _from_numerators(self.surface, linalg.primitive(self._num))

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        return format_class(self)


# the slot setters of the frozen fields, for both constructors
_new = object.__new__
_set_surface = DivisorClass.surface.__set__
_set_num = DivisorClass._num.__set__
_set_den = DivisorClass._den.__set__


def _from_numerators(surface: SurfaceModel, num: tuple[int, ...], den: int = 1) -> DivisorClass:
    """The class num / den, for a tuple num of ints of the surface's rank and
    den > 0, built without the constructor's checks: the one constructor of
    the operations whose results are valid by construction."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(n // g for n in num)
            den //= g
    x = _new(DivisorClass)
    _set_surface(x, surface)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _combine(x: DivisorClass, y: DivisorClass, op) -> DivisorClass:
    """x op y, for op add or sub, on the numerators over a common denominator."""
    _check_same_surface(x, y)
    dx, dy = x._den, y._den
    if dx == dy:
        return _from_numerators(x.surface, tuple(map(op, x._num, y._num)), dx)
    d = lcm(dx, dy)
    fx, fy = d // dx, d // dy
    return _from_numerators(x.surface, tuple(op(fx * a, fy * b) for a, b in zip(x._num, y._num)), d)


def _check_same_surface(x: DivisorClass, y: DivisorClass) -> None:
    if x.surface is not y.surface and x.surface != y.surface:
        raise LatticeError(f"classes on different surfaces: {x.surface} vs {y.surface}")


def divisor(surface: SurfaceModel, coeffs: Iterable) -> DivisorClass:
    return DivisorClass(surface, tuple(coeffs))


def basis_class(surface: SurfaceModel, index: int) -> DivisorClass:
    coeffs = [0] * surface.rank
    coeffs[index] = 1
    return DivisorClass(surface, tuple(coeffs))


def H(surface: SurfaceModel) -> DivisorClass:
    if not surface.is_rational:
        raise LatticeError("H lives on rational surfaces only")
    return basis_class(surface, 0)


def U(surface: SurfaceModel) -> DivisorClass:
    if surface.is_rational:
        raise LatticeError("U lives on ruled surfaces only")
    return basis_class(surface, 0)


def T(surface: SurfaceModel) -> DivisorClass:
    if surface.is_rational:
        raise LatticeError("T lives on ruled surfaces only")
    return basis_class(surface, 1)


def E(surface: SurfaceModel, i: int) -> DivisorClass:
    if not 1 <= i <= surface.k:
        raise LatticeError(f"E{i} out of range for k={surface.k}")
    head = 1 if surface.is_rational else 2
    return basis_class(surface, head + i - 1)


def pair(x: DivisorClass, y: DivisorClass) -> int | Fraction:
    """Intersection pairing, signature (1, rank-1): an int on integral
    classes, and a Fraction when either class has a fractional entry."""
    if x.surface is not y.surface:
        _check_same_surface(x, y)
    p = pair_numerators(x.surface.kind, x._num, y._num)
    d = x._den * y._den
    return p if d == 1 else Fraction(p, d)


def pair_numerators(kind: str, a, b) -> int:
    """The intersection form of a surface of the kind on integer vectors in
    basis order; pair(x, y) is its value on the numerators over the denominators."""
    if kind == RATIONAL:
        return 2 * a[0] * b[0] - sum(map(mul, a, b))
    uu = a[0] * b[0] if kind == NONTRIVIAL_RULED else 0
    return uu + a[0] * b[1] + a[1] * b[0] - sum(map(mul, a[2:], b[2:]))


def gram_functional(x: DivisorClass) -> tuple[int, ...]:
    """The Gram matrix applied to x's numerators, q with q . v = d pair(v, x)
    for all v, d x's denominator; the three Gram matrices are unimodular, so
    primitive(q) is the functional of x.primitive()."""
    c = x._num
    if x.surface.is_rational:
        head = (c[0],)
        tail = c[1:]
    elif x.surface.kind == TRIVIAL_RULED:
        head = (c[1], c[0])
        tail = c[2:]
    else:
        head = (c[0] + c[1], c[0])
        tail = c[2:]
    return head + tuple(-v for v in tail)


@functools.cache
def canonical_class(surface: SurfaceModel) -> DivisorClass:
    """The canonical class: -3H + sum Ei, or -2U + (2h-2)T + sum Ei, or
    -2U + (2h-1)T + sum Ei depending on the bundle.  Built once per surface;
    classes are frozen, so every caller may share it."""
    ones = [1] * surface.k
    if surface.is_rational:
        return DivisorClass(surface, tuple([-3] + ones))
    t = 2 * surface.h - 2 if surface.kind == TRIVIAL_RULED else 2 * surface.h - 1
    return DivisorClass(surface, tuple([-2, t] + ones))


def adjunction_genus(x: DivisorClass) -> int | Fraction:
    """Genus of a class by adjunction: (x.x + K.x)/2 + 1.

    An int whenever x is integral; lower bound for the genus of any
    irreducible representative, with equality exactly for embedded ones.
    On an integral class x.x + K.x is even, since K is characteristic (Wu's
    formula), so the halving stays in int.
    """
    p = pair(x, x) + pair(canonical_class(x.surface), x)
    if x.is_integral():
        return p // 2 + 1
    return _exact(Fraction(p, 2) + 1)


def sw_dimension(x: DivisorClass) -> int | Fraction:
    """Expected dimension x.x - K.x entering the wall-crossing argument."""
    k = canonical_class(x.surface)
    return pair(x, x) - pair(k, x)


# -- class literals ---------------------------------------------------------

_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*?)?(H|U|T|E(\d+))", re.IGNORECASE)


def parse_class(text: str, surface: SurfaceModel) -> DivisorClass:
    """Parse literals like ``2H-E1-E2``, ``-H+2E1`` or ``U-3T`` exactly.

    A literal is ``0`` or a sum of terms, each an optional sign, an optional
    integer or fraction coefficient (``1/2H``, or ``1/2*H``) and a
    generator; every term after the first begins with ``+`` or ``-``, so
    ``HE1`` and ``2H-E1 E2`` are refused.  Whitespace is ignored.  Every
    named generator must exist on the surface.
    """
    if not isinstance(text, str):
        raise ParseError(f"a class literal is a string, not {text!r}")
    compact = "".join(text.split())
    if compact in ("0", ""):
        return divisor(surface, [0] * surface.rank)
    coeffs = [0] * surface.rank
    labels = surface.basis_labels
    pos = 0
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if not m or (pos and not m.group(1)):
            raise ParseError(f"cannot parse class literal {text!r} at {compact[pos:]!r}")
        sign, num, symbol, _ = m.groups()
        try:
            value = Fraction(num) if num else 1
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in class literal {text!r}") from None
        if sign == "-":
            value = -value
        key = symbol.upper()
        if key not in labels:
            raise ParseError(f"generator {symbol!r} does not exist on {surface}")
        coeffs[labels.index(key)] += value
        pos = m.end()
    return DivisorClass(surface, tuple(coeffs))


def parse_class_list(texts, surface: SurfaceModel) -> list[DivisorClass]:
    """Parse a JSON list of class literals."""
    if not isinstance(texts, list):
        raise ParseError(f"expected a list of class literals, not {texts!r}")
    return [parse_class(t, surface) for t in texts]


def format_class(x: DivisorClass, paper_signs: bool = False) -> str:
    """Render a class; with paper_signs, as the tuple (a; b1, ..., bk)."""
    if paper_signs:
        if x.surface.is_rational:
            head = [str(x.coeffs[0])]
        else:
            head = [str(x.coeffs[0]), str(x.coeffs[1])]
        body = ", ".join(str(b) for b in x.b_vector())
        return f"({'; '.join([', '.join(head), body]) if body else ', '.join(head)})"
    if x.is_zero():
        return "0"
    parts = []
    for label, c in zip(x.surface.basis_labels, x.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        coef = "" if mag == 1 else str(mag)
        term = f"{coef}{label}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+{term}" if c > 0 else f"-{term}")
    return "".join(parts)


def sorted_classes(classes: Iterable[DivisorClass]) -> list[DivisorClass]:
    """Deterministic ordering used for all set-valued results."""
    return sorted(classes, key=lambda c: c.coeffs)
