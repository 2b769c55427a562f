"""Exact Cayley-Dickson element arithmetic.

The level-n algebra is R^(2^n), and its product is defined by doubling:

    (x1, x2) (y1, y2) = (x1 y1 - conj(y2) x2,  y2 x1 + x2 conj(y1))
    conj(x1, x2)      = (conj(x1), -x2)

where x1, x2, y1, y2 are level-(n-1) halves and level 0 is R.  Levels 0..3
give R, C, H, O; level 4 and beyond are the sedenions and their doublings,
where zero divisors first appear.

The product is computed, not recursed: on basis units the doubling formula
gives e_i e_j = sigma_n(i, j) e_(i xor j) with sigma_n(i, j) = +-1, so one
cached sign table per level turns a product into a sum over pairs of
nonzero coordinates (J. W. Bales, "A tree for computing the Cayley-Dickson
twist", Missouri J. Math. Sci. 21, 2009).

Every coordinate is a `fractions.Fraction`, so each identity checked
against this module holds exactly or fails exactly; no floating point is
involved anywhere here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


class ParseError(ValueError):
    """Malformed element text; `pos` is the offending character offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class LevelError(ValueError):
    """Operands at mismatched levels, or a level where the op is undefined."""


# -- raw coordinate-vector kernels ------------------------------------------
#
# These work on bare sequences and are scalar-agnostic: int tuples for the
# exact path (see Element.__mul__), float tuples for the float path.
#
# The level-n sign table comes from the doubling formula applied to basis
# units.  With h = 2^(n-1) and sigma the level-(n-1) table:
#
#   i <  h, j <  h:  sigma(i, j)                         from (e_i e_j, 0)
#   i <  h, j >= h:  sigma(j-h, i)                       from (0, e_(j-h) e_i)
#   i >= h, j <  h:  sigma(i-h, j), negated unless j = 0  from (0, e_(i-h) conj(e_j))
#   i >= h, j >= h:  sigma(j-h, i-h), negated if j = h    from (-conj(e_(j-h)) e_(i-h), 0)

_SIGN_TABLES = [((1,),)]


def _sign_table(level: int) -> tuple:
    """sigma_level as rows: e_i e_j == _sign_table(level)[i][j] * e_(i ^ j)."""
    while len(_SIGN_TABLES) <= level:
        prev = _SIGN_TABLES[-1]
        h = len(prev)
        rows = []
        for i in range(2 * h):
            row = []
            for j in range(2 * h):
                if i < h:
                    s = prev[i][j] if j < h else prev[j - h][i]
                elif j < h:
                    s = prev[i - h][j] if j == 0 else -prev[i - h][j]
                else:
                    s = -prev[j - h][i - h] if j == h else prev[j - h][i - h]
                row.append(s)
            rows.append(tuple(row))
        _SIGN_TABLES.append(tuple(rows))
    return _SIGN_TABLES[level]


def conj_coords(v: Sequence) -> tuple:
    # conjugation negates every coordinate except the real slot, at any level
    return (v[0],) + tuple(-c for c in v[1:])


def mul_coords(x: Sequence, y: Sequence) -> tuple:
    """The doubling product of two equal-length coordinate vectors, as
    out[i ^ j] += sigma(i, j) x_i y_j over the nonzero coordinates only."""
    signs = _sign_table(len(x).bit_length() - 1)
    out = [x[0] - x[0]] * len(x)  # zero in the operands' scalar type
    ys = [(j, c) for j, c in enumerate(y) if c]
    for i, xi in enumerate(x):
        if xi:
            row = signs[i]
            for j, yj in ys:
                out[i ^ j] += row[j] * xi * yj
    return tuple(out)


def common_denominator(coords: Sequence[Fraction]) -> Tuple[list, int]:
    """Integer numerators of `coords` over their least common denominator d,
    and d."""
    d = 1
    for c in coords:
        q = c.denominator
        if d % q:
            d = d // gcd(d, q) * q
    return [c.numerator * (d // c.denominator) for c in coords], d


_ZERO = Fraction(0)


class Element:
    """An element of the level-n algebra: n plus 2^n rational coordinates.

    Instances are immutable value objects: equality and hashing go through
    (level, coords), and every operation returns a fresh Element.  The
    coordinate at index 0 is the real (e0) coefficient; at level n the
    slice [0, 2^(n-1)) is the first doubling half and the rest the second.
    """

    __slots__ = ("level", "coords")

    def __init__(self, level: int, coords: Iterable[Scalar]):
        if level < 0:
            raise LevelError("level must be a non-negative integer")
        try:
            cs = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        except ZeroDivisionError:
            raise ValueError("coordinate with zero denominator") from None
        if len(cs) != 1 << level:
            raise LevelError(
                f"level {level} needs {1 << level} coordinates, got {len(cs)}")
        self.level = level
        self.coords = cs

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, level: int) -> "Element":
        return cls(level, (0,) * (1 << level))

    @classmethod
    def basis(cls, level: int, index: int) -> "Element":
        dim = 1 << level
        if not 0 <= index < dim:
            raise LevelError(f"basis index {index} out of range for level {level}")
        return cls(level, tuple(1 if i == index else 0 for i in range(dim)))

    @classmethod
    def unit(cls, level: int) -> "Element":
        """The multiplicative unit e0."""
        return cls.basis(level, 0)

    @classmethod
    def half_unit(cls, level: int) -> "Element":
        """e_{2^(n-1)}: the unit of the second doubling half (level >= 1)."""
        if level < 1:
            raise LevelError("half_unit needs level >= 1")
        return cls.basis(level, 1 << (level - 1))

    @classmethod
    def pair(cls, x1: "Element", x2: "Element") -> "Element":
        """Assemble the level-(n+1) element (x1, x2) from two level-n halves."""
        if x1.level != x2.level:
            raise LevelError("pair halves must share a level")
        return cls(x1.level + 1, x1.coords + x2.coords)

    def halves(self) -> Tuple["Element", "Element"]:
        if self.level < 1:
            raise LevelError("level-0 elements have no halves")
        h = 1 << (self.level - 1)
        return (Element(self.level - 1, self.coords[:h]),
                Element(self.level - 1, self.coords[h:]))

    # -- ring operations -----------------------------------------------

    def _check_level(self, other: "Element") -> None:
        if self.level != other.level:
            raise LevelError(
                f"level mismatch: {self.level} vs {other.level}")

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_level(other)
        return Element(self.level, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_level(other)
        return Element(self.level, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.level, tuple(-c for c in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_level(other)
            # the kernel runs on integers; Fractions come back only here
            x, dx = common_denominator(self.coords)
            y, dy = common_denominator(other.coords)
            d = dx * dy
            return Element(self.level, tuple(Fraction(c, d) if c else _ZERO
                                             for c in mul_coords(x, y)))
        if isinstance(other, (int, Fraction)):
            return Element(self.level, tuple(c * other for c in self.coords))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Element(self.level, tuple(other * c for c in self.coords))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of element by zero scalar")
            return Element(self.level, tuple(c / other for c in self.coords))
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element)
                and self.level == other.level
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.level, self.coords))

    def __bool__(self) -> bool:
        return any(self.coords)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({self.level}, {format_element(self)!r})"

    # -- involutions and forms -------------------------------------------

    def conjugate(self) -> "Element":
        return Element(self.level, conj_coords(self.coords))

    def trace(self) -> Fraction:
        """t(x) = x + conj(x), as the scalar t with x + conj(x) == t*e0."""
        return 2 * self.coords[0]

    def inner(self, other: "Element") -> Fraction:
        """<x,y> = (x conj(y) + y conj(x)) / 2 == the Euclidean dot product."""
        self._check_level(other)
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def norm_sq(self) -> Fraction:
        return sum(c * c for c in self.coords)

    def is_doubly_pure(self) -> bool:
        """True iff both doubling halves have zero trace (level >= 1)."""
        if self.level < 1:
            raise LevelError("doubly pure is defined for level >= 1")
        return self.coords[0] == 0 and self.coords[1 << (self.level - 1)] == 0


# -- derived operations ------------------------------------------------------

def associator(a: Element, b: Element, c: Element) -> Element:
    """(a,b,c) = (ab)c - a(bc); zero iff the triple associates."""
    return (a * b) * c - a * (b * c)


def commutator(x: Element, y: Element) -> Element:
    return x * y - y * x


def tilde(x: Element) -> Element:
    """Right multiplication by the half unit: (x1, x2) -> (-x2, x1).

    A norm-preserving map with tilde(tilde(x)) == -x.
    """
    if x.level < 1:
        raise LevelError("tilde needs level >= 1")
    h = 1 << (x.level - 1)
    return Element(x.level, tuple(-c for c in x.coords[h:]) + x.coords[:h])


def swap_halves(x: Element) -> Element:
    """The involution (x1, x2) -> (x2, x1)."""
    if x.level < 1:
        raise LevelError("swap_halves needs level >= 1")
    h = 1 << (x.level - 1)
    return Element(x.level, x.coords[h:] + x.coords[:h])


def is_alternative(a: Element) -> bool:
    """True iff (a, a, x) == 0 for every x.

    Checking the canonical basis in the third slot suffices because the
    associator is linear there.  The zero element counts as alternative.
    """
    aa = a * a
    for k in range(1 << a.level):
        ek = Element.basis(a.level, k)
        if aa * ek != a * (a * ek):
            return False
    return True


# -- text form ----------------------------------------------------------------
#
# element  := term (('+'|'-') term)*
# term     := [sign] [rational '*'] 'e' index | [sign] rational
# rational := integer ['/' positive-integer]
#
# "0" is the zero element.  Canonical form: ascending basis index, lowest
# terms, coefficient 1 omitted, e0 coefficient printed as a bare rational.

_RATIONAL = re.compile(r"\d+(?:\s*/\s*\d+)?")
_INDEX = re.compile(r"\d+")


def format_element(x: Element) -> str:
    parts = []
    for i, c in enumerate(x.coords):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if mag == 1:
            body = f"e{i}"
        elif i == 0:
            body = str(mag)
        else:
            body = f"{mag}*e{i}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    head_sign, head = parts[0]
    return ("-" if head_sign == "-" else "") + head + "".join(s + b for s, b in parts[1:])


def parse_element(text: str, level: int) -> Element:
    """Parse the grammar above at the given level; raises ParseError with a
    character position on bad syntax or an out-of-range basis index."""
    if level < 0:
        raise LevelError("level must be a non-negative integer")
    dim = 1 << level
    coords = [Fraction(0)] * dim
    s = text
    n = len(s)

    def ws(i: int) -> int:
        while i < n and s[i].isspace():
            i += 1
        return i

    i = ws(0)
    if i == n:
        raise ParseError("empty element text", i)
    first = True
    while i < n:
        sign = 1
        if s[i] in "+-":
            if s[i] == "-":
                sign = -1
            i = ws(i + 1)
            if i == n:
                raise ParseError("dangling sign", i)
        elif not first:
            raise ParseError("expected '+' or '-' between terms", i)
        coeff = None
        m = _RATIONAL.match(s, i)
        if m:
            body = re.sub(r"\s+", "", m.group())
            try:
                coeff = Fraction(body)
            except ZeroDivisionError:
                raise ParseError("zero denominator", i) from None
            i = ws(m.end())
            if i < n and s[i] == "*":
                i = ws(i + 1)
                if i == n or s[i] != "e":
                    raise ParseError("expected basis symbol after '*'", i)
            else:
                coords[0] += sign * coeff
                first = False
                continue
        if i < n and s[i] == "e":
            mi = _INDEX.match(s, i + 1)
            if mi is None:
                raise ParseError("expected digits after 'e'", i + 1)
            idx = int(mi.group())
            if idx >= dim:
                raise ParseError(
                    f"basis index e{idx} out of range for level {level}", i)
            coords[idx] += sign * (1 if coeff is None else coeff)
            i = ws(mi.end())
            first = False
            continue
        raise ParseError("expected a term", i)
    return Element(level, coords)
