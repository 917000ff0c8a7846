"""Exact arithmetic in the quadratic field Q(sqrt(d)).

Elements are stored as a pair of rationals (a, b) meaning a + b*sqrt(d)
for a fixed squarefree integer d.  d > 0 gives a subfield of R, d < 0 a
subfield of C.  All arithmetic is exact; there is no floating point on
any code path that decides geometry.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from numbers import Rational

from .errors import ConfigError, Frozen

# Squarefreeness is checked by trial division up to sqrt(|d|), so |d| is
# capped to keep that check (and every config parse) fast.
MAX_ABS_DISCRIMINANT = 10**12


def is_squarefree(d: int) -> bool:
    """True iff no prime square divides d."""
    m = abs(d)
    if m == 0:
        return False
    p = 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        if m % p == 0:
            m //= p
        p += 1
    return True


class Discriminant(Frozen):
    """The squarefree integer d fixing the ambient field Q(sqrt(d))."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        if d in (0, 1):
            raise ValueError(f"discriminant must not be 0 or 1, got {d}")
        if abs(d) > MAX_ABS_DISCRIMINANT:
            raise ValueError(f"discriminant must satisfy |d| <= {MAX_ABS_DISCRIMINANT}, got {d}")
        if not is_squarefree(d):
            raise ValueError(f"discriminant must be squarefree, got {d}")
        object.__setattr__(self, "d", d)

    def _key(self) -> tuple:
        return (self.d,)


class QuadElement(Frozen):
    """a + b*sqrt(d) with exact rational a, b.

    Fractions keep themselves in lowest terms with positive denominator,
    so equality and hashing are componentwise on canonical forms.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def _key(self) -> tuple:
        return self.a, self.b, self.d

    def _check_same_field(self, other: QuadElement):
        if self.d != other.d:
            raise ConfigError(
                f"cannot combine elements of Q(sqrt({self.d})) and Q(sqrt({other.d}))"
            )

    def __add__(self, other: QuadElement) -> QuadElement:
        if not isinstance(other, QuadElement):
            return NotImplemented
        self._check_same_field(other)
        return QuadElement(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other: QuadElement) -> QuadElement:
        if not isinstance(other, QuadElement):
            return NotImplemented
        self._check_same_field(other)
        return QuadElement(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self) -> QuadElement:
        return QuadElement(-self.a, -self.b, self.d)

    def __mul__(self, other: QuadElement) -> QuadElement:
        if not isinstance(other, QuadElement):
            return NotImplemented
        self._check_same_field(other)
        return QuadElement(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def __truediv__(self, other: QuadElement) -> QuadElement:
        return self * other.invert() if isinstance(other, QuadElement) else NotImplemented

    def invert(self) -> QuadElement:
        """Multiplicative inverse (a - b*sqrt(d)) / (a^2 - b^2 d).

        The norm a^2 - b^2 d vanishes only at zero because d is squarefree
        and not 1, so sqrt(d) is irrational.
        """
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError(f"division by zero in Q(sqrt({self.d}))")
        return QuadElement(self.a / norm, -self.b / norm, self.d)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def is_real(self) -> bool:
        """True iff the element lies in R: always for d > 0, else iff b = 0."""
        return self.d > 0 or self.b == 0

    def __complex__(self) -> complex:
        """Approximate numeric embedding, for diagnostics only."""
        root = math.sqrt(abs(self.d)) * (1j if self.d < 0 else 1)
        return complex(self.a) + complex(self.b) * root

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"QuadElement({self.a!r}, {self.b!r}, d={self.d})"


def quad(a: Rational | int | str, b: Rational | int | str = 0, *, d: int) -> QuadElement:
    """Build a + b*sqrt(d) from ints, Fractions, or fraction strings."""
    return QuadElement(Fraction(a), Fraction(b), d)


# The rational part must be followed by a sign or the end, so that a bare
# coefficient like "10*sqrt(-3)" binds to the sqrt term.
_ELEMENT_RE = re.compile(
    r"^(?:(?P<rat>-?\d+(?:/\d+)?)(?=[+-]|$))?"
    r"(?:(?P<sign>[+-])?(?:(?P<coef>\d+(?:/\d+)?)\*)?sqrt\((?P<d>-?\d+)\))?$"
)
_ZERO, _ONE = Fraction(0), Fraction(1)


def parse_element(text: str, d: int) -> QuadElement:
    """Parse the textual form "a/b" or "a/b+c/e*sqrt(d)".

    Denominators may be omitted ("3" means "3/1"), as may the rational
    part ("sqrt(-3)" means 0 + 1*sqrt(-3)) and a unit coefficient
    ("1/2+sqrt(2)").  Whitespace is ignored.  The written discriminant
    must match the ambient one.
    """
    s = "".join(text.split())
    if not s:
        raise ConfigError("empty field element")
    m = _ELEMENT_RE.match(s)
    rat, sign, coef, root = m.groups() if m else (None,) * 4
    if rat is None and root is None:
        raise ConfigError(f"cannot parse field element {text!r}")
    a = _rational(rat, text) if rat is not None else _ZERO
    b = _ZERO
    if root is not None:
        written_d = int(root)
        if written_d != d:
            raise ConfigError(
                f"element {text!r} uses sqrt({written_d}) but the ambient field is Q(sqrt({d}))"
            )
        b = _rational(coef, text) if coef is not None else _ONE
        b = -b if sign == "-" else b
    return QuadElement(a, b, d)


def _rational(part: str, text: str) -> Fraction:
    num, _, den = part.partition("/")
    try:
        numerator, denominator = int(num), int(den or 1)
    except ValueError:  # the pattern admits only digits: past int()'s digit limit
        digits = max(len(num.lstrip("-")), len(den))
        limit = sys.get_int_max_str_digits()
        raise ConfigError(f"a numeral has {digits} digits; the limit is {limit}") from None
    if denominator == 0:
        raise ConfigError(f"zero denominator in field element {text!r}")
    return Fraction(numerator, denominator)


def format_element(x: QuadElement) -> str:
    """Canonical textual form; inverse of parse_element on every element."""
    if x.b == 0:
        return str(x.a)
    mag = -x.b if x.b < 0 else x.b
    root = f"sqrt({x.d})" if mag == 1 else f"{mag}*sqrt({x.d})"
    if x.a == 0:
        return root if x.b > 0 else f"-{root}"
    sign = "+" if x.b > 0 else "-"
    return f"{x.a}{sign}{root}"
