"""Exact projective points and colored configurations over Q(sqrt(d)).

A point is its primitive integer row (xa, xb, ya, yb, za, zb), with
x = xa + xb*sqrt(d) etc., built fraction-free from any triple of field
elements that spans it: equality, duplicates, realness and the pair
keys all read the row, and the canonical Fraction triple (first nonzero
coordinate 1) is rebuilt from it only to render the point.  No array code
is imported here: ``geometry`` enumerates a configuration's lines on use.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import ConfigError, Frozen
from .quadfield import Discriminant, QuadElement, quad

if TYPE_CHECKING:
    from .geometry import Incidence

GREEN = "green"
RED = "red"
COLORS = (GREEN, RED)


def _canonical_row(*triple: QuadElement) -> tuple[int, ...]:
    """The primitive integer row (xa, xb, ya, yb, za, zb), x = xa + xb*sqrt(d)
    etc., Q-proportional to the triple over its first nonzero coordinate, that
    entry > 0: cleared to one denominator, times the conjugate of the pivot
    (a rational pivot then) and divided by the gcd, in ints."""
    d = triple[0].d
    if triple[1].d != d or triple[2].d != d:
        raise ConfigError("coordinates of one triple must share a discriminant")
    ratios = [f.as_integer_ratio() for c in triple for f in (c.a, c.b)]
    den = lcm(*(q for _, q in ratios))
    row = [p * (den // q) for p, q in ratios]
    k = 0 if row[0] or row[1] else 2 if row[2] or row[3] else 4
    pa, pb = row[k], row[k + 1]
    if not (pa or pb):
        raise ValueError("homogeneous triple must not be identically zero")
    if pb:  # (a + b sqrt(d)) (pa - pb sqrt(d)) = (a pa - b pb d) + (b pa - a pb) sqrt(d)
        pairs = zip(row[::2], row[1::2])
        row = [v for a, b in pairs for v in (a * pa - b * pb * d, b * pa - a * pb)]
    g = gcd(*row) if row[k] > 0 else -gcd(*row)
    return tuple(v // g for v in row)


class ProjPoint(Frozen):
    """Projective point (x : y : z) over Q(sqrt(d)), held as ``d`` and its
    canonical ``row``; equal points have equal rows."""

    def __init__(self, x: QuadElement, y: QuadElement, z: QuadElement):
        vars(self).update(d=x.d, row=_canonical_row(x, y, z))

    def _key(self) -> tuple:
        return self.d, self.row

    def __repr__(self) -> str:
        return f"ProjPoint(d={self.d}, row={self.row})"

    @property
    def coords(self) -> tuple[QuadElement, QuadElement, QuadElement]:
        """The canonical triple, first nonzero coordinate 1, read off the row."""
        r = self.row  # the pivot's entry is its first nonzero rational part
        pivot = r[0] or r[2] or r[4]
        f = [Fraction(v, pivot) for v in r]
        return tuple(QuadElement(f[k], f[k + 1], self.d) for k in (0, 2, 4))

    @property
    def is_real(self) -> bool:
        return self.d > 0 or not any(self.row[1::2])

    def __str__(self) -> str:
        return "({} : {} : {})".format(*self.coords)


def affine_point(x, y, *, d: int) -> ProjPoint:
    """Lift an affine point (x, y) to (x : y : 1)."""
    return ProjPoint(quad(x, d=d), quad(y, d=d), quad(1, d=d))


class ColoredConfiguration(Frozen):
    """Distinct projective points, each green or red, over one field.

    Green is the majority color by convention: inputs with more red than
    green points are ingested with the colors swapped (``colors_swapped``
    records that, and equality ignores it) so that k = green - red is
    always >= 0.
    """

    def __init__(self, discriminant: Discriminant, points: tuple[ProjPoint, ...],
                 colors: tuple[str, ...]):
        if len(points) != len(colors):
            raise ValueError("points and colors must have equal length")
        if not points:
            raise ValueError("a configuration needs at least one point")
        for c in colors:
            if c not in COLORS:
                raise ValueError(f"unknown color {c!r}")
        for p in points:
            if p.d != discriminant.d:
                raise ConfigError(f"point {p} does not live in Q(sqrt({discriminant.d}))")
        seen: dict[tuple[int, ...], int] = {}
        for i, p in enumerate(points):
            first = seen.setdefault(p.row, i)
            if first != i:
                raise ConfigError(f"points {first} and {i} coincide at {p}")
        greens = colors.count(GREEN)
        swapped = greens < len(points) - greens
        if swapped:
            colors = tuple(GREEN if c == RED else RED for c in colors)
        vars(self).update(discriminant=discriminant, points=points, colors=colors,
                          colors_swapped=swapped)

    def _key(self) -> tuple:
        return self.discriminant, self.points, self.colors

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        """Number of green points (the majority color)."""
        return self.colors.count(GREEN)

    @property
    def k(self) -> int:
        """Green count minus red count; nonnegative by convention."""
        return 2 * self.n - self.total

    @cached_property
    def incidence(self) -> Incidence:
        """Colorless line structure of the points, enumerated on first use."""
        from .geometry import enumerate_lines  # only once lines are read

        return enumerate_lines(self.points)


def configuration(
    points: tuple[ProjPoint, ...] | list[ProjPoint],
    colors: tuple[str, ...] | list[str],
    d: int,
) -> ColoredConfiguration:
    return ColoredConfiguration(Discriminant(d), tuple(points), tuple(colors))


# Analysis and search key every pair of points exactly, so generator
# specs and config files are untrusted input whose size must be bounded
# before any point is built.
MAX_POINTS = 1000


def check_point_count(total: int) -> None:
    if total > MAX_POINTS:
        raise ConfigError(f"{total} points exceed the limit of {MAX_POINTS}")


# Largest bit length of a denominator-cleared coordinate component.  The
# pair keys are residues mod a prime whatever the size, so the limit bounds
# only parsing, the per-point reduction and the exact check: `analyze` of
# 1000 points (1 : y : z) over Q(sqrt(5)) with every component in
# [2^191, 2^192) takes 0.7 s and peaks at 52 MB (one process, 2-core Xeon).
MAX_KEY_BITS = 192


def check_key_bits(row: Iterable[int]) -> int:
    """The largest |component| of a point's row (or of several rows, chained);
    raises ConfigError when it has more than MAX_KEY_BITS bits."""
    m = max(map(abs, row), default=0)
    if m.bit_length() > MAX_KEY_BITS:
        raise ConfigError(f"a coordinate needs {m.bit_length()} bits; the limit is {MAX_KEY_BITS}")
    return m
