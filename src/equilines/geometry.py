"""Exact projective points and line enumeration over Q(sqrt(d)).

A point is its primitive integer row (xa, xb, ya, yb, za, zb), with
x = xa + xb*sqrt(d) etc., built fraction-free from any triple of field
elements that spans it: equality, duplicates, realness and the pair
keys all read the row, and the canonical Fraction triple (first nonzero
coordinate 1) is rebuilt from it only to render the point.
A point set's lines are enumerated once, keying the point pairs block by
block into one key array (int64 where the headroom is proven, Python ints
otherwise), into an ``Incidence``: every colorless fact the analysis
needs, including the CSR arrays (``kernels.IncidenceArrays``) that the
profile tally and the search kernels read, never an array of lines times
points.  The keys only group the pairs: a line is its points, and a
``DeterminedLine`` is built only when one is read.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .errors import (
    ConfigError,
    DuplicatePointError,
    FieldMismatchError,
    InsufficientPointsError,
)
from .kernels import IncidenceArrays, build_incidence
from .quadfield import Discriminant, QuadElement, quad

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
        raise FieldMismatchError("coordinates of one triple must share a discriminant")
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


@dataclass(frozen=True)
class ProjPoint:
    """Projective point (x : y : z) over Q(sqrt(d)), held as ``d`` and its
    canonical ``row``; equal points have equal rows."""

    x: InitVar[QuadElement]
    y: InitVar[QuadElement]
    z: InitVar[QuadElement]
    d: int = field(init=False)
    row: tuple[int, ...] = field(init=False)

    def __post_init__(self, x: QuadElement, y: QuadElement, z: QuadElement):
        vars(self).update(d=x.d, row=_canonical_row(x, y, z))

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


@dataclass(frozen=True)
class ColoredConfiguration:
    """Distinct projective points, each green or red, over one field.

    Green is the majority color by convention: inputs with more red than
    green points are ingested with the colors swapped (``colors_swapped``
    records that) so that k = green - red is always >= 0.
    """

    discriminant: Discriminant
    points: tuple[ProjPoint, ...]
    colors: tuple[str, ...]
    colors_swapped: bool = field(default=False, compare=False)

    def __post_init__(self):
        if len(self.points) != len(self.colors):
            raise ValueError("points and colors must have equal length")
        if not self.points:
            raise ValueError("a configuration needs at least one point")
        for c in self.colors:
            if c not in COLORS:
                raise ValueError(f"unknown color {c!r}")
        for p in self.points:
            if p.d != self.discriminant.d:
                raise FieldMismatchError(
                    f"point {p} does not live in Q(sqrt({self.discriminant.d}))"
                )
        seen: dict[tuple[int, ...], int] = {}
        for i, p in enumerate(self.points):
            first = seen.setdefault(p.row, i)
            if first != i:
                raise DuplicatePointError(f"points {first} and {i} coincide at {p}", (first, i))
        greens = self.colors.count(GREEN)
        if greens < len(self.points) - greens:
            object.__setattr__(
                self,
                "colors",
                tuple(GREEN if c == RED else RED for c in self.colors),
            )
            object.__setattr__(self, "colors_swapped", True)

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
        return Incidence.of(self.points)


def configuration(
    points: tuple[ProjPoint, ...] | list[ProjPoint],
    colors: tuple[str, ...] | list[str],
    d: int,
) -> ColoredConfiguration:
    return ColoredConfiguration(Discriminant(d), tuple(points), tuple(colors))


@dataclass(frozen=True, slots=True)
class DeterminedLine:
    """A line through >= 2 points of a set, as their indices."""

    point_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.point_indices)


class DeterminedLines(Sequence[DeterminedLine]):
    """The lines determined by a point set, sorted by point-index tuple:
    each line's points in increasing order as CSR (``indptr``, ``points``).
    A ``DeterminedLine`` is built only when read."""

    def __init__(self, indptr: np.ndarray, points: np.ndarray):
        self.indptr, self.points = indptr, points

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __getitem__(self, index: int | slice) -> DeterminedLine | tuple[DeterminedLine, ...]:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]
        start, stop = self.indptr[i : i + 2].tolist()
        return DeterminedLine(tuple(self.points[start:stop].tolist()))


# Largest bit length of a denominator-cleared coordinate component; above
# it, Python-int keying of 1000 points no longer ends within seconds.
MAX_KEY_BITS = 192


def check_key_bits(row: Iterable[int]) -> int:
    """The largest |component| of a point's row (or of several rows, chained);
    raises ConfigError when it has more than MAX_KEY_BITS bits."""
    m = max(map(abs, row), default=0)
    if m.bit_length() > MAX_KEY_BITS:
        raise ConfigError(f"a coordinate needs {m.bit_length()} bits; the limit is {MAX_KEY_BITS}")
    return m


def _key_dtype(ints: list[tuple[int, ...]], d: int):
    """np.int64 when _pair_keys provably stays exact in it on these
    coordinates, else object (Python ints).  With M the largest |component|
    and D = |d| >= 1, a cross-product component is at most C = 2 M^2 (1 + D)
    in absolute value and a key entry before the gcd at most C^2 (1 + D),
    which bounds every partial sum too.  Raises ConfigError when M has
    more than MAX_KEY_BITS bits."""
    m = check_key_bits(v for row in ints for v in row)
    c = 2 * m * m * (1 + abs(d))
    return np.int64 if c * c * (1 + abs(d)) < 2**63 else object


# Pairs keyed per _pair_keys call: its gathers, cross products and key
# stack scale with the block, not with C(N, 2).
_PAIR_BLOCK = 1 << 12


def _pair_keys(p: np.ndarray, q: np.ndarray, d: int) -> np.ndarray:
    """Column r: the canonical key of the line through points p[:, r], q[:, r].

    Columns are the points' integer rows (ProjPoint.row), and
    the keys keep their dtype.  The cross product is taken in Z[sqrt(d)].
    Multiplying through by the conjugate of the first nonzero component
    makes that component a plain (rational) integer, after which two
    field-proportional triples are integer-proportional; dividing by the
    gcd, signed by the first nonzero entry, yields a unique representative.
    """
    xa1, xb1, ya1, yb1, za1, zb1 = p
    xa2, xb2, ya2, yb2, za2, zb2 = q
    # (a + b sqrt(d)) * (c + e sqrt(d)) = (ac + be d) + (ae + bc) sqrt(d)
    ua = ya1 * za2 + yb1 * zb2 * d - (za1 * ya2 + zb1 * yb2 * d)
    ub = ya1 * zb2 + yb1 * za2 - (za1 * yb2 + zb1 * ya2)
    va = za1 * xa2 + zb1 * xb2 * d - (xa1 * za2 + xb1 * zb2 * d)
    vb = za1 * xb2 + zb1 * xa2 - (xa1 * zb2 + xb1 * za2)
    wa = xa1 * ya2 + xb1 * yb2 * d - (ya1 * xa2 + yb1 * xb2 * d)
    wb = xa1 * yb2 + xb1 * ya2 - (ya1 * xb2 + yb1 * xa2)
    u_lead, v_lead = (ua != 0) | (ub != 0), (va != 0) | (vb != 0)
    la = np.where(u_lead, ua, np.where(v_lead, va, wa))
    lb = np.where(u_lead, ub, np.where(v_lead, vb, wb))
    cross = ((ua, ub), (va, vb), (wa, wb))
    keys = np.stack([x for c, e in cross for x in (c * la - e * lb * d, e * la - c * lb)])
    g = np.gcd.reduce(keys)
    first = keys[(keys != 0).argmax(axis=0), np.arange(keys.shape[1])]
    return keys // np.where(first < 0, -g, g)


def enumerate_lines(points: tuple[ProjPoint, ...]) -> DeterminedLines:
    """All determined lines with their exact incident point index sets.

    The point pairs are keyed block by block into one key array, in int64
    when _key_dtype proves the headroom and in Python ints otherwise, so
    every temporary but the keys is bounded by the block size.  Each
    line's pairs share one key, so sum over lines of C(m, 2) = C(N, 2);
    the keys only group the pairs and are dropped.  Output is sorted by
    incident index tuple, hence independent of any internal ordering.
    """
    d = points[0].d if points else 0
    ints = [p.row for p in points]
    dtype = _key_dtype(ints, d)
    coords = np.array(ints, dtype=dtype).reshape(-1, 6).T
    i, j = np.triu_indices(len(points), 1)  # pairs in (i, j) order
    # One contiguous row per key component, for the sort and compare.
    keys = np.empty((6, i.shape[0]), dtype=dtype)
    for start in range(0, i.shape[0], _PAIR_BLOCK):
        b = slice(start, start + _PAIR_BLOCK)
        keys[:, b] = _pair_keys(coords[:, i[b]], coords[:, j[b]], d)
    order = np.lexsort(keys)  # stable: each line's pairs stay in (i, j) order
    new = np.zeros(order.shape[0], dtype=bool)
    new[:1] = True
    for row in keys:  # one sorted key row at a time, never all six
        row = row[order]
        new[1:] |= row[1:] != row[:-1]
    del keys, row
    group = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    # A line's first pair joins its two smallest points a < b, and its
    # first m - 1 pairs are (a, x) for its other points x, in increasing x.
    first = order[starts]
    sizes = np.bincount(group[i[order] == i[first][group]], minlength=starts.shape[0]) + 1
    del group, new
    # Lines share at most one point, so by first pair is by point-index tuple.
    by_first = np.argsort(first)
    sizes, starts, first = sizes[by_first], starts[by_first], first[by_first]
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    line = np.repeat(np.arange(sizes.shape[0]), sizes)
    # Entry t > 0 of a line is x of its t-th pair (a, x); entry 0, read
    # one pair early here, is a.
    members = j[order[starts[line] + np.arange(indptr[-1]) - indptr[line] - 1]]
    members[indptr[:-1]] = i[first]
    return DeterminedLines(indptr, members)


@dataclass(frozen=True)
class Incidence:
    """Colorless incidence structure of one point set.

    Everything here is independent of the coloring, so one enumeration
    serves the profile, the inequalities, the bound preconditions and the
    search kernels.  ``csr`` holds the lines' point-index tuples as CSR
    arrays in both directions, built once; the line sizes, t_m and the
    largest collinear subset are read off it.
    """

    total_points: int
    lines: DeterminedLines
    csr: IncidenceArrays
    size_counts: dict[int, int]  # t_m: lines through exactly m points
    max_collinear: int
    all_real: bool

    @classmethod
    def of(cls, points: tuple[ProjPoint, ...]) -> Incidence:
        if len(points) < 2:
            raise InsufficientPointsError("line enumeration needs at least 2 points")
        lines = enumerate_lines(points)
        csr = build_incidence(lines, len(points))
        sizes, counts = np.unique(csr.line_sizes, return_counts=True)
        return cls(
            total_points=len(points),
            lines=lines,
            csr=csr,
            size_counts=dict(zip(sizes.tolist(), counts.tolist())),
            max_collinear=int(sizes[-1]),
            all_real=all(p.is_real for p in points),
        )

    def t(self, m: int) -> int:
        return self.size_counts.get(m, 0)
