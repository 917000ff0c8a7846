"""The exact tables of the analyzer, each fact defined once in ints and
Fractions; no array code is imported, so the parser and ``proofcheck``
run without numpy.

``INEQUALITIES`` holds the five incidence inequalities (Melchior, Langer,
Hirzebruch linear and quadratic, Bojanowski-Pokora) on the colorless
marginals t_m (lines through exactly m of the N points), each with its
``gate``; Melchior needs real coordinates, the other four hold over C.
``IDENTITIES`` holds the counting identities sum w(i, j) t_{i,j} =
rhs(n, k) that tie a profile (t_{i,j} = lines with i green and j red
points) to (n, k) alone.  Each of the six bound theorems (PS1-PS4 are
Purdy-Smith) selects lines by an ``EquichromaticQuery``, is gated by one
inequality at N = 2n - k and has an exact ``bound_value``.  The templates
combine identity rows and one inequality row into the coefficient claims
that ``proofcheck`` certifies for EQUI_SIX and EQUI_FOUR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Callable, Mapping

if TYPE_CHECKING:
    from .geometry import Incidence
    from .profiles import IdentityReport

Cell = tuple[int, int]


class InequalityKind(Enum):
    MELCHIOR = "melchior"
    LANGER = "langer"
    HIRZEBRUCH_LINEAR = "hirzebruch-linear"
    HIRZEBRUCH_QUADRATIC = "hirzebruch-quadratic"
    BOJANOWSKI_POKORA = "bojanowski-pokora"


@dataclass(frozen=True)
class Side:
    """One side's weight of t_m: the polynomial sum coeffs[d] * m^d, except
    at the small sizes listed in ``exceptions``."""

    coeffs: tuple[int, ...] = ()
    exceptions: Mapping[int, int | Fraction] = field(default_factory=dict)

    def __call__(self, m: int) -> int | Fraction:
        if m in self.exceptions:
            return self.exceptions[m]
        return sum(c * m**d for d, c in enumerate(self.coeffs))


@dataclass(frozen=True)
class Inequality:
    """sum left(m) t_m >= constant(N) + sum right(m) t_m, applicable when at
    most limit(N) points are collinear (``label`` names that limit), or in
    the real plane when ``limit`` is None.  The report keeps each term on
    the side the literature writes it.  Above the last exception of either
    side the weight is one polynomial in m; proofcheck derives its tail there."""

    left: Side
    right: Side
    constant: Callable[[int], int | Fraction]
    limit: Callable[[int], Fraction] | None
    label: str

    def weight(self, m: int) -> int | Fraction:
        """Net weight of t_m once every term is moved to the left."""
        return self.left(m) - self.right(m)


_TWO_THIRDS = lambda n: Fraction(2 * n, 3)  # noqa: E731
# Weights from Hirzebruch (1983) and Pokora, "Hirzebruch-type inequalities
# viewed as tools in combinatorics"; lines have m >= 2 points.
INEQUALITIES: dict[InequalityKind, Inequality] = {
    InequalityKind.MELCHIOR: Inequality(Side((3, -1)), Side(), lambda n: 3, None, ""),
    InequalityKind.LANGER: Inequality(
        Side((0, 1)), Side(), lambda n: Fraction(n * (n + 3), 3), _TWO_THIRDS, "2N/3"
    ),
    InequalityKind.HIRZEBRUCH_LINEAR: Inequality(
        Side(exceptions={2: 1, 3: 1}), Side((-4, 1), {2: 0, 3: 0}), lambda n: n,
        lambda n: Fraction(n - 2), "N-2",
    ),
    InequalityKind.HIRZEBRUCH_QUADRATIC: Inequality(
        Side(exceptions={2: 1, 3: Fraction(3, 4)}), Side((-9, 2), {2: 0, 3: 0, 4: 0}),
        lambda n: n, lambda n: Fraction(n - 3), "N-3",
    ),
    InequalityKind.BOJANOWSKI_POKORA: Inequality(
        Side((0, 4, -1)), Side(), lambda n: 4 * n, _TWO_THIRDS, "2N/3"
    ),
}


def gate(
    kind: InequalityKind, incidence: Incidence, n_points: int, label: str
) -> tuple[bool, str]:
    """The inequality's gate for ``n_points`` points: real coordinates and
    not all points on one line when it has no limit, else at most
    limit(n_points) points on one line, named ``label`` in the detail."""
    limit = INEQUALITIES[kind].limit
    if limit is None:
        if not incidence.all_real:
            return False, "coordinates are not all real"
        if incidence.max_collinear == incidence.total_points:
            return False, "all points are collinear"
        return True, "coordinates real and not all points collinear"
    ok = incidence.max_collinear <= limit(n_points)
    rel = "<=" if ok else ">"
    return ok, f"max_collinear={incidence.max_collinear} {rel} {label}={limit(n_points)}"


@dataclass(frozen=True)
class LineProfile:
    """Counts t_{i,j} for one configuration, its n and k, and its checked identities."""

    counts: tuple[tuple[Cell, int], ...]
    n: int
    k: int
    identities: IdentityReport | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_dict(cls, cells: dict[Cell, int], n: int, k: int) -> LineProfile:
        items = tuple(sorted((cell, c) for cell, c in cells.items() if c))
        return cls(items, n, k)

    def as_dict(self) -> dict[Cell, int]:
        return dict(self.counts)

    def cell(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)


@dataclass(frozen=True)
class EquichromaticQuery:
    """Select cells with i + j >= 2, |i - j| <= r, and i + j <= max_points.

    max_points=None leaves the line size unbounded.
    """

    r: int
    max_points: int | None = None

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("color-balance tolerance r must be >= 0")
        if self.max_points is not None and self.max_points < 1:
            raise ValueError("max_points must be positive")

    def selects(self, i: int, j: int) -> bool:
        if i + j < 2 or abs(i - j) > self.r:
            return False
        return self.max_points is None or i + j <= self.max_points


def count_equichromatic(profile: LineProfile, query: EquichromaticQuery) -> int:
    """Number of determined lines in the cells selected by the query."""
    return sum(c for (i, j), c in profile.counts if query.selects(i, j))


@dataclass(frozen=True)
class Identity:
    """sum weight(i, j) * t_{i,j} = rhs(n, k) over every profile, the weight
    held as its coefficients of (i - j)^a (i + j)^b, keyed by (a, b)."""

    terms: Mapping[tuple[int, int], Fraction]
    rhs: Callable[[int, int], int]

    def weight(self, i: int, j: int) -> Fraction:
        return sum(c * (i - j) ** a * (i + j) ** b for (a, b), c in self.terms.items())


_QUARTER = Fraction(1, 4)
# With s = i + j and u = i - j: i*j = (s^2 - u^2) / 4 and
# C(i, 2) + C(j, 2) = (s^2 + u^2) / 4 - s / 2.
IDENTITIES: dict[str, Identity] = {
    "mixed_pairs": Identity({(0, 2): _QUARTER, (2, 0): -_QUARTER}, lambda n, k: n * (n - k)),
    "same_color_pairs": Identity(
        {(0, 2): _QUARTER, (2, 0): _QUARTER, (0, 1): Fraction(-1, 2)},
        lambda n, k: comb(n, 2) + comb(n - k, 2),
    ),
    "incidence_balance": Identity({(0, 1): 1, (2, 0): -1}, lambda n, k: 2 * n - (k * k + k)),
}


class BoundTheorem(Enum):
    PS1 = "ps1"
    PS2 = "ps2"
    PS3 = "ps3"
    PS4 = "ps4"
    EQUI_SIX = "equisix"
    EQUI_FOUR = "equifour"


@dataclass(frozen=True)
class TheoremInfo:
    query: EquichromaticQuery
    gate: InequalityKind  # whose gate at N = 2n - k is the precondition
    needs_total_lines: bool


_K = InequalityKind
_INFO: dict[BoundTheorem, TheoremInfo] = {
    BoundTheorem.PS1: TheoremInfo(EquichromaticQuery(1, None), _K.MELCHIOR, True),
    BoundTheorem.PS2: TheoremInfo(EquichromaticQuery(1, 4), _K.MELCHIOR, False),
    BoundTheorem.PS3: TheoremInfo(EquichromaticQuery(1, 5), _K.HIRZEBRUCH_QUADRATIC, False),
    BoundTheorem.PS4: TheoremInfo(EquichromaticQuery(1, 6), _K.MELCHIOR, True),
    BoundTheorem.EQUI_SIX: TheoremInfo(EquichromaticQuery(1, 6), _K.HIRZEBRUCH_LINEAR, False),
    BoundTheorem.EQUI_FOUR: TheoremInfo(EquichromaticQuery(2, 4), _K.BOJANOWSKI_POKORA, False),
}


def theorem_info(theorem: BoundTheorem) -> TheoremInfo:
    return _INFO[theorem]


def bound_value(
    theorem: BoundTheorem, n: int, k: int, t: int | None = None
) -> Fraction:
    """Exact rational bound for given n, k (and t where the formula uses it)."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    if theorem_info(theorem).needs_total_lines and t is None:
        raise ValueError(f"{theorem.value} needs the total number of determined lines")
    if theorem is BoundTheorem.PS1:
        return Fraction(t + 2 * n + 3 - k * (k + 1), 4)
    if theorem is BoundTheorem.PS2:
        return Fraction(2 * n + 6 - k * (k + 1), 4)
    if theorem in (BoundTheorem.PS3, BoundTheorem.EQUI_SIX):
        return Fraction(6 * n - k * (k + 3), 4)
    if theorem is BoundTheorem.PS4:
        return Fraction(t + 6 * n + 15 - 3 * k * (k + 1), 12)
    if theorem is BoundTheorem.EQUI_FOUR:
        return Fraction(10 * n - k * (k + 5), 6)
    raise ValueError(f"unknown theorem {theorem!r}")


@dataclass(frozen=True)
class InequalityTemplate:
    """sum_r sign_r * identity_r + sign * inequality, with a claimed
    exceptional sign pattern.

    The combination reads sum alpha(i, j) t_{i,j} >= RHS(n, k) when the
    inequality's sign is +1, claiming finitely many positive cells, and
    <= RHS(n, k) when it is -1, claiming finitely many negative cells.
    """

    name: str
    identities: tuple[tuple[int, str], ...]
    inequality: tuple[int, InequalityKind]
    claimed_cells: Mapping[Cell, Fraction]

    def coefficient(self, i: int, j: int) -> Fraction:
        sign, kind = self.inequality
        ids = sum(s * IDENTITIES[name].weight(i, j) for s, name in self.identities)
        return Fraction(ids + sign * INEQUALITIES[kind].weight(i + j))

    def rhs(self, n: int, k: int) -> Fraction:
        sign, kind = self.inequality
        ids = sum(s * IDENTITIES[name].rhs(n, k) for s, name in self.identities)
        return Fraction(ids + sign * INEQUALITIES[kind].constant(2 * n - k))


EQUI_SIX_TEMPLATE = InequalityTemplate(
    name="equisix",
    identities=((+1, "same_color_pairs"), (-1, "mixed_pairs")),
    inequality=(-1, InequalityKind.HIRZEBRUCH_LINEAR),
    claimed_cells={
        (1, 1): Fraction(-2), (1, 2): Fraction(-2), (2, 1): Fraction(-2), (2, 2): Fraction(-2),
        (2, 3): Fraction(-1), (3, 2): Fraction(-1), (3, 3): Fraction(-1),
    },
)

EQUI_FOUR_TEMPLATE = InequalityTemplate(
    name="equifour",
    identities=((+1, "incidence_balance"),),
    inequality=(+1, InequalityKind.BOJANOWSKI_POKORA),
    claimed_cells={
        (0, 2): Fraction(2), (2, 0): Fraction(2), (1, 1): Fraction(6),
        (1, 2): Fraction(5), (2, 1): Fraction(5), (2, 2): Fraction(4),
    },
)

TEMPLATES: dict[BoundTheorem, InequalityTemplate] = {
    BoundTheorem.EQUI_SIX: EQUI_SIX_TEMPLATE,
    BoundTheorem.EQUI_FOUR: EQUI_FOUR_TEMPLATE,
}

# Cells carrying positive weight in the EQUI_FOUR certificate; the query
# additionally selects the zero-weight cells (1,3) and (3,1).
EQUI_FOUR_SUPPORT_CELLS = frozenset(EQUI_FOUR_TEMPLATE.claimed_cells)
