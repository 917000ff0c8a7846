"""Incidence inequalities on the line-size marginals t_m.

``INEQUALITIES`` is the one table of the five inequalities (Melchior,
Langer, Hirzebruch linear and quadratic, Bojanowski-Pokora), each of the
form sum left(m) t_m >= constant(N) + sum right(m) t_m over the colorless
marginals of a configuration (t_m = lines through exactly m of the N
points), with its applicability gate.  The bounds module takes each
theorem's precondition from one of these gates at N = 2n - k, and the
proofcheck templates combine the rows with the counting identities.

Melchior needs real coordinates; the other four hold over C.  Sides are
always reported exactly, even when the gate fails, because
inapplicable-but-violated cases are instructive diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping

from .geometry import ColoredConfiguration, Incidence


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


@dataclass(frozen=True)
class InequalityReport:
    kind: InequalityKind
    applicable: bool
    precondition_detail: str
    lhs: Fraction
    rhs: Fraction
    satisfied: bool | None

    @property
    def slack(self) -> Fraction:
        return self.lhs - self.rhs


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


def _sides(kind: InequalityKind, incidence: Incidence) -> tuple[Fraction, Fraction]:
    row = INEQUALITIES[kind]
    tk = incidence.size_counts.items()
    lhs = sum((row.left(m) * c for m, c in tk), Fraction(0))
    rhs = sum((row.right(m) * c for m, c in tk), Fraction(row.constant(incidence.total_points)))
    return lhs, rhs


def evaluate(kind: InequalityKind, config: ColoredConfiguration) -> InequalityReport:
    """Evaluate one inequality with exact sides and precondition status.

    A failed precondition yields applicable=False with satisfied=None;
    the sides are still reported for diagnostics.
    """
    incidence = config.incidence
    applicable, detail = gate(kind, incidence, incidence.total_points, INEQUALITIES[kind].label)
    lhs, rhs = _sides(kind, incidence)
    return InequalityReport(
        kind=kind,
        applicable=applicable,
        precondition_detail=detail,
        lhs=lhs,
        rhs=rhs,
        satisfied=(lhs >= rhs) if applicable else None,
    )


def evaluate_all(config: ColoredConfiguration) -> tuple[InequalityReport, ...]:
    return tuple(evaluate(kind, config) for kind in InequalityKind)
