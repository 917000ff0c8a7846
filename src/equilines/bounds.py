"""Lower bounds on equichromatic line counts, checked against actual profiles.

Each of the six theorems of ``tables.BoundTheorem`` is evaluated from its
row of the exact tables.  ``verdict`` decides gate and bound from the
colorless incidence alone, so one verdict covers every coloring of a
point set with the same (n, k); ``evaluate_bound`` and the search both
take it from there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .tables import THEOREMS, BoundTheorem, LineProfile, bound_value, count_equichromatic, gate

if TYPE_CHECKING:
    from .geometry import Incidence
    from .points import ColoredConfiguration


class BoundReport(NamedTuple):
    theorem: BoundTheorem
    applicable: bool
    precondition_detail: str
    bound: Fraction
    actual: int
    satisfied: bool | None
    # Count over the theorem row's support_cells; None where it has none.
    support_actual: int | None = None

    @property
    def slack(self) -> Fraction:
        return self.actual - self.bound

    @property
    def bound_ceiling(self) -> int:
        """Smallest integer >= bound; integer counts satisfying the bound
        also satisfy this, so it is reported but never the primary check."""
        return math.ceil(self.bound)


def verdict(
    theorem: BoundTheorem, n: int, k: int, incidence: Incidence
) -> tuple[bool, str, Fraction]:
    """Applicability, its detail, and the exact bound, from colorless data.

    Realness, the largest collinear subset, the line count t, n and k are
    all independent of which points carry which color, so one verdict
    covers every coloring of a point set with the same (n, k).
    """
    row = THEOREMS[theorem]
    applicable, detail = gate(row.gate, incidence, 2 * n - k, "limit")
    t = len(incidence) if row.needs_total_lines else None
    return applicable, detail, bound_value(theorem, n, k, t)


def evaluate_bound(
    theorem: BoundTheorem, config: ColoredConfiguration, profile: LineProfile
) -> BoundReport:
    """Compare the actual equichromatic count against the theorem's bound."""
    applicable, detail, bound = verdict(theorem, config.n, config.k, config.incidence)
    row = THEOREMS[theorem]
    actual = count_equichromatic(profile, row.query)
    cells = row.support_cells
    support = None if cells is None else sum(c for cell, c in profile.counts if cell in cells)
    return BoundReport(
        theorem=theorem,
        applicable=applicable,
        precondition_detail=detail,
        bound=bound,
        actual=actual,
        satisfied=(actual >= bound) if applicable else None,
        support_actual=support,
    )


def evaluate_all_bounds(
    config: ColoredConfiguration, profile: LineProfile
) -> tuple[BoundReport, ...]:
    return tuple(evaluate_bound(th, config, profile) for th in BoundTheorem)
