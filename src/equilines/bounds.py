"""Lower bounds on equichromatic line counts, checked against actual profiles.

Each of the six theorems of ``tables.BoundTheorem`` is evaluated from its
row of the exact tables.  ``verdict`` decides gate and bound from the
colorless incidence alone, so one verdict covers every coloring of a
point set with the same (n, k); ``evaluate_bound`` and the search both
take it from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .tables import (
    EQUI_FOUR_SUPPORT_CELLS,
    BoundTheorem,
    LineProfile,
    bound_value,
    count_equichromatic,
    gate,
    theorem_info,
)

if TYPE_CHECKING:
    from .geometry import Incidence
    from .points import ColoredConfiguration


@dataclass(frozen=True)
class BoundReport:
    theorem: BoundTheorem
    applicable: bool
    precondition_detail: str
    bound: Fraction
    actual: int
    satisfied: bool | None
    # Count over EQUI_FOUR_SUPPORT_CELLS only; None for other theorems.
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
    info = theorem_info(theorem)
    applicable, detail = gate(info.gate, incidence, 2 * n - k, "limit")
    t = len(incidence) if info.needs_total_lines else None
    return applicable, detail, bound_value(theorem, n, k, t)


def evaluate_bound(
    theorem: BoundTheorem, config: ColoredConfiguration, profile: LineProfile
) -> BoundReport:
    """Compare the actual equichromatic count against the theorem's bound."""
    applicable, detail, bound = verdict(theorem, config.n, config.k, config.incidence)
    actual = count_equichromatic(profile, theorem_info(theorem).query)
    support = None
    if theorem is BoundTheorem.EQUI_FOUR:
        support = sum(
            c for (i, j), c in profile.counts if (i, j) in EQUI_FOUR_SUPPORT_CELLS
        )
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
