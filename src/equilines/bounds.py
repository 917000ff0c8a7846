"""Lower bounds on equichromatic line counts, checked against actual profiles.

Six named theorems are evaluated.  Each selects lines by an equichromatic
query (balance tolerance r, maximum points per line) and carries an exact
bound in n, k (and sometimes the total line count t) from
``bound_value``.  Its precondition is the gate of the incidence
inequality its ``TheoremInfo`` names, read from
``inequalities.INEQUALITIES`` at N = 2n - k.  ``verdict`` decides gate
and bound from the colorless incidence alone, so one verdict covers every
coloring of a point set with the same (n, k); ``evaluate_bound`` and the
search both take it from there.

PS1-PS4 are the Purdy-Smith bounds; EQUI_SIX and EQUI_FOUR are the two
bounds whose derivations the proofcheck module certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .geometry import ColoredConfiguration, Incidence
from .inequalities import InequalityKind, gate
from .profiles import EquichromaticQuery, LineProfile, compute_profile, count_equichromatic


class BoundTheorem(Enum):
    PS1 = "ps1"
    PS2 = "ps2"
    PS3 = "ps3"
    PS4 = "ps4"
    EQUI_SIX = "equisix"
    EQUI_FOUR = "equifour"


# Cells carrying positive weight in the EQUI_FOUR certificate; the query
# additionally selects the zero-weight cells (1,3) and (3,1).
EQUI_FOUR_SUPPORT_CELLS = frozenset({(0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2)})


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
    t = len(incidence.lines) if info.needs_total_lines else None
    return applicable, detail, bound_value(theorem, n, k, t)


def evaluate_bound(
    theorem: BoundTheorem,
    config: ColoredConfiguration,
    profile: LineProfile | None = None,
) -> BoundReport:
    """Compare the actual equichromatic count against the theorem's bound."""
    if profile is None:
        profile = compute_profile(config)
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
