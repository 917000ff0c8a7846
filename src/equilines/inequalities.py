"""Evaluation of the incidence inequalities of ``tables.INEQUALITIES``.

Each inequality is evaluated on the colorless marginals t_m of one
configuration, under its gate.  Sides are always reported exactly, even
when the gate fails, because inapplicable-but-violated cases are
instructive diagnostics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .tables import INEQUALITIES, InequalityKind, gate

if TYPE_CHECKING:
    from .geometry import Incidence
    from .points import ColoredConfiguration


class InequalityReport(NamedTuple):
    kind: InequalityKind
    applicable: bool
    precondition_detail: str
    lhs: Fraction
    rhs: Fraction
    satisfied: bool | None

    @property
    def slack(self) -> Fraction:
        return self.lhs - self.rhs


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
