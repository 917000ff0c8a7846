"""Incidence inequalities on the line-size marginals t_m.

All five are evaluated on the colorless marginals of a configuration
(t_m = lines through exactly m of the N points, read from its incidence
structure), each with its own applicability precondition:

  Melchior             sum (3-m) t_m >= 3          real plane, not all collinear
  Langer               sum m t_m >= N(N+3)/3       at most 2N/3 collinear
  Hirzebruch (linear)  t_2 + t_3 >= N + sum_{m>=5} (m-4) t_m     at most N-2 collinear
  Hirzebruch (quadr.)  t_2 + (3/4) t_3 >= N + sum_{m>=5} (2m-9) t_m   at most N-3 collinear
  Bojanowski-Pokora    sum (4m - m^2) t_m >= 4N    at most 2N/3 collinear

Melchior needs real coordinates; the other four hold over C.  Sides are
always reported exactly, even when the precondition fails, because
inapplicable-but-violated cases are instructive diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .bounds import collinearity_gate, real_plane_gate
from .geometry import ColoredConfiguration, Incidence


class InequalityKind(Enum):
    MELCHIOR = "melchior"
    LANGER = "langer"
    HIRZEBRUCH_LINEAR = "hirzebruch-linear"
    HIRZEBRUCH_QUADRATIC = "hirzebruch-quadratic"
    BOJANOWSKI_POKORA = "bojanowski-pokora"


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


def _sides(kind: InequalityKind, incidence: Incidence) -> tuple[Fraction, Fraction]:
    n = incidence.total_points
    tk = incidence.size_counts
    if kind is InequalityKind.MELCHIOR:
        return Fraction(sum((3 - m) * c for m, c in tk.items())), Fraction(3)
    if kind is InequalityKind.LANGER:
        return Fraction(sum(m * c for m, c in tk.items())), Fraction(n * (n + 3), 3)
    if kind is InequalityKind.HIRZEBRUCH_LINEAR:
        rhs = n + sum((m - 4) * c for m, c in tk.items() if m >= 5)
        return Fraction(incidence.t(2) + incidence.t(3)), Fraction(rhs)
    if kind is InequalityKind.HIRZEBRUCH_QUADRATIC:
        rhs = n + sum((2 * m - 9) * c for m, c in tk.items() if m >= 5)
        return incidence.t(2) + Fraction(3, 4) * incidence.t(3), Fraction(rhs)
    if kind is InequalityKind.BOJANOWSKI_POKORA:
        return (
            Fraction(sum((4 * m - m * m) * c for m, c in tk.items())),
            Fraction(4 * n),
        )
    raise ValueError(f"unknown inequality kind {kind!r}")


def _precondition(kind: InequalityKind, incidence: Incidence) -> tuple[bool, str]:
    n = incidence.total_points
    if kind is InequalityKind.MELCHIOR:
        return real_plane_gate(incidence)
    if kind in (InequalityKind.LANGER, InequalityKind.BOJANOWSKI_POKORA):
        return collinearity_gate(incidence, Fraction(2 * n, 3), "2N/3")
    if kind is InequalityKind.HIRZEBRUCH_LINEAR:
        return collinearity_gate(incidence, Fraction(n - 2), "N-2")
    if kind is InequalityKind.HIRZEBRUCH_QUADRATIC:
        return collinearity_gate(incidence, Fraction(n - 3), "N-3")
    raise ValueError(f"unknown inequality kind {kind!r}")


def evaluate(kind: InequalityKind, config: ColoredConfiguration) -> InequalityReport:
    """Evaluate one inequality with exact sides and precondition status.

    A failed precondition yields applicable=False with satisfied=None;
    the sides are still reported for diagnostics.
    """
    applicable, detail = _precondition(kind, config.incidence)
    lhs, rhs = _sides(kind, config.incidence)
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


def bojanowski_pokora_fractional_slack(config: ColoredConfiguration) -> Fraction:
    """Slack of the equivalent form t_2 + (3/4)t_3 - N - sum_{m>=5} (m^2/4 - m) t_m.

    Exactly one quarter of the integer-form slack; kept as a cross-check
    of the algebraic equivalence between the two presentations.
    """
    incidence = config.incidence
    n = incidence.total_points
    lhs = incidence.t(2) + Fraction(3, 4) * incidence.t(3)
    rhs = n + sum(
        (Fraction(m * m, 4) - m) * c for m, c in incidence.size_counts.items() if m >= 5
    )
    return lhs - rhs
