"""Mechanical certification of the coefficient combinations behind the bounds.

Each of EQUI_SIX and EQUI_FOUR rests on a linear combination of counting
facts whose per-cell coefficient alpha_{i,j} has a claimed exceptional
set: finitely many cells of one sign, everything else of the other.
The claim ranges over infinitely many cells, so certification is a
finite enumeration over a window plus a hard-coded analytic tail bound
whose hypothesis (window >= threshold) the code asserts.

The checker is generic over inequality templates (a coefficient function
of (i, j), an RHS function of (n, k), a claimed exceptional table, and a
tail certificate); the two shipped instances are:

  EQUI_SIX   alpha = [C(i,2)+C(j,2)-ij] + h(i+j), h = -1 on sizes 2..3,
             0 on 4, s-4 beyond; combination <= -(2n-k) - n + (k^2+k)/2.
             Negative cells: (1,1),(1,2),(2,1),(2,2) at -2 and
             (2,3),(3,2),(3,3) at -1.  Tail: s >= 8 gives
             alpha = (i-j)^2/2 + s/2 - 4 >= 0.

  EQUI_FOUR  alpha = 5s - (i-j)^2 - s^2; combination >= 10n - k(k+5).
             Positive cells: (0,2),(2,0) at 2, (1,1) at 6, (1,2),(2,1)
             at 5, (2,2) at 4.  Tail: s >= 5 gives 5s - s^2 <= 0 and
             -(i-j)^2 <= 0, so alpha <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Mapping

from .bounds import BoundTheorem, bound_value
from .errors import ClaimRefutedError, InternalInconsistencyError

Cell = tuple[int, int]

# Certification enumerates O(window^2) cells: 500 takes about a second,
# 1500 about ten, so larger windows are refused rather than left to run.
MAX_WINDOW = 500


def pair_imbalance_coefficient(i: int, j: int) -> Fraction:
    """C(i,2) + C(j,2) - ij, the same-minus-mixed pair weight of a cell."""
    return Fraction(comb(i, 2) + comb(j, 2) - i * j)


def hirzebruch_size_coefficient(s: int) -> Fraction:
    """Per-size coefficient of the linear Hirzebruch inequality, oriented
    as an upper bound: -t_2 - t_3 + sum_{s>=5} (s-4) t_s <= -N."""
    if s in (2, 3):
        return Fraction(-1)
    if s == 4:
        return Fraction(0)
    return Fraction(s - 4)


def equi_six_coefficient(i: int, j: int) -> Fraction:
    return pair_imbalance_coefficient(i, j) + hirzebruch_size_coefficient(i + j)


def equi_four_coefficient(i: int, j: int) -> Fraction:
    s = i + j
    return Fraction(5 * s - (i - j) ** 2 - s * s)


def equi_six_rhs(n: int, k: int) -> Fraction:
    return Fraction(-(2 * n - k) - n) + Fraction(k * k + k, 2)


def equi_four_rhs(n: int, k: int) -> Fraction:
    return Fraction(4 * (2 * n - k) + 2 * n - (k * k + k))


@dataclass(frozen=True)
class InequalityTemplate:
    """A coefficient combination with a claimed exceptional sign pattern.

    exceptional_sign=-1 claims finitely many negative cells (an upper-
    bound combination), +1 finitely many positive cells (a lower bound).
    The tail certificate is an analytic fact covering every cell with
    i + j >= tail_threshold; enumeration covers the rest.
    """

    name: str
    coefficient: Callable[[int, int], Fraction]
    rhs: Callable[[int, int], Fraction]
    exceptional_sign: int
    claimed_cells: Mapping[Cell, Fraction]
    tail_threshold: int
    tail_certificate: str


EQUI_SIX_TEMPLATE = InequalityTemplate(
    name="equisix",
    coefficient=equi_six_coefficient,
    rhs=equi_six_rhs,
    exceptional_sign=-1,
    claimed_cells={
        (1, 1): Fraction(-2),
        (1, 2): Fraction(-2),
        (2, 1): Fraction(-2),
        (2, 2): Fraction(-2),
        (2, 3): Fraction(-1),
        (3, 2): Fraction(-1),
        (3, 3): Fraction(-1),
    },
    tail_threshold=8,
    tail_certificate=(
        "for s = i+j >= 8: alpha = (i-j)^2/2 + s/2 - 4 >= s/2 - 4 >= 0, "
        "so every cell beyond the enumerated window is nonnegative"
    ),
)

EQUI_FOUR_TEMPLATE = InequalityTemplate(
    name="equifour",
    coefficient=equi_four_coefficient,
    rhs=equi_four_rhs,
    exceptional_sign=+1,
    claimed_cells={
        (0, 2): Fraction(2),
        (2, 0): Fraction(2),
        (1, 1): Fraction(6),
        (1, 2): Fraction(5),
        (2, 1): Fraction(5),
        (2, 2): Fraction(4),
    },
    tail_threshold=5,
    tail_certificate=(
        "for s = i+j >= 5: 5s - s^2 <= 0 and -(i-j)^2 <= 0, so "
        "alpha = 5s - s^2 - (i-j)^2 <= 0 beyond the enumerated window"
    ),
)

_TEMPLATES: dict[BoundTheorem, InequalityTemplate] = {
    BoundTheorem.EQUI_SIX: EQUI_SIX_TEMPLATE,
    BoundTheorem.EQUI_FOUR: EQUI_FOUR_TEMPLATE,
}


def template_for(theorem: BoundTheorem) -> InequalityTemplate:
    if theorem not in _TEMPLATES:
        raise ValueError(f"no coefficient template for {theorem.value}")
    return _TEMPLATES[theorem]


@dataclass(frozen=True)
class CoefficientTable:
    theorem: BoundTheorem
    window: int
    entries: tuple[tuple[Cell, Fraction], ...]

    def as_dict(self) -> dict[Cell, Fraction]:
        return dict(self.entries)


def _window_cells(window: int):
    for s in range(2, window + 1):
        for i in range(s + 1):
            yield (i, s - i)


def build_table(theorem: BoundTheorem, window: int) -> CoefficientTable:
    """Exact alpha_{i,j} for every cell with 2 <= i + j <= window."""
    if window < 4:
        raise ValueError("window must be >= 4")
    tpl = template_for(theorem)
    entries = tuple((cell, tpl.coefficient(*cell)) for cell in _window_cells(window))
    return CoefficientTable(theorem, window, entries)


@dataclass(frozen=True)
class SignCertificate:
    """Record of a verified exceptional-cell claim.

    Construction happens only after enumeration confirmed the claim; the
    tail certificate extends it to all cells beyond the window.
    """

    template_name: str
    window: int
    exceptional_cells: tuple[tuple[Cell, Fraction], ...]
    cells_checked: int
    tail_threshold: int
    tail_certificate: str
    # The exceptional value of largest magnitude; dividing the combination
    # by it yields the per-(n, k) count bound.
    extreme_coefficient: Fraction


def verify_template_sign_claim(tpl: InequalityTemplate, window: int) -> SignCertificate:
    """Enumerate the window and check the claimed exceptional set exactly.

    Raises ClaimRefutedError at the first offending cell: a claimed value
    that differs, a claimed cell that is not exceptional, or an unclaimed
    cell on the exceptional side of zero.
    """
    if window < tpl.tail_threshold:
        raise ValueError(
            f"window {window} cannot certify {tpl.name}: the tail bound only "
            f"covers i+j >= {tpl.tail_threshold}"
        )
    if window > MAX_WINDOW:
        raise ValueError(f"window {window} exceeds the limit of {MAX_WINDOW}")
    sign = tpl.exceptional_sign
    checked = 0
    for cell in _window_cells(window):
        value = tpl.coefficient(*cell)
        checked += 1
        claimed = tpl.claimed_cells.get(cell)
        if claimed is not None:
            if value != claimed:
                raise ClaimRefutedError(
                    f"{tpl.name}: cell {cell} has coefficient {value}, claimed {claimed}",
                    cell,
                    claimed,
                    value,
                )
        elif sign * value > 0:
            raise ClaimRefutedError(
                f"{tpl.name}: unclaimed cell {cell} has exceptional-sign "
                f"coefficient {value}",
                cell,
                Fraction(0),
                value,
            )
    extreme = max(tpl.claimed_cells.values(), key=abs)
    return SignCertificate(
        template_name=tpl.name,
        window=window,
        exceptional_cells=tuple(sorted(tpl.claimed_cells.items())),
        cells_checked=checked,
        tail_threshold=tpl.tail_threshold,
        tail_certificate=tpl.tail_certificate,
        extreme_coefficient=extreme,
    )


def verify_sign_claim(theorem: BoundTheorem, window: int) -> SignCertificate:
    return verify_template_sign_claim(template_for(theorem), window)


def verify_identity_simplification(window: int) -> bool:
    """Check C(i,2) + C(j,2) - ij = ((i-j)^2 - (i+j))/2 on [0, window]^2."""
    if window < 2:
        raise ValueError("window must be >= 2")
    return all(
        pair_imbalance_coefficient(i, j) == Fraction((i - j) ** 2 - (i + j), 2)
        for i in range(window + 1)
        for j in range(window + 1)
    )


def rhs_check(theorem: BoundTheorem, n: int, k: int) -> tuple[Fraction, Fraction]:
    """Combined right-hand side and the count bound it yields.

    Dividing the combination's right-hand side by the extreme coefficient
    (-2 for EQUI_SIX, 6 for EQUI_FOUR) must give the theorem's bound as
    bounds.bound_value states it, which also validates n and k.
    """
    tpl = template_for(theorem)
    combined = tpl.rhs(n, k)
    derived = combined / max(tpl.claimed_cells.values(), key=abs)
    stated = bound_value(theorem, n, k)
    if derived != stated:
        raise InternalInconsistencyError(
            f"{tpl.name}: combined RHS {combined} gives {derived}, not the bound {stated}"
        )
    return combined, derived
