"""Mechanical certification of the coefficient combinations behind the bounds.

Each of EQUI_SIX and EQUI_FOUR rests on a signed sum of counting
identities (``profiles.IDENTITIES``) and one incidence inequality
(``inequalities.INEQUALITIES``); an ``InequalityTemplate`` names those
rows, and its per-cell coefficient alpha(i, j) and right-hand side
RHS(n, k) are derived from them.  The claim is a finite exceptional set:
finitely many cells on the inequality's side of zero, everything else on
the other.  It ranges over infinitely many cells, so certification is a
finite enumeration over a window plus a hard-coded analytic tail bound
whose hypothesis (window >= threshold) the code asserts.  The count
bound RHS / extreme holds under the template inequality's gate, for the
lines in cells the theorem's query selects, and must equal
``bounds.bound_value``; ``verify_sign_claim`` checks all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

from .bounds import BoundTheorem, bound_value, theorem_info
from .errors import ClaimRefutedError
from .inequalities import INEQUALITIES, InequalityKind
from .profiles import IDENTITIES

Cell = tuple[int, int]

# Certification enumerates O(window^2) cells: 500 takes about a second,
# 1500 about ten, so larger windows are refused rather than left to run.
MAX_WINDOW = 500


@dataclass(frozen=True)
class InequalityTemplate:
    """sum_r sign_r * identity_r + sign * inequality, with a claimed
    exceptional sign pattern.

    The combination reads sum alpha(i, j) t_{i,j} >= RHS(n, k) when the
    inequality's sign is +1, claiming finitely many positive cells, and
    <= RHS(n, k) when it is -1, claiming finitely many negative cells.
    The tail certificate is an analytic fact covering every cell with
    i + j >= tail_threshold; enumeration covers the rest.
    """

    name: str
    identities: tuple[tuple[int, str], ...]
    inequality: tuple[int, InequalityKind]
    claimed_cells: Mapping[Cell, Fraction]
    tail_threshold: int
    tail_certificate: str

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
    identities=((+1, "incidence_balance"),),
    inequality=(+1, InequalityKind.BOJANOWSKI_POKORA),
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
    sign = tpl.inequality[0]
    checked = 0
    for cell in _window_cells(window):
        value = tpl.coefficient(*cell)
        checked += 1
        claimed = tpl.claimed_cells.get(cell)
        if claimed is not None:
            if value != claimed:
                raise ClaimRefutedError(
                    f"{tpl.name} sign: cell {cell} has coefficient {value}, claimed {claimed}",
                    cell,
                    claimed,
                    value,
                )
        elif sign * value > 0:
            raise ClaimRefutedError(
                f"{tpl.name} sign: unclaimed cell {cell} has exceptional-sign "
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
    """Certify the theorem's count bound from its template.

    Beyond the template's sign claim and tail, three links to the bounds
    module are checked: the theorem's gate is the template inequality's,
    its query selects every exceptional cell (so the lines those cells
    count are lines the bound counts), and RHS / extreme equals
    ``bound_value``.  Both sides of the last are polynomials of degree at
    most 2 in each of n and k, so agreement on a 3 x 3 grid proves it.
    Raises ClaimRefutedError naming the step that failed.
    """
    tpl = template_for(theorem)
    cert = verify_template_sign_claim(tpl, window)
    info = theorem_info(theorem)
    if info.gate is not tpl.inequality[1]:
        raise ClaimRefutedError(
            f"{tpl.name} gate: the theorem is gated by {info.gate.value}, "
            f"the template combines {tpl.inequality[1].value}"
        )
    for cell, _ in cert.exceptional_cells:
        if not info.query.selects(*cell):
            raise ClaimRefutedError(
                f"{tpl.name} query: exceptional cell {cell} is not selected by {info.query}",
                cell,
            )
    for n, k in product((2, 3, 4), (0, 1, 2)):
        derived = tpl.rhs(n, k) / cert.extreme_coefficient
        stated = bound_value(theorem, n, k)
        if derived != stated:
            raise ClaimRefutedError(
                f"{tpl.name} rhs: at n={n}, k={k} the combination gives {derived}, "
                f"the bound is {stated}",
                expected=stated,
                actual=derived,
            )
    return cert
