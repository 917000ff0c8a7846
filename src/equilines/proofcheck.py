"""Mechanical certification of the coefficient combinations behind the bounds.

Each of EQUI_SIX and EQUI_FOUR rests on a signed sum of counting
identities and one incidence inequality; an ``InequalityTemplate`` of
``tables.TEMPLATES`` names those rows of ``tables.IDENTITIES`` and
``tables.INEQUALITIES``, and its per-cell coefficient alpha(i, j) and
right-hand side RHS(n, k) are derived from them.  The claim is a finite
exceptional set: finitely many cells on the inequality's side of zero,
everything else on the other.  Above the inequality row's last exception alpha is the sum
of the rows' polynomial data: the identity rows' terms in (i - j) and
i + j, and the inequality row's sides in i + j.  That sum must have
degree at most 2 and no odd power of i - j; a tail threshold T is derived
from it, and only the cells with i + j < T are enumerated.  The rhs step
takes the identities' right-hand sides to be polynomials of degree at
most 2 in n and k.  The count bound RHS / extreme holds under the template
inequality's gate, for the lines in cells the theorem's query selects,
and must equal ``tables.bound_value``; ``verify_sign_claim`` checks all
three.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .errors import ClaimRefutedError
from .tables import (
    IDENTITIES,
    INEQUALITIES,
    TEMPLATES,
    THEOREMS,
    BoundTheorem,
    Cell,
    InequalityTemplate,
    bound_value,
)


class SignCertificate(NamedTuple):
    """Record of a verified exceptional-cell claim: enumeration confirmed it
    on the cells with i + j < tail_threshold, the tail certificate beyond."""

    template_name: str
    exceptional_cells: tuple[tuple[Cell, Fraction], ...]
    cells_checked: int
    tail_threshold: int
    tail_certificate: str
    # The exceptional value of largest magnitude; dividing the combination
    # by it yields the per-(n, k) count bound.
    extreme_coefficient: Fraction


def _text(poly: dict[tuple[int, int], Fraction]) -> str:
    """poly's nonzero terms c*(i-j)^a*s^b, keyed (a, b), highest first."""
    power = lambda v, e: f"*{v}^{e}" if e > 1 else f"*{v}" * e  # noqa: E731
    terms = sorted(((t, c) for t, c in poly.items() if c), reverse=True)
    text = " + ".join(f"{c}{power('(i-j)', a)}{power('s', b)}" for (a, b), c in terms) or "0"
    return text.replace("+ -", "- ")


def _tail(tpl: InequalityTemplate) -> tuple[int, str]:
    """The threshold T from which every cell has alpha on the claimed
    non-exceptional side of zero, with its certificate text."""
    sign, kind = tpl.inequality
    row = INEQUALITIES[kind]
    m0 = max((*row.left.exceptions, *row.right.exceptions), default=1) + 1
    poly: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for s, name in tpl.identities:
        for term, c in IDENTITIES[name].terms.items():
            poly[term] += s * c
    for side, s in ((row.left, sign), (row.right, -sign)):
        for b, c in enumerate(side.coeffs):
            poly[0, b] += s * c
    A, c2, c1, c0 = (poly[t] for t in ((2, 0), (0, 2), (0, 1), (0, 0)))
    q = lambda s: c2 * s * s + c1 * s + c0  # noqa: E731
    lead = next((c for c in (c2, c1, c0) if c), 0)
    rel = "<=" if sign > 0 else ">="
    odd_or_cubic = any(c and (a % 2 or a + b > 2) for (a, b), c in poly.items())
    if odd_or_cubic or sign * A > 0 or sign * lead > 0:
        raise ClaimRefutedError(
            f"{tpl.name} tail: alpha = {_text(poly)} for i+j >= {m0} is not "
            f"A*(i-j)^2 + q(i+j) with A {rel} 0 and q's leading coefficient {rel} 0"
        )
    t = m0
    while sign * q(t) > 0 or sign * (q(t + 1) - q(t)) > 0:
        t += 1
    return t, (
        f"for s = i+j >= {t}: alpha = A*(i-j)^2 + q(s) with A = {A} {rel} 0 and "
        f"q(s) = {_text({(0, 2): c2, (0, 1): c1, (0, 0): c0})}; q({t}) = {q(t)} {rel} 0 and "
        f"q(s+1) - q(s) = {_text({(0, 1): 2 * c2, (0, 0): c1 + c2})} {rel} 0 from s = {t} on, "
        f"so alpha {rel} 0"
    )


def verify_template_sign_claim(tpl: InequalityTemplate) -> SignCertificate:
    """Derive the tail, then check the claimed exceptional set exactly on
    every cell below it (and on every claimed cell).

    Raises ClaimRefutedError at the first offending cell: a claimed value
    that differs, a claimed cell that is not exceptional, or an unclaimed
    cell on the exceptional side of zero.
    """
    threshold, certificate = _tail(tpl)
    end = max(threshold, *(i + j + 1 for i, j in tpl.claimed_cells))
    cells = [(i, s - i) for s in range(2, end) for i in range(s + 1)]
    for cell in cells:
        value = tpl.coefficient(*cell)
        claimed = tpl.claimed_cells.get(cell)
        if claimed is not None:
            if value != claimed:
                raise ClaimRefutedError(
                    f"{tpl.name} sign: cell {cell} has coefficient {value}, claimed {claimed}"
                )
        elif tpl.inequality[0] * value > 0:
            raise ClaimRefutedError(
                f"{tpl.name} sign: unclaimed cell {cell} has exceptional-sign "
                f"coefficient {value}"
            )
    return SignCertificate(
        template_name=tpl.name,
        exceptional_cells=tuple(sorted(tpl.claimed_cells.items())),
        cells_checked=len(cells),
        tail_threshold=threshold,
        tail_certificate=certificate,
        extreme_coefficient=max(tpl.claimed_cells.values(), key=abs),
    )


def verify_sign_claim(theorem: BoundTheorem) -> SignCertificate:
    """Certify the theorem's count bound from its template.

    Beyond the template's sign claim and derived tail, three links to the
    theorem's row are checked: the theorem's gate is the template inequality's,
    its query selects every exceptional cell (so the lines those cells
    count are lines the bound counts), and RHS / extreme equals
    ``bound_value``.  Both sides of the last are polynomials of degree at
    most 2 in each of n and k, so agreement on a 3 x 3 grid proves it.
    Raises ClaimRefutedError naming the step that failed.
    """
    tpl = TEMPLATES[theorem]
    cert = verify_template_sign_claim(tpl)
    row = THEOREMS[theorem]
    if row.gate is not tpl.inequality[1]:
        raise ClaimRefutedError(
            f"{tpl.name} gate: the theorem is gated by {row.gate.value}, "
            f"the template combines {tpl.inequality[1].value}"
        )
    for cell, _ in cert.exceptional_cells:
        if not row.query.selects(*cell):
            raise ClaimRefutedError(
                f"{tpl.name} query: exceptional cell {cell} is not selected by {row.query}"
            )
    for n, k in product((2, 3, 4), (0, 1, 2)):
        derived = tpl.rhs(n, k) / cert.extreme_coefficient
        stated = bound_value(theorem, n, k)
        if derived != stated:
            raise ClaimRefutedError(
                f"{tpl.name} rhs: at n={n}, k={k} the combination gives {derived}, "
                f"the bound is {stated}"
            )
    return cert
