import dataclasses
from fractions import Fraction
from math import comb

import pytest

from equilines import proofcheck, tables
from equilines.cli import run_cli
from equilines.errors import ClaimRefutedError
from equilines.proofcheck import template_for, verify_sign_claim, verify_template_sign_claim
from equilines.tables import (
    EQUI_FOUR_TEMPLATE,
    EQUI_SIX_TEMPLATE,
    IDENTITIES,
    INEQUALITIES,
    BoundTheorem,
    EquichromaticQuery,
    Identity,
    InequalityKind,
    Side,
    bound_value,
)

HIRZEBRUCH_LINEAR = InequalityKind.HIRZEBRUCH_LINEAR


def _set_side(monkeypatch, kind, side, **fields):
    """Replace fields of one side of an inequality row for this test."""
    row = INEQUALITIES[kind]
    new = dataclasses.replace(getattr(row, side), **fields)
    monkeypatch.setitem(INEQUALITIES, kind, dataclasses.replace(row, **{side: new}))


def pair_imbalance_coefficient(i: int, j: int) -> Fraction:
    """C(i,2) + C(j,2) - ij: same-color minus mixed pairs, from the identity rows."""
    return Fraction(
        IDENTITIES["same_color_pairs"].weight(i, j) - IDENTITIES["mixed_pairs"].weight(i, j)
    )


def hirzebruch_size_coefficient(s: int) -> Fraction:
    """The linear Hirzebruch inequality as an upper bound, written out:
    -t_2 - t_3 + sum_{s>=5} (s-4) t_s <= -N."""
    if s in (2, 3):
        return Fraction(-1)
    return Fraction(0) if s == 4 else Fraction(s - 4)


def verify_identity_simplification(window: int) -> bool:
    """Check C(i,2) + C(j,2) - ij = ((i-j)^2 - (i+j))/2 on [0, window]^2."""
    return all(
        pair_imbalance_coefficient(i, j) == Fraction((i - j) ** 2 - (i + j), 2)
        for i in range(window + 1)
        for j in range(window + 1)
    )


def rhs_check(theorem: BoundTheorem, n: int, k: int) -> tuple[Fraction, Fraction]:
    """The template's combined RHS and the count bound RHS / extreme."""
    tpl = template_for(theorem)
    combined = tpl.rhs(n, k)
    return combined, combined / max(tpl.claimed_cells.values(), key=abs)


def test_equi_six_table_reference_values():
    alpha = template_for(BoundTheorem.EQUI_SIX).coefficient
    assert alpha(1, 1) == -2
    assert alpha(1, 2) == -2 and alpha(2, 1) == -2
    assert alpha(2, 2) == -2
    assert alpha(2, 3) == -1 and alpha(3, 2) == -1
    assert alpha(3, 3) == -1
    assert alpha(0, 2) == 0  # 1 + (-1)
    assert alpha(0, 3) == 2
    assert alpha(0, 4) == 6
    assert alpha(1, 3) == 0
    assert alpha(3, 4) == 0


def test_equi_four_table_reference_values():
    alpha = template_for(BoundTheorem.EQUI_FOUR).coefficient
    assert alpha(1, 1) == 6
    assert alpha(2, 2) == 4
    assert alpha(0, 2) == 2 and alpha(2, 0) == 2
    assert alpha(1, 2) == 5 and alpha(2, 1) == 5
    assert alpha(1, 3) == 0  # 20 - 4 - 16
    assert alpha(0, 3) == -3
    assert alpha(0, 4) == -12


def test_table_window_and_coverage():
    # Enumeration covers exactly the cells below the derived tail threshold.
    for theorem, threshold, cells in (
        (BoundTheorem.EQUI_SIX, 8, 33),
        (BoundTheorem.EQUI_FOUR, 5, 12),
    ):
        cert = verify_sign_claim(theorem)
        assert cert.tail_threshold == threshold
        assert cert.cells_checked == sum(s + 1 for s in range(2, threshold)) == cells


def test_equi_six_decomposes_into_its_two_summands():
    for s in range(2, 13):
        for i in range(s + 1):
            j = s - i
            assert EQUI_SIX_TEMPLATE.coefficient(i, j) == (
                pair_imbalance_coefficient(i, j) + hirzebruch_size_coefficient(s)
            )


def test_sign_claim_equi_six():
    cert = verify_sign_claim(BoundTheorem.EQUI_SIX)
    assert len(cert.exceptional_cells) == 7
    assert dict(cert.exceptional_cells) == {
        (1, 1): -2,
        (1, 2): -2,
        (2, 1): -2,
        (2, 2): -2,
        (2, 3): -1,
        (3, 2): -1,
        (3, 3): -1,
    }
    assert cert.extreme_coefficient == -2
    assert cert.tail_threshold == 8


def test_sign_claim_equi_four():
    cert = verify_sign_claim(BoundTheorem.EQUI_FOUR)
    assert len(cert.exceptional_cells) == 6
    assert dict(cert.exceptional_cells) == {
        (0, 2): 2,
        (2, 0): 2,
        (1, 1): 6,
        (1, 2): 5,
        (2, 1): 5,
        (2, 2): 4,
    }
    assert cert.extreme_coefficient == 6


def test_corrupted_template_is_refuted_at_2_2(monkeypatch):
    # Mutation self-test: nudging the size-4 step by +1 must be caught.
    # The template subtracts the Hirzebruch row, so its size-4 weight drops by 1.
    _set_side(monkeypatch, HIRZEBRUCH_LINEAR, "right", exceptions={2: 0, 3: 0, 4: 1})
    with pytest.raises(ClaimRefutedError) as exc:
        verify_template_sign_claim(EQUI_SIX_TEMPLATE)
    assert exc.value.cell == (2, 2)
    assert exc.value.expected == -2 and exc.value.actual == -1


def test_unclaimed_exceptional_cell_is_refuted():
    missing_claim = dataclasses.replace(
        EQUI_FOUR_TEMPLATE,
        name="equifour-missing",
        claimed_cells={c: v for c, v in EQUI_FOUR_TEMPLATE.claimed_cells.items() if c != (1, 1)},
    )
    with pytest.raises(ClaimRefutedError) as exc:
        verify_template_sign_claim(missing_claim)
    assert exc.value.cell == (1, 1)


def test_identity_simplification():
    assert pair_imbalance_coefficient(0, 2) == 1
    assert pair_imbalance_coefficient(3, 3) == -3 == Fraction((3 - 3) ** 2 - 6, 2)
    assert verify_identity_simplification(20)


def test_tail_formula_spot_checks():
    # Beyond the window the analytic tail must agree with the formula.
    for s in range(8, 26):
        for i in range(s + 1):
            value = EQUI_SIX_TEMPLATE.coefficient(i, s - i)
            assert value == Fraction((2 * i - s) ** 2, 2) + Fraction(s, 2) - 4
            assert value >= 0
    for s in range(5, 26):
        for i in range(s + 1):
            assert EQUI_FOUR_TEMPLATE.coefficient(i, s - i) <= 0


def test_rhs_check_equi_six():
    combined, bound = rhs_check(BoundTheorem.EQUI_SIX, 2, 0)
    assert combined == -6 and bound == 3
    combined, bound = rhs_check(BoundTheorem.EQUI_SIX, 5, 2)
    assert combined == -10 and bound == 5


def test_rhs_check_equi_four():
    combined, bound = rhs_check(BoundTheorem.EQUI_FOUR, 2, 0)
    assert combined == 20 and bound == Fraction(10, 3)


def test_rhs_check_matches_bound_module():
    for n in range(1, 9):
        for k in range(0, n + 1):
            for theorem in (BoundTheorem.EQUI_SIX, BoundTheorem.EQUI_FOUR):
                _, bound = rhs_check(theorem, n, k)
                assert bound == bound_value(theorem, n, k)


def test_pair_imbalance_matches_binomials():
    for i in range(12):
        for j in range(12):
            assert pair_imbalance_coefficient(i, j) == comb(i, 2) + comb(j, 2) - i * j


def test_templates_not_available_for_other_theorems():
    with pytest.raises(ValueError):
        template_for(BoundTheorem.PS1)


def _corrupt_identity(monkeypatch):
    row = IDENTITIES["mixed_pairs"]
    monkeypatch.setitem(IDENTITIES, "mixed_pairs", Identity({**row.terms, (0, 0): 1}, row.rhs))


def _corrupt_inequality(monkeypatch):
    _set_side(monkeypatch, InequalityKind.BOJANOWSKI_POKORA, "left", coeffs=(1, 4, -1))


def _corrupt_query(monkeypatch):
    info = tables.theorem_info(BoundTheorem.EQUI_SIX)
    corrupted = dataclasses.replace(info, query=EquichromaticQuery(1, 5))
    monkeypatch.setitem(tables._INFO, BoundTheorem.EQUI_SIX, corrupted)


def _corrupt_gate(monkeypatch):
    info = tables.theorem_info(BoundTheorem.EQUI_SIX)
    corrupted = dataclasses.replace(info, gate=InequalityKind.HIRZEBRUCH_QUADRATIC)
    monkeypatch.setitem(tables._INFO, BoundTheorem.EQUI_SIX, corrupted)


def _corrupt_bound(monkeypatch):
    def corrupted(theorem, n, k, t=None):
        if theorem is BoundTheorem.EQUI_FOUR:
            return Fraction(10 * n - k * (k + 3), 6)
        return bound_value(theorem, n, k, t)

    monkeypatch.setattr(proofcheck, "bound_value", corrupted)


@pytest.mark.parametrize(
    "corrupt, theorem, step",
    [
        (_corrupt_identity, "equisix", "equisix sign"),
        (_corrupt_inequality, "equifour", "equifour sign"),
        (_corrupt_query, "equisix", "equisix query"),
        (_corrupt_gate, "equisix", "equisix gate"),
        (_corrupt_bound, "equifour", "equifour rhs"),
    ],
)
def test_proofcheck_cli_refutes_mutations(corrupt, theorem, step, monkeypatch, capsys):
    assert run_cli(["proofcheck", "--theorem", theorem]) == 0
    capsys.readouterr()
    corrupt(monkeypatch)
    assert run_cli(["proofcheck", "--theorem", theorem]) == 1
    assert f"claim refuted: {step}:" in capsys.readouterr().out


def test_tail_is_derived_from_the_tables():
    six = verify_sign_claim(BoundTheorem.EQUI_SIX)
    assert six.tail_certificate == (
        "for s = i+j >= 8: alpha = A*(i-j)^2 + q(s) with A = 1/2 >= 0 and "
        "q(s) = 1/2*s - 4; q(8) = 0 >= 0 and q(s+1) - q(s) = 1/2 >= 0 from s = 8 on, "
        "so alpha >= 0"
    )
    four = verify_sign_claim(BoundTheorem.EQUI_FOUR)
    assert four.tail_certificate == (
        "for s = i+j >= 5: alpha = A*(i-j)^2 + q(s) with A = -1 <= 0 and "
        "q(s) = -1*s^2 + 5*s; q(5) = 0 <= 0 and q(s+1) - q(s) = -2*s + 4 <= 0 "
        "from s = 5 on, so alpha <= 0"
    )


def test_large_line_mutation_is_refuted_without_options(monkeypatch, capsys):
    # A change to the weight of 9-point lines lies above any fixed cut-off
    # the tail would have had to trust; the exception moves the tail past it.
    _set_side(monkeypatch, HIRZEBRUCH_LINEAR, "right", exceptions={2: 0, 3: 0, 9: -95})
    assert run_cli(["proofcheck", "--theorem", "equisix"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("claim refuted: equisix sign: unclaimed cell (0, 9) ")
    assert "coefficient -59" in out


@pytest.mark.parametrize(
    "kind, side, fields, theorem",
    [
        # Bojanowski-Pokora 4m - m^2 -> 4m + m^2: q grows, no threshold.
        (InequalityKind.BOJANOWSKI_POKORA, "left", {"coeffs": (0, 4, 1)}, "equifour"),
        # Hirzebruch linear m - 4 -> 4 - m: q falls below zero for large lines.
        (HIRZEBRUCH_LINEAR, "right", {"coeffs": (4, -1)}, "equisix"),
        # A cubic weight puts a term of degree 3 in the tail polynomial.
        (InequalityKind.BOJANOWSKI_POKORA, "left", {"coeffs": (0, 4, -1, 1)}, "equifour"),
    ],
    ids=["bp-square-sign", "hl-linear-sign", "bp-cubic"],
)
def test_tail_coefficient_mutation_is_refuted(kind, side, fields, theorem, monkeypatch, capsys):
    _set_side(monkeypatch, kind, side, **fields)
    assert run_cli(["proofcheck", "--theorem", theorem]) == 1
    assert capsys.readouterr().out.startswith(f"claim refuted: {theorem} tail: ")


def test_asymmetric_alpha_is_refuted_at_the_tail(monkeypatch):
    # An (i-j) term breaks the A*(i-j)^2 + q(s) form the tail argument needs.
    row = IDENTITIES["mixed_pairs"]
    half = Fraction(1, 2)
    terms = {**row.terms, (0, 1): half, (1, 0): half}  # + i = + (s + u) / 2
    monkeypatch.setitem(IDENTITIES, "mixed_pairs", Identity(terms, row.rhs))
    with pytest.raises(ClaimRefutedError, match=r"^equisix tail: alpha = .*1/2\*\(i-j\)"):
        verify_sign_claim(BoundTheorem.EQUI_SIX)


@pytest.mark.parametrize("term", [(1, 0), (1, 1)], ids=["u", "u*s"])
def test_odd_alpha_term_is_refuted_at_the_tail(term, monkeypatch):
    # Too small to move A or q, so only the parity of the tail form refutes it.
    row = IDENTITIES["mixed_pairs"]
    terms = {**row.terms, term: Fraction(1, 1000)}
    monkeypatch.setitem(IDENTITIES, "mixed_pairs", Identity(terms, row.rhs))
    with pytest.raises(ClaimRefutedError, match=r"^equisix tail: alpha = .*1/1000\*\(i-j\)"):
        verify_sign_claim(BoundTheorem.EQUI_SIX)


def test_side_is_polynomial_above_its_exceptions():
    side = INEQUALITIES[HIRZEBRUCH_LINEAR].right
    assert [side(m) for m in range(2, 8)] == [0, 0, 0, 1, 2, 3]
    assert Side((0, 4, -1))(5) == -5 and Side()(7) == 0
