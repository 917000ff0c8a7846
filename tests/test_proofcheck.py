from fractions import Fraction
from math import comb

import pytest

from equilines.bounds import BoundTheorem, bound_value
from equilines.errors import ClaimRefutedError
from equilines.proofcheck import (
    EQUI_FOUR_TEMPLATE,
    EQUI_SIX_TEMPLATE,
    MAX_WINDOW,
    InequalityTemplate,
    build_table,
    equi_four_coefficient,
    equi_six_coefficient,
    hirzebruch_size_coefficient,
    pair_imbalance_coefficient,
    rhs_check,
    verify_identity_simplification,
    verify_sign_claim,
    verify_template_sign_claim,
)


def test_equi_six_table_reference_values():
    table = build_table(BoundTheorem.EQUI_SIX, 8).as_dict()
    assert table[(1, 1)] == -2
    assert table[(1, 2)] == -2 and table[(2, 1)] == -2
    assert table[(2, 2)] == -2
    assert table[(2, 3)] == -1 and table[(3, 2)] == -1
    assert table[(3, 3)] == -1
    assert table[(0, 2)] == 0  # 1 + (-1)
    assert table[(0, 3)] == 2
    assert table[(0, 4)] == 6
    assert table[(1, 3)] == 0
    assert table[(3, 4)] == 0


def test_equi_four_table_reference_values():
    table = build_table(BoundTheorem.EQUI_FOUR, 6).as_dict()
    assert table[(1, 1)] == 6
    assert table[(2, 2)] == 4
    assert table[(0, 2)] == 2 and table[(2, 0)] == 2
    assert table[(1, 2)] == 5 and table[(2, 1)] == 5
    assert table[(1, 3)] == 0  # 20 - 4 - 16
    assert table[(0, 3)] == -3
    assert table[(0, 4)] == -12


def test_table_window_and_coverage():
    with pytest.raises(ValueError):
        build_table(BoundTheorem.EQUI_SIX, 3)
    table = build_table(BoundTheorem.EQUI_SIX, 8)
    cells = set(table.as_dict())
    assert len(cells) == sum(s + 1 for s in range(2, 9))
    assert all(2 <= i + j <= 8 for i, j in cells)


def test_equi_six_decomposes_into_its_two_summands():
    for s in range(2, 13):
        for i in range(s + 1):
            j = s - i
            assert equi_six_coefficient(i, j) == (
                pair_imbalance_coefficient(i, j) + hirzebruch_size_coefficient(s)
            )


def test_sign_claim_equi_six():
    cert = verify_sign_claim(BoundTheorem.EQUI_SIX, 8)
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
    cert = verify_sign_claim(BoundTheorem.EQUI_FOUR, 5)
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


def test_sign_claim_window_independent_above_minimum():
    for window in (8, 9, 12, 16):
        cert = verify_sign_claim(BoundTheorem.EQUI_SIX, window)
        assert len(cert.exceptional_cells) == 7
    for window in (5, 6, 10, 14):
        cert = verify_sign_claim(BoundTheorem.EQUI_FOUR, window)
        assert len(cert.exceptional_cells) == 6


def test_sign_claim_rejects_small_window():
    with pytest.raises(ValueError):
        verify_sign_claim(BoundTheorem.EQUI_SIX, 7)
    with pytest.raises(ValueError):
        verify_sign_claim(BoundTheorem.EQUI_FOUR, 4)


def test_sign_claim_rejects_window_above_limit():
    for theorem in (BoundTheorem.EQUI_SIX, BoundTheorem.EQUI_FOUR):
        with pytest.raises(ValueError, match=f"limit of {MAX_WINDOW}"):
            verify_sign_claim(theorem, MAX_WINDOW + 1)


def test_corrupted_template_is_refuted_at_2_2():
    # Mutation self-test: nudging the size-4 step by +1 must be caught.
    def corrupted_step(s: int) -> Fraction:
        if s == 4:
            return Fraction(1)
        return hirzebruch_size_coefficient(s)

    corrupted = InequalityTemplate(
        name="equisix-corrupted",
        coefficient=lambda i, j: pair_imbalance_coefficient(i, j)
        + corrupted_step(i + j),
        rhs=EQUI_SIX_TEMPLATE.rhs,
        exceptional_sign=-1,
        claimed_cells=EQUI_SIX_TEMPLATE.claimed_cells,
        tail_threshold=EQUI_SIX_TEMPLATE.tail_threshold,
        tail_certificate=EQUI_SIX_TEMPLATE.tail_certificate,
    )
    with pytest.raises(ClaimRefutedError) as exc:
        verify_template_sign_claim(corrupted, 8)
    assert exc.value.cell == (2, 2)
    assert exc.value.expected == -2 and exc.value.actual == -1


def test_unclaimed_exceptional_cell_is_refuted():
    missing_claim = InequalityTemplate(
        name="equifour-missing",
        coefficient=EQUI_FOUR_TEMPLATE.coefficient,
        rhs=EQUI_FOUR_TEMPLATE.rhs,
        exceptional_sign=+1,
        claimed_cells={c: v for c, v in EQUI_FOUR_TEMPLATE.claimed_cells.items() if c != (1, 1)},
        tail_threshold=5,
        tail_certificate=EQUI_FOUR_TEMPLATE.tail_certificate,
    )
    with pytest.raises(ClaimRefutedError) as exc:
        verify_template_sign_claim(missing_claim, 5)
    assert exc.value.cell == (1, 1)


def test_identity_simplification():
    assert pair_imbalance_coefficient(0, 2) == 1
    assert pair_imbalance_coefficient(3, 3) == -3 == Fraction((3 - 3) ** 2 - 6, 2)
    assert verify_identity_simplification(20)


def test_tail_formula_spot_checks():
    # Beyond the window the analytic tail must agree with the formula.
    for s in range(8, 26):
        for i in range(s + 1):
            value = equi_six_coefficient(i, s - i)
            assert value == Fraction((2 * i - s) ** 2, 2) + Fraction(s, 2) - 4
            assert value >= 0
    for s in range(5, 26):
        for i in range(s + 1):
            assert equi_four_coefficient(i, s - i) <= 0


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
        build_table(BoundTheorem.PS1, 8)
