import itertools
from fractions import Fraction

import pytest

from support import incidence_of, random_config

from equilines.bounds import BoundTheorem, bound_value, evaluate_all_bounds, evaluate_bound, verdict
from equilines.generators import grid, hesse
from equilines.geometry import enumerate_lines
from equilines.points import GREEN, RED, affine_point, configuration
from equilines.profiles import compute_profile
from equilines.tables import TEMPLATES, THEOREMS

EQUI_SIX_TEMPLATE = TEMPLATES[BoundTheorem.EQUI_SIX]
EQUI_FOUR_TEMPLATE = TEMPLATES[BoundTheorem.EQUI_FOUR]


def square_config():
    pts = (
        affine_point(0, 0, d=5),
        affine_point(1, 1, d=5),
        affine_point(1, 0, d=5),
        affine_point(0, 1, d=5),
    )
    return configuration(pts, (GREEN, GREEN, RED, RED), 5)


def test_bound_value_examples():
    assert bound_value(BoundTheorem.EQUI_SIX, 2, 0) == 3
    assert bound_value(BoundTheorem.EQUI_FOUR, 2, 0) == Fraction(10, 3)
    assert bound_value(BoundTheorem.PS1, 3, 0, t=6) == Fraction(15, 4)
    assert bound_value(BoundTheorem.PS2, 2, 0) == Fraction(5, 2)
    assert bound_value(BoundTheorem.PS3, 2, 0) == 3
    assert bound_value(BoundTheorem.PS4, 2, 0, t=6) == Fraction(11, 4)


def test_bound_value_requires_t_where_needed():
    for theorem in (BoundTheorem.PS1, BoundTheorem.PS4):
        with pytest.raises(ValueError):
            bound_value(theorem, 3, 0)


def test_bound_value_input_validation():
    with pytest.raises(ValueError):
        bound_value(BoundTheorem.EQUI_SIX, 0, 0)
    with pytest.raises(ValueError):
        bound_value(BoundTheorem.EQUI_SIX, 2, 3)


def test_square_worked_example():
    config = square_config()
    incidence = incidence_of(config)
    profile = compute_profile(incidence, config.colors)
    reports = {r.theorem: r for r in evaluate_all_bounds(incidence, profile)}

    equi_six = reports[BoundTheorem.EQUI_SIX]
    assert equi_six.applicable  # max_collinear 2 <= 2n-k-2 = 2
    assert equi_six.actual == 4 and equi_six.bound == 3 and equi_six.slack == 1
    assert equi_six.satisfied

    equi_four = reports[BoundTheorem.EQUI_FOUR]
    assert equi_four.applicable  # 2 <= 8/3
    assert equi_four.actual == 6 and equi_four.bound == Fraction(10, 3)
    assert equi_four.satisfied
    assert equi_four.support_actual == 6  # no (1,3)/(3,1) cells here

    ps2 = reports[BoundTheorem.PS2]
    assert ps2.applicable and ps2.actual == 4 and ps2.bound == Fraction(10, 4)
    assert ps2.satisfied

    ps1 = reports[BoundTheorem.PS1]
    assert ps1.applicable and ps1.actual == 4 and ps1.bound == Fraction(13, 4)

    ps4 = reports[BoundTheorem.PS4]
    assert ps4.applicable and ps4.actual == 4 and ps4.bound == Fraction(11, 4)

    ps3 = reports[BoundTheorem.PS3]
    assert not ps3.applicable  # needs max_collinear <= 2n-k-3 = 1


def test_all_collinear_equi_six_inapplicable():
    pts = tuple(affine_point(i, 0, d=5) for i in range(4))
    config = configuration(pts, (GREEN, GREEN, RED, RED), 5)
    incidence = incidence_of(config)
    profile = compute_profile(incidence, config.colors)
    report = evaluate_bound(BoundTheorem.EQUI_SIX, incidence, profile)
    assert not report.applicable
    assert report.satisfied is None


def test_hesse_all_green_bounds():
    config = configuration(hesse(), (GREEN,) * 9, -3)
    incidence = incidence_of(config)
    profile = compute_profile(incidence, config.colors)
    reports = {r.theorem: r for r in evaluate_all_bounds(incidence, profile)}
    for theorem in (BoundTheorem.PS1, BoundTheorem.PS2, BoundTheorem.PS4):
        assert not reports[theorem].applicable  # not real
    equi_six = reports[BoundTheorem.EQUI_SIX]
    assert equi_six.applicable
    assert equi_six.actual == 0 and equi_six.bound == Fraction(-27, 2)
    assert equi_six.satisfied
    equi_four = reports[BoundTheorem.EQUI_FOUR]
    assert equi_four.applicable and equi_four.actual == 0 and equi_four.satisfied


def test_equi_six_query_cells_match_certificate_cells():
    query = THEOREMS[BoundTheorem.EQUI_SIX].query
    selected = {
        (i, j)
        for i in range(0, 12)
        for j in range(0, 12)
        if i + j <= 10 and query.selects(i, j)
    }
    assert selected == set(EQUI_SIX_TEMPLATE.claimed_cells)


def test_equi_four_query_cells_are_support_plus_zero_cells():
    row = THEOREMS[BoundTheorem.EQUI_FOUR]
    query = row.query
    selected = {
        (i, j)
        for i in range(0, 12)
        for j in range(0, 12)
        if i + j <= 10 and query.selects(i, j)
    }
    assert selected == row.support_cells | {(1, 3), (3, 1)}
    assert set(EQUI_FOUR_TEMPLATE.claimed_cells) == row.support_cells


def test_equi_four_support_count_excludes_zero_weight_cells():
    # One 4-point line colored G,R,R,R contributes a (1,3) cell.
    pts = (
        affine_point(0, 0, d=5),
        affine_point(1, 0, d=5),
        affine_point(2, 0, d=5),
        affine_point(3, 0, d=5),
        affine_point(0, 1, d=5),
        affine_point(1, 2, d=5),
        affine_point(4, 1, d=5),
    )
    colors = (GREEN, RED, RED, RED, GREEN, GREEN, GREEN)
    config = configuration(pts, colors, 5)
    incidence = incidence_of(config)
    profile = compute_profile(incidence, config.colors)
    report = evaluate_bound(BoundTheorem.EQUI_FOUR, incidence, profile)
    assert report.applicable  # max_collinear 4 <= (2/3)(2n-k) = 14/3
    cells = dict(profile.counts)
    zero_weight = cells.get((1, 3), 0) + cells.get((3, 1), 0)
    assert zero_weight >= 1
    assert report.actual == report.support_actual + zero_weight
    assert report.satisfied


def test_ps3_dominated_by_equi_six():
    # Wherever both apply they share the bound value and EQUI_SIX counts
    # at least as many lines, so its slack dominates.
    checked = 0
    for seed in range(80):
        config = random_config(seed, max_total=10)
        incidence = incidence_of(config)
        profile = compute_profile(incidence, config.colors)
        ps3 = evaluate_bound(BoundTheorem.PS3, incidence, profile)
        equi_six = evaluate_bound(BoundTheorem.EQUI_SIX, incidence, profile)
        assert ps3.bound == equi_six.bound
        if ps3.applicable and equi_six.applicable:
            checked += 1
            assert ps3.actual <= equi_six.actual
            assert equi_six.slack >= ps3.slack
    assert checked > 10


def test_random_configs_never_violate_complex_valid_bounds():
    for seed in range(60):
        config = random_config(seed, max_total=12)
        incidence = incidence_of(config)
        profile = compute_profile(incidence, config.colors)
        for theorem in (BoundTheorem.PS3, BoundTheorem.EQUI_SIX, BoundTheorem.EQUI_FOUR):
            report = evaluate_bound(theorem, incidence, profile)
            if report.applicable:
                assert report.satisfied, (seed, theorem, report)


def test_collinearity_limits():
    # The gate's limit at N = 2n - k = 9, read from the verdict's detail
    # (equifour's limit is 2N/3 = 18/3).
    base = enumerate_lines(grid(3))
    details = {th: verdict(th, 5, 1, base)[1] for th in BoundTheorem}
    assert details[BoundTheorem.PS3] == "max_collinear=3 <= limit=6"
    assert details[BoundTheorem.EQUI_SIX] == "max_collinear=3 <= limit=7"
    assert details[BoundTheorem.EQUI_FOUR] == "max_collinear=3 <= limit=6"
    assert details[BoundTheorem.PS1] == "coordinates real and not all points collinear"


def test_bound_ceiling():
    config = square_config()
    incidence = incidence_of(config)
    profile = compute_profile(incidence, config.colors)
    report = evaluate_bound(BoundTheorem.EQUI_FOUR, incidence, profile)
    assert report.bound == Fraction(10, 3) and report.bound_ceiling == 4
    assert report.actual >= report.bound_ceiling


def test_grid_all_colorings_satisfy_equisix():
    # Tiny exhaustive sanity pass straight through the exact path.
    pts = grid(2)
    for greens in itertools.combinations(range(4), 2):
        colors = tuple(GREEN if i in greens else RED for i in range(4))
        config = configuration(pts, colors, 5)
        incidence = incidence_of(config)
        profile = compute_profile(incidence, config.colors)
        report = evaluate_bound(BoundTheorem.EQUI_SIX, incidence, profile)
        assert report.applicable and report.actual == 4 and report.bound == 3
        assert report.satisfied
