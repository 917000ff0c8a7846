from fractions import Fraction

from support import random_real_config

from equilines.generators import grid, hesse, near_pencil
from equilines.points import GREEN, RED, affine_point, configuration
from equilines.inequalities import InequalityKind, evaluate, evaluate_all

ALL_GREEN = lambda pts: (GREEN,) * len(pts)  # noqa: E731


def hesse_config():
    return configuration(hesse(), ALL_GREEN(hesse()), -3)


def triangle_config():
    pts = (affine_point(0, 0, d=5), affine_point(1, 0, d=5), affine_point(0, 1, d=5))
    return configuration(pts, (GREEN, GREEN, RED), 5)


def test_melchior_triangle_equality():
    report = evaluate(InequalityKind.MELCHIOR, triangle_config())
    assert report.applicable
    assert report.lhs == 3 and report.rhs == 3 and report.slack == 0
    assert report.satisfied


def test_hesse_reports():
    config = hesse_config()
    by_kind = {r.kind: r for r in evaluate_all(config)}

    melchior = by_kind[InequalityKind.MELCHIOR]
    assert not melchior.applicable
    assert melchior.satisfied is None
    assert melchior.lhs == 0 and melchior.rhs == 3  # diagnostic sides still exact
    assert "real" in melchior.precondition_detail

    langer = by_kind[InequalityKind.LANGER]
    assert langer.applicable and langer.slack == 0
    assert langer.lhs == 36 and langer.rhs == 36

    hirz1 = by_kind[InequalityKind.HIRZEBRUCH_LINEAR]
    assert hirz1.applicable and hirz1.lhs == 12 and hirz1.rhs == 9 and hirz1.slack == 3

    hirz2 = by_kind[InequalityKind.HIRZEBRUCH_QUADRATIC]
    assert hirz2.applicable and hirz2.slack == 0

    bp = by_kind[InequalityKind.BOJANOWSKI_POKORA]
    assert bp.applicable and bp.lhs == 36 and bp.rhs == 36 and bp.slack == 0
    assert bp.satisfied


def test_all_collinear_melchior_inapplicable():
    pts = tuple(affine_point(i, 0, d=5) for i in range(4))
    config = configuration(pts, (GREEN, GREEN, RED, RED), 5)
    report = evaluate(InequalityKind.MELCHIOR, config)
    assert not report.applicable
    assert "collinear" in report.precondition_detail


def test_near_pencil_collinearity_gates():
    config = configuration(near_pencil(6), ALL_GREEN(near_pencil(6)), 5)
    by_kind = {r.kind: r for r in evaluate_all(config)}
    # 5 of 6 points collinear: beyond 2N/3 = 4, N-2 = 4, and N-3 = 3.
    assert not by_kind[InequalityKind.LANGER].applicable
    assert not by_kind[InequalityKind.BOJANOWSKI_POKORA].applicable
    assert not by_kind[InequalityKind.HIRZEBRUCH_LINEAR].applicable
    assert not by_kind[InequalityKind.HIRZEBRUCH_QUADRATIC].applicable
    assert by_kind[InequalityKind.MELCHIOR].applicable
    assert by_kind[InequalityKind.MELCHIOR].satisfied


def test_two_thirds_boundary_is_applicable():
    # N = 6 with exactly 4 = 2N/3 collinear: the non-strict reading applies.
    pts = tuple(affine_point(i, 0, d=5) for i in range(4)) + (
        affine_point(0, 1, d=5),
        affine_point(1, 1, d=5),
    )
    config = configuration(pts, ALL_GREEN(pts), 5)
    assert config.incidence.max_collinear == 4 and Fraction(2 * 6, 3) == 4
    for kind in (InequalityKind.LANGER, InequalityKind.BOJANOWSKI_POKORA):
        report = evaluate(kind, config)
        assert report.applicable
        assert report.satisfied


def test_grid_reports_satisfied():
    config = configuration(grid(4), ALL_GREEN(grid(4)), 5)
    for report in evaluate_all(config):
        assert report.applicable
        assert report.satisfied


def bojanowski_pokora_fractional_slack(config):
    """Slack of the equivalent form t_2 + (3/4)t_3 - N - sum_{m>=5} (m^2/4 - m) t_m."""
    incidence = config.incidence
    t = incidence.size_counts.get
    lhs = t(2, 0) + Fraction(3, 4) * t(3, 0)
    rhs = incidence.total_points + sum(
        (Fraction(m * m, 4) - m) * c for m, c in incidence.size_counts.items() if m >= 5
    )
    return lhs - rhs


def test_bp_forms_equivalent_up_to_factor_four():
    for config in (
        hesse_config(),
        triangle_config(),
        configuration(grid(3), ALL_GREEN(grid(3)), 5),
        configuration(grid(4), ALL_GREEN(grid(4)), 5),
    ):
        integer_form = evaluate(InequalityKind.BOJANOWSKI_POKORA, config)
        fractional = bojanowski_pokora_fractional_slack(config)
        assert integer_form.slack == 4 * fractional


def test_real_random_configurations_never_violate():
    for seed in range(40):
        config = random_real_config(seed, max_total=10)
        for report in evaluate_all(config):
            if report.applicable:
                assert report.satisfied, (seed, report)


def test_melchior_random_real_noncollinear():
    for seed in range(40):
        config = random_real_config(1000 + seed, max_total=10)
        report = evaluate(InequalityKind.MELCHIOR, config)
        assert report.applicable
        assert report.satisfied


def test_sides_reported_when_inapplicable():
    config = configuration(near_pencil(8), ALL_GREEN(near_pencil(8)), 5)
    report = evaluate(InequalityKind.LANGER, config)
    assert not report.applicable
    sizes = config.incidence.size_counts
    assert report.lhs == Fraction(sum(m * c for m, c in sizes.items()))
    assert report.rhs == Fraction(8 * 11, 3)
