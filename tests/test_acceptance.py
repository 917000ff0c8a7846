"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every expected value is exact; there are no tolerances anywhere.
"""

import time
from fractions import Fraction

from support import KERNELS, incidence_of, random_config, random_real_config, run_with_kernels

from equilines.bounds import BoundTheorem, evaluate_all_bounds
from equilines.generators import generate, grid, hesse, random_rational
from equilines.points import GREEN, RED, affine_point, configuration
from equilines.inequalities import InequalityKind, evaluate_all
from equilines.profiles import compute_profile, verify_identities
from equilines.proofcheck import verify_sign_claim
from equilines.reports import analysis_document, config_document, dump_json, parse_config
from equilines.search import SearchSpec, run_search


def _report(number: int, name: str, elapsed: float):
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_identity_suite():
    start = time.perf_counter()
    for seed in range(1000):
        config = random_config(seed, max_total=20)
        profile = compute_profile(incidence_of(config), config.colors)
        report = verify_identities(profile)
        assert report.all_passed, (seed, report)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"identity suite took {elapsed:.2f}s (limit 10s)"
    _report(1, "identity suite, 1000 random configurations", elapsed)


def test_criterion_2_coefficient_reproduction():
    start = time.perf_counter()
    six = verify_sign_claim(BoundTheorem.EQUI_SIX)
    assert dict(six.exceptional_cells) == {
        (1, 1): Fraction(-2),
        (1, 2): Fraction(-2),
        (2, 1): Fraction(-2),
        (2, 2): Fraction(-2),
        (2, 3): Fraction(-1),
        (3, 2): Fraction(-1),
        (3, 3): Fraction(-1),
    }
    assert six.tail_threshold == 8

    four = verify_sign_claim(BoundTheorem.EQUI_FOUR)
    assert dict(four.exceptional_cells) == {
        (0, 2): Fraction(2),
        (2, 0): Fraction(2),
        (1, 1): Fraction(6),
        (1, 2): Fraction(5),
        (2, 1): Fraction(5),
        (2, 2): Fraction(4),
    }
    assert four.tail_threshold == 5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"coefficient reproduction took {elapsed:.2f}s (limit 1s)"
    _report(2, "coefficient tables and tail certificates", elapsed)


def test_criterion_3_hesse_oracle():
    start = time.perf_counter()
    config = configuration(hesse(), (GREEN,) * 9, -3)
    incidence = incidence_of(config)
    profile = compute_profile(incidence, config.colors)
    cells = dict(profile.counts)
    assert cells.get((2, 0), 0) + cells.get((0, 2), 0) + cells.get((1, 1), 0) == 0  # t_2 = 0
    sizes = incidence.size_counts
    assert sizes == {3: 12}
    assert max(sizes) == 3  # max_collinear

    reports = {r.kind: r for r in evaluate_all(incidence)}
    bp = reports[InequalityKind.BOJANOWSKI_POKORA]
    assert bp.applicable and bp.lhs == 36 and bp.rhs == 36 and bp.slack == 0
    langer = reports[InequalityKind.LANGER]
    assert langer.applicable and langer.lhs == 36 and langer.rhs == 36 and langer.slack == 0
    hirz = reports[InequalityKind.HIRZEBRUCH_LINEAR]
    assert hirz.applicable and hirz.lhs == 12 and hirz.rhs == 9 and hirz.slack == 3
    melchior = reports[InequalityKind.MELCHIOR]
    assert not melchior.applicable
    assert melchior.lhs == 0 and melchior.rhs == 3  # diagnostic sides
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"Hesse oracle took {elapsed:.2f}s (limit 1s)"
    _report(3, "Hesse configuration oracle", elapsed)


def test_criterion_4_exhaustive_bound_verification():
    from support import brute_force_scan

    from equilines.bounds import bound_value
    from equilines.tables import THEOREMS

    start = time.perf_counter()
    bases = [("grid(3)", grid(3))]
    for seed in range(1, 7):
        bases.append((f"random_rational(8,{seed},5)", random_rational(8, seed, 5)))
    checked_instances = 0
    total_colorings = 0
    for name, base in bases:
        for k in (0, 1, 2):
            if (len(base) + k) % 2:
                continue  # no coloring realizes this k
            for theorem in (BoundTheorem.EQUI_SIX, BoundTheorem.EQUI_FOUR):
                spec = SearchSpec(points=base, k=k, theorem=theorem)
                result = run_search(spec)
                assert result.violations == 0, (name, k, theorem, result)
                if not result.all_inapplicable:
                    checked_instances += 1
                    total_colorings += result.colorings_examined
                    assert result.colorings_examined == spec.coloring_count()
                    assert result.best_report.satisfied
    assert checked_instances >= 20
    assert total_colorings > 1000

    # dual route: recount one instance coloring-by-coloring through the
    # exact profile path and compare with the kernel scan
    spec = SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX)
    result = run_search(spec)
    info = THEOREMS[spec.theorem]
    best, combo, violations, examined = brute_force_scan(
        spec.points, spec.n_green, info.query, bound_value(spec.theorem, spec.n_green, 1)
    )
    assert (best, violations, examined) == (
        result.best_report.actual,
        result.violations,
        result.colorings_examined,
    )
    assert combo == tuple(i for i, c in enumerate(result.best_colors) if c == GREEN)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"exhaustive verification took {elapsed:.2f}s (limit 300s)"
    _report(
        4,
        f"exhaustive verification, {total_colorings} colorings x theorems, 0 violations",
        elapsed,
    )


def test_criterion_5_worked_small_example():
    start = time.perf_counter()
    pts = (
        affine_point(0, 0, d=5),
        affine_point(1, 1, d=5),
        affine_point(1, 0, d=5),
        affine_point(0, 1, d=5),
    )
    config = configuration(pts, (GREEN, GREEN, RED, RED), 5)
    incidence = incidence_of(config)
    profile = compute_profile(incidence, config.colors)
    assert dict(profile.counts) == {(2, 0): 1, (0, 2): 1, (1, 1): 4}

    reports = {r.theorem: r for r in evaluate_all_bounds(incidence, profile)}
    equi_six = reports[BoundTheorem.EQUI_SIX]
    assert equi_six.applicable and equi_six.actual == 4 and equi_six.bound == 3
    assert equi_six.satisfied
    equi_four = reports[BoundTheorem.EQUI_FOUR]
    assert equi_four.applicable and equi_four.actual == 6
    assert equi_four.bound == Fraction(10, 3) and equi_four.satisfied
    ps2 = reports[BoundTheorem.PS2]
    assert ps2.applicable and ps2.actual == 4 and ps2.bound == Fraction(10, 4)
    assert ps2.satisfied
    elapsed = time.perf_counter() - start
    _report(5, "worked 2-green + 2-red example", elapsed)


def test_criterion_6_real_plane_inequality_suite():
    start = time.perf_counter()
    applicable_counts = {kind: 0 for kind in InequalityKind}
    for seed in range(500):
        config = random_real_config(seed, max_total=10)
        for report in evaluate_all(incidence_of(config)):
            if report.kind is InequalityKind.MELCHIOR:
                assert report.applicable, (seed, report)  # real, not all collinear
            if report.applicable:
                applicable_counts[report.kind] += 1
                assert report.satisfied, (seed, report)
    assert applicable_counts[InequalityKind.MELCHIOR] == 500
    for kind in InequalityKind:
        assert applicable_counts[kind] > 100, (kind, applicable_counts)
    elapsed = time.perf_counter() - start
    _report(6, "real-plane inequality suite, 500 configurations, 0 violations", elapsed)


def test_criterion_7_determinism_and_io():
    start = time.perf_counter()
    # generate -> parse round-trip is the identity on canonical forms
    for spec_text in ("grid(3)", "near_pencil(5)", "hesse", "random_rational(8,3,5)"):
        pts = generate(spec_text)
        doc = config_document(pts, (GREEN,) * len(pts), pts[0].d)
        parsed = parse_config(dump_json(doc))
        assert parsed.points == pts
        again = config_document(parsed.points, parsed.colors, pts[0].d)
        assert dump_json(again) == dump_json(doc)

    # repeated analyze runs are byte-identical
    config = configuration(hesse(), (GREEN,) * 9, -3)
    doc1, _ = analysis_document(config)
    doc2, _ = analysis_document(config)
    assert dump_json(doc1) == dump_json(doc2)
    reparsed = parse_config(
        dump_json(config_document(config.points, config.colors, -3))
    )
    doc3, _ = analysis_document(reparsed)
    assert dump_json(doc3) == dump_json(doc1)

    # local search is reproducible for a fixed seed, on the kernel and on
    # the reference replay
    spec = SearchSpec(
        points=grid(4), k=0, theorem=BoundTheorem.EQUI_SIX, mode="local", seed=5, budget=2000
    )
    first = run_search(spec)
    for which in KERNELS:
        repeat = run_with_kernels(which, spec)
        assert repeat.best_colors == first.best_colors
        assert repeat.best_report == first.best_report
        assert repeat.colorings_examined == first.colorings_examined
        assert repeat.violations == first.violations
    elapsed = time.perf_counter() - start
    _report(7, "determinism and I/O round-trips", elapsed)
