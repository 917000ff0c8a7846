from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import ALL_DS, incidence_of, random_config, reference_profile, use_path

import equilines.profiles as profiles_mod
from equilines.errors import InternalInconsistencyError
from equilines.generators import hesse
from equilines.kernels import build_incidence
from equilines.points import GREEN, RED, affine_point, configuration
from equilines.profiles import compute_profile, verify_identities
from equilines.tables import EquichromaticQuery, LineProfile, count_equichromatic


def square_config():
    """2 green + 2 red in general position."""
    pts = (
        affine_point(0, 0, d=5),
        affine_point(1, 1, d=5),
        affine_point(1, 0, d=5),
        affine_point(0, 1, d=5),
    )
    return configuration(pts, (GREEN, GREEN, RED, RED), 5)


def test_profile_two_green_two_red():
    config = square_config()
    incidence = incidence_of(config)
    profile = compute_profile(incidence, config.colors)
    assert dict(profile.counts) == {(2, 0): 1, (0, 2): 1, (1, 1): 4}
    assert profile.n == 2 and profile.k == 0
    assert len(incidence) == 6


def test_profile_three_collinear():
    pts = tuple(affine_point(i, i, d=5) for i in range(3))
    config = configuration(pts, (GREEN, GREEN, RED), 5)
    profile = compute_profile(incidence_of(config), config.colors)
    assert dict(profile.counts) == {(2, 1): 1}


def test_profile_hesse_all_green():
    config = configuration(hesse(), (GREEN,) * 9, -3)
    profile = compute_profile(incidence_of(config), config.colors)
    assert dict(profile.counts) == {(3, 0): 12}
    assert profile.n == 9 and profile.k == 9


def test_identities_square():
    config = square_config()
    profile = compute_profile(incidence_of(config), config.colors)
    report = verify_identities(profile)
    assert report.all_passed
    mixed = report.checks[0]
    assert mixed.name == "mixed_pairs" and mixed.lhs == 4 and mixed.rhs == 4


def test_identities_single_line():
    # n green and n-k red, all collinear: one cell (n, n-k).
    n, k = 3, 1
    pts = tuple(affine_point(i, 0, d=5) for i in range(2 * n - k))
    colors = (GREEN,) * n + (RED,) * (n - k)
    config = configuration(pts, colors, 5)
    profile = compute_profile(incidence_of(config), config.colors)
    assert dict(profile.counts) == {(n, n - k): 1}
    report = verify_identities(profile)
    assert report.checks[0].lhs == n * (n - k)
    assert report.all_passed


def test_identities_random_configs():
    from math import comb

    for seed in range(60):
        config = random_config(seed, max_total=14)
        profile = compute_profile(incidence_of(config), config.colors)
        assert verify_identities(profile).all_passed
        # pair coverage: every point pair lies on exactly one line
        covered = sum(
            (comb(i, 2) + comb(j, 2) + i * j) * c for (i, j), c in profile.counts
        )
        assert covered == comb(2 * profile.n - profile.k, 2)


def test_checked_mode_raises_on_tampered_kernel(monkeypatch):
    fake_checks = (profiles_mod.IdentityCheck("mixed_pairs", 0, 1),)
    monkeypatch.setattr(
        profiles_mod,
        "verify_identities",
        lambda profile: profiles_mod.IdentityReport(fake_checks),
    )
    config = square_config()
    with pytest.raises(InternalInconsistencyError):
        profiles_mod.compute_profile(incidence_of(config), config.colors)


def test_array_profile_matches_per_line_tally(monkeypatch):
    seen = set()
    for seed in range(40):
        config = random_config(seed)
        seen.add(config.discriminant.d)
        expected = reference_profile(config)
        # The prefix sums, and the block sums in small blocks of lines: they
        # must not depend on where the blocks split.
        for path, block in (("pencil", 1), ("sort", profiles_mod._TALLY_BLOCK), ("sort", 1),
                            ("sort", 7)):
            use_path(monkeypatch, path)
            monkeypatch.setattr(profiles_mod, "_TALLY_BLOCK", block)
            incidence = incidence_of(config)
            assert isinstance(incidence.points, array) == (path == "pencil")
            assert compute_profile(incidence, config.colors) == expected
        # Both routines over the same lines: the block sums (in blocks of 7)
        # over numpy views of the pencil path's buffers.
        use_path(monkeypatch, "pencil")
        pencil = incidence_of(config)
        assert isinstance(pencil.points, array)
        w = config.total + 1
        weights = [1 + w if c == GREEN else 1 for c in config.colors]
        assert (profiles_mod._block_sums(build_incidence(pencil), weights)
                == profiles_mod._prefix_sums(pencil, weights))
    assert seen == set(ALL_DS)


def test_tampered_profile_fails_identities():
    profile = LineProfile.from_dict({(2, 0): 1, (0, 2): 1, (1, 1): 3}, 2, 0)
    assert not verify_identities(profile).all_passed


def test_count_equichromatic_square():
    config = square_config()
    profile = compute_profile(incidence_of(config), config.colors)
    assert count_equichromatic(profile, EquichromaticQuery(1, 6)) == 4
    assert count_equichromatic(profile, EquichromaticQuery(2, 4)) == 6


def test_count_equichromatic_monochromatic():
    pts = tuple(affine_point(i, i * i, d=5) for i in range(4))
    config = configuration(pts, (GREEN,) * 4, 5)
    profile = compute_profile(incidence_of(config), config.colors)
    assert count_equichromatic(profile, EquichromaticQuery(0, None)) == 0


def test_query_validation():
    with pytest.raises(ValueError):
        EquichromaticQuery(-1, None)
    with pytest.raises(ValueError):
        EquichromaticQuery(1, 0)
    # max_points=1 is allowed and selects nothing (lines have >= 2 points)
    assert not EquichromaticQuery(1, 1).selects(1, 1)


def test_query_r_at_most_one_selects_only_bichromatic():
    query0 = EquichromaticQuery(0, None)
    query1 = EquichromaticQuery(1, None)
    for i in range(2, 12):
        assert not query0.selects(i, 0) and not query0.selects(0, i)
        assert not query1.selects(i, 0) and not query1.selects(0, i)


@given(st.integers(0, 200), st.integers(0, 8), st.sampled_from([2, 3, 4, 6, 10, None]))
@settings(max_examples=60, deadline=None)
def test_count_monotone_in_r_and_max(seed, r, max_points):
    config = random_config(seed, max_total=10)
    profile = compute_profile(incidence_of(config), config.colors)
    base = count_equichromatic(profile, EquichromaticQuery(r, max_points))
    assert count_equichromatic(profile, EquichromaticQuery(r + 1, max_points)) >= base
    wider = None if max_points is None else max_points + 1
    assert count_equichromatic(profile, EquichromaticQuery(r, wider)) >= base


def test_count_unbounded_query_gives_total_lines():
    for seed in (0, 3, 11):
        config = random_config(seed, max_total=12)
        incidence = incidence_of(config)
        profile = compute_profile(incidence, config.colors)
        big_r = 2 * (profile.n + 1)
        assert count_equichromatic(profile, EquichromaticQuery(big_r, None)) == len(incidence)


def test_size_marginals():
    assert incidence_of(square_config()).size_counts == {2: 6}
    assert incidence_of(configuration(hesse(), (GREEN,) * 9, -3)).size_counts == {3: 12}
