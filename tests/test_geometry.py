import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import (
    ALL_DS,
    oracle_canonical_triple,
    oracle_integer_coords,
    oracle_line_through,
    random_config,
    random_points,
    reference_lines,
)

from equilines import geometry
from equilines.errors import (
    DuplicatePointError,
    FieldMismatchError,
    InsufficientPointsError,
)
from equilines.generators import hesse
from equilines.geometry import (
    GREEN,
    RED,
    ColoredConfiguration,
    ProjPoint,
    affine_point,
    configuration,
    _key_dtype,
    _pair_keys,
    enumerate_lines,
)
from equilines.quadfield import (
    MAX_ABS_DISCRIMINANT,
    Discriminant,
    is_squarefree,
    one,
    quad,
    sqrt_d,
    zero,
)


def P(x, y, z, d=5):
    return ProjPoint(quad(x, d=d), quad(y, d=d), quad(z, d=d))


def test_point_canonicalization():
    assert P(2, 4, 6) == P(1, 2, 3)
    assert P(0, 3, 6) == P(0, 1, 2)
    x, y, _ = ProjPoint(zero(-3), sqrt_d(-3), one(-3)).coords
    assert x.is_zero and y == one(-3)  # first nonzero scaled to 1


def test_point_canonicalization_idempotent():
    for seed in range(5):
        for p in random_points(random.Random(seed), 6, -3):
            assert ProjPoint(*p.coords) == p


components = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def triples(draw, d):
    """A nonzero triple over Q(sqrt(d)) whose first nonzero coordinate (the
    pivot) is x, y or z; the pivot is rational, has a sqrt(d) part, or,
    for d > 0, has a negative norm a^2 - b^2 d."""
    at = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["rational", "quadratic", "negative_norm"]))
    b = Fraction(0) if kind == "rational" else draw(components.filter(bool))
    a = draw(components)
    if kind == "negative_norm" and d > 0:
        a = draw(st.fractions(min_value=-abs(b), max_value=abs(b), max_denominator=12))
        assume(a * a < b * b * d)
    assume(a or b)
    coords = [zero(d)] * at + [quad(a, b, d=d)]
    for _ in range(2 - at):
        coords.append(quad(draw(components), draw(st.just(0) | components), d=d))
    return tuple(coords)


@pytest.mark.parametrize("d", ALL_DS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_canonical_triple_matches_fraction_oracle(d, data):
    triple = data.draw(triples(d))
    expected = oracle_canonical_triple(*triple)
    p = ProjPoint(*triple)
    assert p.coords == expected
    assert hash(p) == hash(ProjPoint(*expected))
    assert p.row == oracle_integer_coords(expected)
    assert ProjPoint(*p.coords) == p
    assert str(p) == "({} : {} : {})".format(*expected)
    assert p.is_real == all(c.is_real for c in expected)
    assert vars(p).keys() == {"d", "row"}
    elsewhere = as_point(p.row, next(e for e in ALL_DS if e != d))
    assert elsewhere.row == p.row and elsewhere != p
    # An irrational scalar multiple is the same point.
    scale = quad(data.draw(components), data.draw(components.filter(bool)), d=d)
    scaled = ProjPoint(*(scale * c for c in triple))
    assert scaled == p and hash(scaled) == hash(p) and scaled.row == p.row
    other = data.draw(triples(d))
    q = ProjPoint(*other)
    assert (q == p) == (oracle_canonical_triple(*other) == expected) == (q.row == p.row)


def test_point_rejects_zero_triple():
    with pytest.raises(ValueError):
        P(0, 0, 0)


def test_point_rejects_mixed_fields():
    with pytest.raises(FieldMismatchError):
        ProjPoint(one(5), one(2), one(5))


def collinear(p, q, r):
    """Three distinct points lie on one line iff they determine one line."""
    return len(enumerate_lines((p, q, r))) == 1


def test_collinear_examples():
    assert not collinear(P(1, 0, 1), P(0, 1, 1), P(1, 1, 1))
    assert collinear(P(0, 0, 1), P(1, 1, 1), P(2, 2, 1))
    d = -3
    omega = quad(Fraction(-1, 2), Fraction(1, 2), d=d)
    a = ProjPoint(zero(d), one(d), -one(d))
    b = ProjPoint(zero(d), one(d), -omega)
    c = ProjPoint(zero(d), one(d), -(omega * omega))
    assert collinear(a, b, c)


def test_collinear_symmetric_under_permutations():
    pts = [P(0, 0, 1), P(1, 2, 1), P(2, 4, 1)]
    for perm in itertools.permutations(pts):
        assert collinear(*perm)
    pts = [P(1, 0, 1), P(0, 1, 1), P(1, 1, 1)]
    for perm in itertools.permutations(pts):
        assert not collinear(*perm)


def test_collinear_agrees_with_numeric_determinant():
    # Independent approximate oracle: complex-float 3x3 determinant.
    rng = random.Random(7)
    for d in (-3, -1, 2, 5):
        pts = random_points(rng, 9, d)
        for a, b, c in itertools.combinations(pts, 3):
            m = [[complex(v) for v in p.coords] for p in (a, b, c)]
            det = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            assert collinear(a, b, c) == (abs(det) < 1e-9)


def test_line_through_examples():
    # The oracle that reference_lines groups the pairs by.
    horizontal = oracle_line_through(P(0, 0, 1), P(1, 0, 1))
    assert horizontal == (zero(5), one(5), zero(5))
    at_infinity = oracle_line_through(P(1, 0, 0), P(0, 1, 0))
    assert at_infinity == (zero(5), zero(5), one(5))
    diagonal = oracle_line_through(P(0, 0, 1), P(1, 1, 1))
    assert diagonal == (one(5), -one(5), zero(5))


def test_line_through_incidence():
    p, q = P(2, 3, 1), P(-1, 7, 2)
    u, v, w = oracle_line_through(p, q)
    for x, y, z in (p.coords, q.coords):
        assert (u * x + v * y + w * z).is_zero


def test_enumerate_triangle():
    pts = (P(0, 0, 1), P(1, 0, 1), P(0, 1, 1))
    lines = enumerate_lines(pts)
    assert len(lines) == 3
    assert all(rec.size == 2 for rec in lines)


def test_enumerate_three_collinear():
    pts = (P(0, 0, 1), P(1, 1, 1), P(2, 2, 1))
    lines = enumerate_lines(pts)
    assert len(lines) == 1
    assert lines[0].point_indices == (0, 1, 2)


def test_enumerate_hesse():
    lines = enumerate_lines(hesse())
    assert len(lines) == 12
    assert all(rec.size == 3 for rec in lines)
    # each point lies on exactly 4 of the 12 lines
    per_point = [0] * 9
    for rec in lines:
        for idx in rec.point_indices:
            per_point[idx] += 1
    assert per_point == [4] * 9
    # A slice gives what the same slice of the tuple of lines gives.
    for cut in (slice(1, 3), slice(None, None, -1), slice(-2, 3, -3), slice(5, 5), slice(20, 30)):
        assert lines[cut] == tuple(lines)[cut]
    assert lines[::-5] == (lines[11], lines[6], lines[1]) and lines[7:2] == ()


def test_pair_coverage_identity():
    for seed in range(40):
        config = random_config(seed, max_total=12)
        total = sum(math.comb(rec.size, 2) for rec in config.incidence.lines)
        assert total == math.comb(config.total, 2)


def test_enumeration_is_order_independent():
    rng = random.Random(3)
    for seed in range(10):
        config = random_config(seed, max_total=10)
        pts = list(config.points)
        rng.shuffle(pts)
        original, shuffled = (
            {frozenset(points[i].row for i in rec.point_indices) for rec in enumerate_lines(points)}
            for points in (config.points, tuple(pts))
        )
        assert original == shuffled
        sizes = sorted(rec.size for rec in enumerate_lines(config.points))
        sizes_shuffled = sorted(rec.size for rec in enumerate_lines(tuple(pts)))
        assert sizes == sizes_shuffled


def test_line_through_matches_enumerated_line():
    for seed in (1, 5, 9):
        config = random_config(seed, max_total=9)
        for rec in config.incidence.lines:
            a, b = (config.points[i] for i in rec.point_indices[:2])
            for i, j in itertools.combinations(rec.point_indices, 2):
                line = oracle_line_through(config.points[i], config.points[j])
                assert line == oracle_line_through(a, b)


def test_line_key_invariant_under_irrational_scaling():
    # Pairs on one line yield cross products differing by a field scalar
    # that is irrational in general; the dedup key must not depend on it.
    d = -3
    omega = quad(Fraction(-1, 2), Fraction(1, 2), d=d)
    a = ProjPoint(zero(d), one(d), -one(d))
    b = ProjPoint(zero(d), one(d), -omega)
    c = ProjPoint(zero(d), one(d), -(omega * omega))
    ia, ib, ic = (p.row for p in (a, b, c))
    keys = _pair_keys(np.array([ia, ia, ib]).T, np.array([ib, ic, ic]).T, d)
    keys = {tuple(key) for key in keys.T.tolist()}
    assert len(keys) == 1
    (line,) = enumerate_lines((a, b, c))
    assert line.point_indices == (0, 1, 2)
    assert oracle_line_through(a, b) == oracle_line_through(b, c)


def test_line_key_matches_line_through_on_random_pairs():
    rng = random.Random(21)
    for d in (-3, -1, 2, 5):
        pts = random_points(rng, 8, d)
        pairs = list(itertools.combinations(pts, 2))
        keys = _pair_keys(
            np.array([p.row for p, _ in pairs]).T,
            np.array([q.row for _, q in pairs]).T,
            d,
        )
        keyed = [(key, oracle_line_through(p, q)) for (p, q), key in zip(pairs, keys.T.tolist())]
        for (key1, line1), (key2, line2) in itertools.product(keyed, repeat=2):
            assert (key1 == key2) == (line1 == line2)


ORACLE_SEEDS = range(40)


@pytest.mark.parametrize("block", [geometry._PAIR_BLOCK, 1, 7])
def test_enumerate_lines_matches_exact_oracle(block, monkeypatch):
    # Small blocks cut through the run of pairs of a line.
    monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
    seen = set()
    for seed in ORACLE_SEEDS:
        config = random_config(seed, max_total=14)
        seen.add(config.discriminant.d)
        lines = enumerate_lines(config.points)
        assert [rec.point_indices for rec in lines] == reference_lines(config.points)
    assert seen == set(ALL_DS)


def test_int64_and_object_keys_agree(monkeypatch):
    points = [random_config(seed, max_total=14).points for seed in ORACLE_SEEDS]
    for pts in points:
        ints = [p.row for p in pts]
        assert _key_dtype(ints, pts[0].d) is np.int64
        i, j = np.triu_indices(len(pts), 1)
        keys = {}
        for dtype in (np.int64, object):
            coords = np.array(ints, dtype=dtype).T
            keys[dtype] = _pair_keys(coords[:, i], coords[:, j], pts[0].d)
        assert keys[np.int64].dtype == np.int64 and keys[object].dtype == object
        assert keys[np.int64].tolist() == keys[object].tolist()
    fast = [enumerate_lines(pts) for pts in points]
    monkeypatch.setattr(geometry, "_key_dtype", lambda ints, d: object)
    for block in (geometry._PAIR_BLOCK, 7):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        for pts, lines in zip(points, fast):
            exact = enumerate_lines(pts)
            assert lines.indptr.tolist() == exact.indptr.tolist()
            assert lines.points.tolist() == exact.points.tolist()
            assert list(lines) == list(exact)


def lines_and_stragglers(d, base, step):
    """Four points on one line through `base`, a line of three, and two
    more points, all with coordinates near `base`."""
    pts = [affine_point(base + t * step, base + 2 * t * step, d=d) for t in range(4)]
    pts += [affine_point(base + t, base - 3 * t + 1, d=d) for t in (1, 2, 3)]
    pts += [affine_point(base - 5, base + 7, d=d), affine_point(base + 11, base - 2, d=d)]
    return tuple(pts)


def test_object_path_on_large_coordinates(monkeypatch):
    pts = lines_and_stragglers(5, 10**7, 3) + random_points(random.Random(2), 6, 5)
    assert _key_dtype([p.row for p in pts], 5) is object
    for block in (geometry._PAIR_BLOCK, 7):
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        lines = enumerate_lines(pts)
        assert [rec.point_indices for rec in lines] == reference_lines(pts)
        assert max(rec.size for rec in lines) == 4


def test_object_path_on_large_discriminant():
    d = -next(m for m in range(MAX_ABS_DISCRIMINANT, 0, -1) if is_squarefree(m))
    assert -d > MAX_ABS_DISCRIMINANT - 100
    pts = lines_and_stragglers(d, 0, 1) + random_points(random.Random(3), 8, d)
    assert _key_dtype([p.row for p in pts], d) is object
    lines = enumerate_lines(pts)
    assert [rec.point_indices for rec in lines] == reference_lines(pts)


def largest_int64_component(d):
    """The largest M for which _key_dtype still picks int64."""
    lo, hi = 1, 2**32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _key_dtype([(mid,) * 6], d) is np.int64 else (lo, mid)
    return lo


def as_point(row, d):
    return ProjPoint(*(quad(row[k], row[k + 1], d=d) for k in (0, 2, 4)))


@pytest.mark.parametrize("d", ALL_DS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_int64_keys_exact_just_under_headroom_threshold(d, data):
    # Components at +-M with aligned signs reach every bound the headroom
    # rule relies on, so an underestimated bound shows up as a mismatch.
    m = largest_int64_component(d)
    assert _key_dtype([(m + 1,) * 6], d) is object
    component = st.one_of(st.sampled_from([m, -m, m - 1, -m + 1]), st.integers(-m, m))
    p, q = (data.draw(st.tuples(*[component] * 6)) for _ in range(2))
    assume(any(p) and any(q) and as_point(p, d) != as_point(q, d))
    fast = _pair_keys(np.array([p], dtype=np.int64).T, np.array([q], dtype=np.int64).T, d)
    exact = _pair_keys(np.array([p], dtype=object).T, np.array([q], dtype=object).T, d)
    assert fast.tolist() == exact.tolist()


def test_max_collinear():
    square = configuration(
        (P(0, 0, 1), P(1, 0, 1), P(0, 1, 1), P(1, 1, 1)),
        (GREEN, GREEN, RED, RED),
        5,
    )
    assert square.incidence.max_collinear == 2
    pencil_pts = tuple(P(i, 0, 1) for i in range(4)) + (P(0, 1, 1),)
    pencil = configuration(pencil_pts, (GREEN,) * 5, 5)
    assert pencil.incidence.max_collinear == 4
    hesse_cfg = configuration(hesse(), (GREEN,) * 9, -3)
    assert hesse_cfg.incidence.max_collinear == 3


def test_max_collinear_needs_two_points():
    lonely = configuration((P(0, 0, 1),), (GREEN,), 5)
    with pytest.raises(InsufficientPointsError):
        lonely.incidence


def test_configuration_rejects_duplicates():
    with pytest.raises(DuplicatePointError) as exc:
        configuration((P(0, 0, 1), P(1, 1, 1), P(2, 2, 2)), (GREEN, RED, RED), 5)
    assert exc.value.indices == (1, 2)


def test_configuration_majority_relabel():
    config = configuration(
        (P(0, 0, 1), P(1, 0, 1), P(0, 1, 1)), (RED, RED, GREEN), 5
    )
    assert config.colors_swapped
    assert config.colors == (GREEN, GREEN, RED)
    assert config.n == 2 and config.k == 1


def test_configuration_no_relabel_on_tie():
    config = configuration((P(0, 0, 1), P(1, 0, 1)), (RED, GREEN), 5)
    assert not config.colors_swapped
    assert config.n == 1 and config.k == 0


def test_configuration_checks_field():
    with pytest.raises(FieldMismatchError):
        ColoredConfiguration(
            Discriminant(2), (P(0, 0, 1, d=5), P(1, 0, 1, d=5)), (GREEN, RED)
        )


def test_affine_lift():
    p = affine_point(Fraction(1, 2), Fraction(-3, 4), d=5)
    assert p == P(Fraction(1, 2), Fraction(-3, 4), 1)
