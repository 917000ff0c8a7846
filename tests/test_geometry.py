import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import (
    ALL_DS,
    PATHS,
    incidence_of,
    line_tuples,
    oracle_canonical_triple,
    oracle_integer_coords,
    oracle_line_through,
    random_config,
    random_points,
    reference_lines,
    use_path,
)

from equilines import geometry, pencil, sort
from equilines.errors import ConfigError, InternalInconsistencyError
from equilines.generators import grid, hesse, near_pencil
from equilines.geometry import enumerate_lines, row_cross, row_det
from equilines.sort import _det_dtype, _pair_keys
from equilines.points import (
    GREEN,
    RED,
    MAX_KEY_BITS,
    ColoredConfiguration,
    ProjPoint,
    affine_point,
    configuration,
)
from equilines.profiles import compute_profile
from equilines.quadfield import (
    MAX_ABS_DISCRIMINANT,
    Discriminant,
    is_squarefree,
    quad,
)


def P(x, y, z, d=5):
    return ProjPoint(quad(x, d=d), quad(y, d=d), quad(z, d=d))


def test_point_canonicalization():
    assert P(2, 4, 6) == P(1, 2, 3)
    assert P(0, 3, 6) == P(0, 1, 2)
    x, y, _ = ProjPoint(quad(0, d=-3), quad(0, 1, d=-3), quad(1, d=-3)).coords
    assert x.is_zero and y == quad(1, d=-3)  # first nonzero scaled to 1


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
    coords = [quad(0, d=d)] * at + [quad(a, b, d=d)]
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
    with pytest.raises(ConfigError, match="must share a discriminant"):
        ProjPoint(quad(1, d=5), quad(1, d=2), quad(1, d=5))


def collinear(p, q, r):
    """Three distinct points lie on one line iff they determine one line."""
    return len(enumerate_lines((p, q, r))) == 1


def test_collinear_examples():
    assert not collinear(P(1, 0, 1), P(0, 1, 1), P(1, 1, 1))
    assert collinear(P(0, 0, 1), P(1, 1, 1), P(2, 2, 1))
    d = -3
    omega = quad(Fraction(-1, 2), Fraction(1, 2), d=d)
    a = ProjPoint(quad(0, d=d), quad(1, d=d), -quad(1, d=d))
    b = ProjPoint(quad(0, d=d), quad(1, d=d), -omega)
    c = ProjPoint(quad(0, d=d), quad(1, d=d), -(omega * omega))
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
    assert horizontal == (quad(0, d=5), quad(1, d=5), quad(0, d=5))
    at_infinity = oracle_line_through(P(1, 0, 0), P(0, 1, 0))
    assert at_infinity == (quad(0, d=5), quad(0, d=5), quad(1, d=5))
    diagonal = oracle_line_through(P(0, 0, 1), P(1, 1, 1))
    assert diagonal == (quad(1, d=5), -quad(1, d=5), quad(0, d=5))


def test_line_through_incidence():
    p, q = P(2, 3, 1), P(-1, 7, 2)
    u, v, w = oracle_line_through(p, q)
    for x, y, z in (p.coords, q.coords):
        assert (u * x + v * y + w * z).is_zero


def test_enumerate_triangle():
    pts = (P(0, 0, 1), P(1, 0, 1), P(0, 1, 1))
    lines = enumerate_lines(pts)
    assert len(lines) == 3
    assert all(len(line) == 2 for line in line_tuples(lines))


def test_enumerate_three_collinear():
    pts = (P(0, 0, 1), P(1, 1, 1), P(2, 2, 1))
    lines = enumerate_lines(pts)
    assert len(lines) == 1
    assert line_tuples(lines)[0] == (0, 1, 2)


def test_enumerate_hesse():
    lines = enumerate_lines(hesse())
    assert len(lines) == 12
    assert all(len(line) == 3 for line in line_tuples(lines))
    # each point lies on exactly 4 of the 12 lines
    per_point = [0] * 9
    for line in line_tuples(lines):
        for idx in line:
            per_point[idx] += 1
    assert per_point == [4] * 9


def test_pair_coverage_identity():
    for seed in range(40):
        config = random_config(seed, max_total=12)
        total = sum(math.comb(len(line), 2) for line in line_tuples(incidence_of(config)))
        assert total == math.comb(config.total, 2)


def test_enumeration_is_order_independent():
    rng = random.Random(3)
    for seed in range(10):
        config = random_config(seed, max_total=10)
        pts = list(config.points)
        rng.shuffle(pts)
        original, shuffled = (
            {frozenset(points[i].row for i in line) for line in line_tuples(enumerate_lines(points))}
            for points in (config.points, tuple(pts))
        )
        assert original == shuffled
        sizes = sorted(map(len, line_tuples(enumerate_lines(config.points))))
        sizes_shuffled = sorted(map(len, line_tuples(enumerate_lines(tuple(pts)))))
        assert sizes == sizes_shuffled


def test_line_through_matches_enumerated_line():
    for seed in (1, 5, 9):
        config = random_config(seed, max_total=9)
        for line in line_tuples(incidence_of(config)):
            a, b = (config.points[i] for i in line[:2])
            for i, j in itertools.combinations(line, 2):
                line = oracle_line_through(config.points[i], config.points[j])
                assert line == oracle_line_through(a, b)


def reduced(points):
    """A prime from the enumeration's own source at which the points reduce,
    with their residues: the keys of that prime group the pairs (sort path)."""
    rows = [p.row for p in points]
    return next(
        (p, np.array(res, dtype=np.int64)) for p in geometry._primes(rows)
        if (res := geometry.residues(rows, points[0].d, p)) is not None
    )


def pair_keys(points, pairs):
    p, res = reduced(points)
    i, j = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    return _pair_keys(res, i, j, p).tolist()


def test_line_key_invariant_under_irrational_scaling():
    # Three points of one line whose rows differ by irrational scalars: the
    # keys of its pairs must not depend on them.
    d = -3
    omega = quad(Fraction(-1, 2), Fraction(1, 2), d=d)
    a = ProjPoint(quad(0, d=d), quad(1, d=d), -quad(1, d=d))
    b = ProjPoint(quad(0, d=d), quad(1, d=d), -omega)
    c = ProjPoint(quad(0, d=d), quad(1, d=d), -(omega * omega))
    assert len(set(pair_keys((a, b, c), [(0, 1), (0, 2), (1, 2)]))) == 1
    (line,) = line_tuples(enumerate_lines((a, b, c)))
    assert line == (0, 1, 2)
    assert oracle_line_through(a, b) == oracle_line_through(b, c)


def test_line_key_matches_line_through_on_random_pairs():
    rng = random.Random(21)
    for d in (-3, -1, 2, 5):
        pts = random_points(rng, 8, d) + lines_and_stragglers(d, 3, 2)
        pairs = list(itertools.combinations(range(len(pts)), 2))
        keyed = [
            (key, oracle_line_through(pts[i], pts[j]))
            for (i, j), key in zip(pairs, pair_keys(pts, pairs))
        ]
        for (key1, line1), (key2, line2) in itertools.product(keyed, repeat=2):
            assert (key1 == key2) == (line1 == line2)


ORACLE_SEEDS = range(40)


@pytest.mark.parametrize("block", [sort._PAIR_BLOCK, 1, 7])
def test_enumerate_lines_matches_exact_oracle(block, monkeypatch):
    # Small blocks cut through the run of pairs of a line.
    use_path(monkeypatch, "sort")
    monkeypatch.setattr(sort, "_PAIR_BLOCK", block)
    seen = set()
    for seed in ORACLE_SEEDS:
        config = random_config(seed, max_total=14)
        seen.add(config.discriminant.d)
        lines = enumerate_lines(config.points)
        assert line_tuples(lines) == reference_lines(config.points)
    assert seen == set(ALL_DS)


def test_lines_agree_across_primes_and_check_dtypes(monkeypatch):
    use_path(monkeypatch, "sort")
    points = [random_config(seed, max_total=14).points for seed in ORACLE_SEEDS]
    for pts in points:
        assert _det_dtype(max(abs(v) for p in pts for v in p.row), pts[0].d) is np.int64
    fast = [enumerate_lines(pts) for pts in points]
    primes = geometry._primes
    monkeypatch.setattr(sort, "_det_dtype", lambda m, d: object)
    for block in (sort._PAIR_BLOCK, 7):
        monkeypatch.setattr(sort, "_PAIR_BLOCK", block)
        for skip, (pts, lines) in enumerate(zip(points, fast)):
            # Other primes than the first: the lines must not depend on it.
            later = lambda rows, skip=skip: itertools.islice(primes(rows), 1 + skip % 5, None)
            monkeypatch.setattr(geometry, "_primes", later)
            exact = enumerate_lines(pts)
            assert lines.indptr.tolist() == exact.indptr.tolist()
            assert lines.points.tolist() == exact.points.tolist()
            assert line_tuples(lines) == line_tuples(exact)


def path_cases():
    """Seeded point sets for both paths: random ones over every d, with
    points at infinity, on each side of the crossover, and the families."""
    rng = random.Random(17)
    cases = [(f"random-{seed}", random_config(seed, max_total=40).points) for seed in range(16)]
    cases += [(f"random-{d}-{total}", random_points(rng, total, d))
              for d in ALL_DS for total in (60, 400)]
    cases += [("grid-4", grid(4)), ("grid-20", grid(20)), ("hesse", hesse()),
              ("near-pencil-10", near_pencil(10)), ("near-pencil-400", near_pencil(400)),
              ("grid-25", grid(25))]
    return cases


PATH_CASES = path_cases()


@pytest.mark.parametrize("points", [c[1] for c in PATH_CASES], ids=[c[0] for c in PATH_CASES])
def test_pencil_and_sort_paths_agree(monkeypatch, points):
    rng = random.Random(len(points))
    colors = tuple(rng.choice((GREEN, RED)) for _ in points)
    seen = []
    for path in PATHS:
        use_path(monkeypatch, path)
        config = configuration(points, colors, points[0].d)
        incidence = incidence_of(config)
        seen.append((incidence.indptr.tolist(), incidence.points.tolist(),
                     incidence.size_counts, compute_profile(incidence, config.colors).counts))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("path", PATHS)
def test_enumeration_gives_up_when_no_prime_separates_the_lines(monkeypatch, path):
    # Every prime the path tries merges lines: after _MAX_PRIMES primes the
    # enumeration stops with an internal error that names the count.
    use_path(monkeypatch, path)
    module, name = {"pencil": (pencil, "pencil_lines"), "sort": (sort, "sort_lines")}[path]
    tried = []
    monkeypatch.setattr(module, name, lambda rows, d, res, p: tried.append(p))
    monkeypatch.setattr(geometry, "_MAX_PRIMES", 5)
    with pytest.raises(InternalInconsistencyError, match="^no prime of 5 separated the lines$"):
        enumerate_lines(grid(3))
    assert 0 < len(tried) <= 5


def test_path_cases_lie_on_both_sides_of_the_crossover():
    sides = {geometry.pencil_path(len(points)) for _, points in PATH_CASES}
    assert sides == {True, False}
    assert {p.d for _, points in PATH_CASES for p in points} == set(ALL_DS)
    assert any(p.row[4:] == (0, 0) for _, points in PATH_CASES for p in points)  # at infinity


def lines_and_stragglers(d, base, step):
    """Four points on one line through `base`, a line of three, and two
    more points, all with coordinates near `base`."""
    pts = [affine_point(base + t * step, base + 2 * t * step, d=d) for t in range(4)]
    pts += [affine_point(base + t, base - 3 * t + 1, d=d) for t in (1, 2, 3)]
    pts += [affine_point(base - 5, base + 7, d=d), affine_point(base + 11, base - 2, d=d)]
    return tuple(pts)


def largest_component(pts):
    return max(abs(v) for p in pts for v in p.row)


def test_enumerate_lines_on_large_coordinates(monkeypatch):
    pts = lines_and_stragglers(5, 10**7, 3) + random_points(random.Random(2), 6, 5)
    assert _det_dtype(largest_component(pts), 5) is object
    huge = lines_and_stragglers(5, 2**185, 3**20) + random_points(random.Random(4), 4, 5)
    assert largest_component(huge).bit_length() > 185
    block = sort._PAIR_BLOCK
    for path, block in (("pencil", block), ("sort", block), ("sort", 7)):
        use_path(monkeypatch, path)
        monkeypatch.setattr(sort, "_PAIR_BLOCK", block)
        lines = enumerate_lines(pts)
        assert line_tuples(lines) == reference_lines(pts)
        assert max(map(len, line_tuples(lines))) == 4
        # Components near the key-size limit.
        assert line_tuples(enumerate_lines(huge)) == reference_lines(huge)


def test_enumerate_lines_on_large_discriminant(monkeypatch):
    d = -next(m for m in range(MAX_ABS_DISCRIMINANT, 0, -1) if is_squarefree(m))
    assert -d > MAX_ABS_DISCRIMINANT - 100
    pts = lines_and_stragglers(d, 0, 1) + random_points(random.Random(3), 8, d)
    assert _det_dtype(largest_component(pts), d) is object
    for path in PATHS:
        use_path(monkeypatch, path)
        lines = enumerate_lines(pts)
        assert line_tuples(lines) == reference_lines(pts)


def largest_int64_component(d):
    """The largest M for which _det_dtype still picks int64."""
    lo, hi = 1, 2**32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _det_dtype(mid, d) is np.int64 else (lo, mid)
    return lo


def as_point(row, d):
    return ProjPoint(*(quad(row[k], row[k + 1], d=d) for k in (0, 2, 4)))


def assert_chart_key(key, p_res, q_res, p):
    """key is s p + t for the line y = s x + t mod p through the two chart
    points, with 0 <= s, t < p: one such line exists, as their xs differ."""
    s, t = divmod(key, p)
    assert 0 <= s < p and 0 <= t < p
    assert all((s * x + t - y) % p == 0 for x, y in (p_res, q_res))


@pytest.mark.parametrize("d", ALL_DS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_int64_keys_exact_just_under_headroom_threshold(d, data):
    # The exact check: components at +-M with aligned signs reach every
    # bound the headroom rule relies on, so an underestimated bound shows
    # up as a mismatch with Python ints.
    m = largest_int64_component(d)
    assert _det_dtype(m + 1, d) is object
    component = st.one_of(st.sampled_from([m, -m, m - 1, -m + 1]), st.integers(-m, m))
    rows = [data.draw(st.tuples(*[component] * 6)) for _ in range(3)]
    fast = row_det(*np.array(rows, dtype=np.int64)[:, :, None], d)
    assert [int(part[0]) for part in fast] == list(row_det(*rows, d))
    # The keys: residues just under p keep every product below 2^60.
    p = data.draw(st.sampled_from([1_073_741_789, 2**29 + 11, 1_000_000_007]))
    residue = st.one_of(st.sampled_from([p - 1, p - 2, 1]), st.integers(0, p - 1))
    p_res, q_res = (data.draw(st.tuples(residue, residue)) for _ in range(2))
    assume(p_res[0] != q_res[0])
    res = np.array([p_res, q_res], dtype=np.int64).T
    key = _pair_keys(res, np.array([0]), np.array([1]), p)
    assert key.dtype == np.int64
    assert_chart_key(key.tolist()[0], p_res, q_res, p)


@pytest.mark.parametrize("d", ALL_DS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_row_cross_and_row_det_match_fraction_oracle(d, data):
    # Rows up to the key-size limit, and a third point on the line or not.
    big = st.integers(-(2**MAX_KEY_BITS) + 1, 2**MAX_KEY_BITS - 1)
    component = st.one_of(st.integers(-3, 3), big)
    p, q = (as_point(data.draw(st.tuples(*[component] * 6).filter(any)), d) for _ in range(2))
    assume(p != q)
    line = oracle_line_through(p, q)
    cross = row_cross(p.row, q.row, d)
    assert oracle_canonical_triple(*(quad(cross[k], cross[k + 1], d=d) for k in (0, 2, 4))) == line
    lam, mu = (quad(data.draw(st.integers(-5, 5)), data.draw(st.integers(-5, 5)), d=d) for _ in range(2))
    on_line = [lam * a + mu * b for a, b in zip(p.coords, q.coords)]
    assume(any(not c.is_zero for c in on_line))
    third = data.draw(st.sampled_from([ProjPoint(*on_line), as_point(data.draw(
        st.tuples(*[component] * 6).filter(any)), d)]))
    u, v, w = line
    x, y, z = third.coords
    assert (row_det(p.row, q.row, third.row, d) == (0, 0)) == (u * x + v * y + w * z).is_zero


def test_prime_source_and_square_roots():
    def trial(n):
        return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))

    # 314,821 = 13 * 61 * 397 is a strong pseudoprime to the bases 2 and 7:
    # the base 61 is what rejects it.
    for window in (range(3000), range(314_000, 316_000)):
        assert [n for n in window if geometry._is_prime(n)] == [n for n in window if trial(n)]
    rows = [p.row for p in random_points(random.Random(1), 5, 5)]
    drawn = list(itertools.islice(geometry._primes(rows), 20))
    assert drawn == list(itertools.islice(geometry._primes(rows), 20))
    assert all(2**29 <= p < 2**30 and trial(p) for p in drawn[:3])
    for p in (3, 7, 13, 17, 97, 1_000_000_007, *drawn):
        for a in (-3, -1, 2, 5, 0, p - 1, 10**12 - 11):
            r = geometry._sqrt_mod(a, p)
            if r is None:
                assert pow(a % p, (p - 1) // 2, p) == p - 1
            else:
                assert r * r % p == a % p


def cross_mod(s, t, p):
    return ((s[1] * t[2] - s[2] * t[1]) % p, (s[2] * t[0] - s[0] * t[2]) % p,
            (s[0] * t[1] - s[1] * t[0]) % p)


def test_residues_reject_exactly_the_primes_that_can_split_a_line():
    # Small primes, where every rejection is common, checked by brute force
    # on the raw triples under the root of d that the reduction takes, and
    # on the frame of the prime.
    rng, seen = random.Random(24), Counter()
    small_primes = [p for p in range(3, 98) if geometry._is_prime(p)]
    for _ in range(60):
        d = rng.choice(ALL_DS)
        at_infinity = ProjPoint(quad(1, d=d), quad(0, d=d), quad(0, d=d))
        points = random_points(rng, rng.randint(2, 10), d) + (at_infinity,)
        rows = [pt.row for pt in points]
        for p in small_primes:
            res = geometry.residues(rows, d, p)
            if not any(r * r % p == d % p for r in range(p)):
                seen["no root"] += 1
                assert res is None
                continue
            r = geometry._sqrt_mod(d, p)
            assert r * r % p == d % p
            raw = [tuple((a + b * r) % p for a, b in zip(row[0::2], row[1::2])) for row in rows]
            a, b, c = geometry.chart_frame(p)
            assert (a, b, c) == geometry.chart_frame(p) and all(0 <= v < p for v in (a, b, c))
            # The frame's images (x + c y : y : z + a x + b y) of the triples.
            framed = [((x + c * y) % p, y, (z + a * x + b * y) % p) for x, y, z in raw]
            if not all(map(any, raw)):
                reason = "triple vanishes"
            elif any(not any(cross_mod(s, t, p)) for s, t in itertools.combinations(raw, 2)):
                reason = "points coincide"
            elif not all(w for _, _, w in framed):
                reason = "w = 0"
            elif any((s[0] * t[2] - t[0] * s[2]) % p == 0
                     for s, t in itertools.combinations(framed, 2)):
                reason = "x shared"
            else:
                reason = None
            seen[reason] += 1
            assert (res is None) == (reason is not None), (rows, d, p, reason)
            if res is None:
                continue
            xs, ys = res
            assert len(xs) == len(ys) == len(rows) == len(set(xs))
            chart = [(x, y, 1) for x, y in zip(xs, ys)]
            for s, t in zip(chart, framed):
                assert all(0 <= v < p for v in s)
                assert not any(cross_mod(s, t, p))  # proportional, both nonzero
            # Three points are collinear mod p iff their chart images are.
            for trio in itertools.combinations(range(len(rows)), 3):
                collinear = det_mod(*(raw[k] for k in trio), p) == 0
                assert collinear == (det_mod(*(chart[k] for k in trio), p) == 0)
                seen["collinear"] += collinear
    assert set(seen) == {"no root", "triple vanishes", "points coincide", "w = 0", "x shared",
                         None, "collinear"}, seen


def det_mod(s, t, u, p):
    return sum(a * b for a, b in zip(cross_mod(s, t, p), u)) % p


def merged_pencil():
    """x = 0 and x = 7 with two points each: distinct points mod 7, where
    the two lines and all four pairs across them merge into one."""
    return tuple(affine_point(x, y, d=2) for x, y in ((0, 1), (0, 2), (7, 3), (7, 4)))


TINY_PRIMES = [(random_config(5, max_total=14).points, 3, True), (merged_pencil(), 7, False)]


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("points, tiny, points_coincide", TINY_PRIMES,
                         ids=["points-coincide", "lines-merge"])
def test_tiny_prime_is_rejected(monkeypatch, points, tiny, points_coincide, path):
    # Mod 3 two points coincide; mod 7 the pencil of (0, 1) sees the other
    # three points at one slope, and the sort keys all six pairs alike.
    use_path(monkeypatch, path)
    rows = [p.row for p in points]
    res = geometry.residues(rows, points[0].d, tiny)
    assert (res is None) == points_coincide
    if res is not None:  # only the exact check of the merged group catches it
        lines_mod = {"pencil": pencil.pencil_lines, "sort": sort.sort_lines}[path]
        assert lines_mod(rows, points[0].d, res, tiny) is None
    assert_next_prime_gives_the_lines(monkeypatch, points, tiny)


def assert_next_prime_gives_the_lines(monkeypatch, points, tiny):
    """Draw tiny first: enumeration must reject it and take the next prime."""
    drawn, primes = [], geometry._primes

    def tiny_first(rows):
        for p in itertools.chain([tiny], primes(rows)):
            drawn.append(p)
            yield p

    monkeypatch.setattr(geometry, "_primes", tiny_first)
    assert line_tuples(enumerate_lines(points)) == reference_lines(points)
    assert drawn[0] == tiny and len(drawn) >= 2


MERGE_XY = [(0, 0), (1, 0), (2, 0), (1, 5), (3, 8), (7, 2), (4, 11), (-3, 6), (-6, -7)]


def test_merged_group_must_start_at_its_first_point(monkeypatch):
    # A 3-point line {0, 1, 2} and three 2-point lines have C(4, 2) pairs
    # between them.  Merged, they would pass as the line (0, 1, 2, 2) if
    # only the count and the collinearity with the first two were checked.
    # With one 2-point line they have 4 pairs, which no line has.
    use_path(monkeypatch, "sort")
    points = tuple(affine_point(x, y, d=5) for x, y in MERGE_XY)
    assert [line for line in reference_lines(points) if len(line) > 2] == [(0, 1, 2)]
    pair_keys_mod = sort._pair_keys
    for merged in ({(0, 1), (0, 2), (1, 2), (3, 4), (5, 6), (7, 8)},
                   {(0, 1), (0, 2), (1, 2), (3, 4)}):
        primes = []

        def merging(res, i, j, p):
            keys = pair_keys_mod(res, i, j, p)
            primes.append(p)
            if len(set(primes)) == 1:  # the first prime only
                keys[[pair in merged for pair in zip(i.tolist(), j.tolist())]] = 0
            return keys

        monkeypatch.setattr(sort, "_pair_keys", merging)
        assert line_tuples(enumerate_lines(points)) == reference_lines(points)
        assert len(set(primes)) == 2


@pytest.mark.parametrize("merged", [(1, 3), (3, 1), (1, 3, 5)],
                         ids=["line-first", "pair-first", "three"])
def test_pencil_merged_slopes_fail_the_exact_check(monkeypatch, merged):
    # Through point 0 run the line {0, 1, 2} and the 2-point lines {0, j}.
    # Under the first prime the pencil of 0 gives the lines through the
    # merged points one slope, so they group as one line; the exact check
    # must reject it, and the next prime give the lines.
    use_path(monkeypatch, "pencil")
    points = tuple(affine_point(x, y, d=5) for x, y in MERGE_XY)
    primes, pencil_keys = [], pencil._pencil_keys

    def merging(x0, y0, xs, ys, p):
        keys = pencil_keys(x0, y0, xs, ys, p)
        primes.append(p)
        if len(set(primes)) == 1 and len(xs) == len(points) - 1:  # point 0, first prime
            for j in merged[1:]:
                keys[j - 1] = keys[merged[0] - 1]
        return keys

    monkeypatch.setattr(pencil, "_pencil_keys", merging)
    assert line_tuples(enumerate_lines(points)) == reference_lines(points)
    assert len(set(primes)) == 2


def test_max_collinear():
    square = configuration(
        (P(0, 0, 1), P(1, 0, 1), P(0, 1, 1), P(1, 1, 1)),
        (GREEN, GREEN, RED, RED),
        5,
    )
    assert incidence_of(square).max_collinear == 2
    pencil_pts = tuple(P(i, 0, 1) for i in range(4)) + (P(0, 1, 1),)
    pencil = configuration(pencil_pts, (GREEN,) * 5, 5)
    assert incidence_of(pencil).max_collinear == 4
    hesse_cfg = configuration(hesse(), (GREEN,) * 9, -3)
    assert incidence_of(hesse_cfg).max_collinear == 3


def test_max_collinear_needs_two_points(monkeypatch):
    lonely = configuration((P(0, 0, 1),), (GREEN,), 5)
    with pytest.raises(ConfigError, match="needs at least 2 points"):
        incidence_of(lonely)
    for points in ((), (P(0, 0, 1),)):
        for path in PATHS:
            use_path(monkeypatch, path)
            with pytest.raises(ConfigError, match="needs at least 2 points"):
                enumerate_lines(points)


def test_configuration_rejects_duplicates():
    with pytest.raises(ConfigError) as exc:
        configuration((P(0, 0, 1), P(1, 1, 1), P(2, 2, 2)), (GREEN, RED, RED), 5)
    assert str(exc.value) == "points 1 and 2 coincide at (1 : 1 : 1)"


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
    with pytest.raises(ConfigError, match=r"does not live in Q\(sqrt\(2\)\)"):
        ColoredConfiguration(
            Discriminant(2), (P(0, 0, 1, d=5), P(1, 0, 1, d=5)), (GREEN, RED)
        )


def test_affine_lift():
    p = affine_point(Fraction(1, 2), Fraction(-3, 4), d=5)
    assert p == P(Fraction(1, 2), Fraction(-3, 4), 1)
