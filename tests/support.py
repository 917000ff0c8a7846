"""Shared test helpers: seeded random configurations and brute-force oracles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from equilines.geometry import (
    GREEN,
    RED,
    ColoredConfiguration,
    ProjPoint,
    configuration,
    enumerate_lines,
    line_through,
)
from equilines.profiles import (
    EquichromaticQuery,
    LineProfile,
    compute_profile,
    count_equichromatic,
)
from equilines.quadfield import one, quad, zero

ALL_DS = (-3, -1, 2, 5)
REAL_DS = (2, 5)


def _coord(rng: random.Random, d: int, allow_quad_part: bool) -> tuple[Fraction, Fraction]:
    a = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    b = Fraction(0)
    if allow_quad_part and rng.random() < 0.3:
        b = Fraction(rng.randint(-2, 2))
    return a, b


def random_points(
    rng: random.Random,
    total: int,
    d: int,
    allow_quad_part: bool = True,
    allow_infinite: bool = True,
) -> tuple[ProjPoint, ...]:
    pts: list[ProjPoint] = []
    seen: set[ProjPoint] = set()
    while len(pts) < total:
        if allow_infinite and rng.random() < 0.1:
            xa, xb = _coord(rng, d, allow_quad_part)
            p = ProjPoint(quad(xa, xb, d=d), one(d), zero(d))
        else:
            xa, xb = _coord(rng, d, allow_quad_part)
            ya, yb = _coord(rng, d, allow_quad_part)
            p = ProjPoint(quad(xa, xb, d=d), quad(ya, yb, d=d), one(d))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return tuple(pts)


def random_config(seed: int, max_total: int = 20) -> ColoredConfiguration:
    """Random colored configuration over a random d in {-3, -1, 2, 5}."""
    rng = random.Random(seed)
    d = rng.choice(ALL_DS)
    total = rng.randint(2, max_total)
    pts = random_points(rng, total, d)
    colors = tuple(rng.choice((GREEN, RED)) for _ in pts)
    return configuration(pts, colors, d)


def random_real_config(
    seed: int, max_total: int = 12, require_noncollinear: bool = True
) -> ColoredConfiguration:
    """Random configuration with all-real coordinates (d > 0), optionally
    guaranteed not to be a single collinear bunch."""
    rng = random.Random(seed)
    d = rng.choice(REAL_DS)
    total = rng.randint(3, max_total)
    while True:
        pts = random_points(rng, total, d)
        if not require_noncollinear:
            break
        if max(rec.size for rec in enumerate_lines(pts)) < total:
            break
    colors = tuple(rng.choice((GREEN, RED)) for _ in pts)
    return configuration(pts, colors, d)


def reference_lines(points: tuple[ProjPoint, ...]) -> list[tuple[int, ...]]:
    """Sorted point-index tuples of the determined lines, grouping the pairs
    by their exact line_through: the oracle for enumerate_lines."""
    groups: dict = {}
    for (i, p), (j, q) in itertools.combinations(enumerate(points), 2):
        groups.setdefault(line_through(p, q), set()).update((i, j))
    return sorted(tuple(sorted(g)) for g in groups.values())


def reference_profile(config: ColoredConfiguration) -> LineProfile:
    """Per-line tally of the (green, red) cells over freshly enumerated
    exact lines: the reference for the array-based compute_profile."""
    cells: dict[tuple[int, int], int] = {}
    for rec in enumerate_lines(config.points):
        greens = sum(1 for idx in rec.point_indices if config.colors[idx] == GREEN)
        cell = (greens, rec.size - greens)
        cells[cell] = cells.get(cell, 0) + 1
    return LineProfile.from_dict(cells, config.n, config.k)


def brute_force_scan(
    points: tuple[ProjPoint, ...],
    n_green: int,
    query: EquichromaticQuery,
    bound: Fraction,
):
    """Exact oracle for the search kernels: evaluate every coloring through
    the profile path.  Returns (best_actual, best green tuple, violations,
    examined), ties broken toward the lexicographically smallest combo."""
    d = points[0].d
    best_actual = None
    best_combo = None
    violations = 0
    examined = 0
    for combo in itertools.combinations(range(len(points)), n_green):
        chosen = set(combo)
        colors = tuple(GREEN if i in chosen else RED for i in range(len(points)))
        config = configuration(points, colors, d)
        profile = compute_profile(config)
        actual = count_equichromatic(profile, query)
        examined += 1
        if actual < bound:
            violations += 1
        if best_actual is None or actual < best_actual:
            best_actual = actual
            best_combo = combo
    return best_actual, best_combo, violations, examined
