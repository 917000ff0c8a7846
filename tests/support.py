"""Shared test helpers: seeded random configurations, brute-force oracles,
the Fraction canonicalization the fraction-free one is checked against,
and the incremental reference algorithms the search kernels are checked
against."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from equilines import geometry, kernels, search
from equilines.geometry import enumerate_lines
from equilines.points import GREEN, RED, ColoredConfiguration, ProjPoint, configuration
from equilines.profiles import compute_profile
from equilines.quadfield import QuadElement, quad
from equilines.tables import EquichromaticQuery, LineProfile, count_equichromatic

ALL_DS = (-3, -1, 2, 5)
REAL_DS = (2, 5)


# The two line enumerations (and profile tallies) of geometry.enumerate_lines.
PATHS = ("pencil", "sort")


def use_path(monkeypatch, path: str) -> None:
    """Send every point set down the pencil or the sort path, whatever its
    size, for the rest of the monkeypatch."""
    pairs = {"pencil": 2**62, "sort": 0}[path]
    monkeypatch.setattr(geometry, "PENCIL_MAX_PAIRS", pairs)


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
            p = ProjPoint(quad(xa, xb, d=d), quad(1, d=d), quad(0, d=d))
        else:
            xa, xb = _coord(rng, d, allow_quad_part)
            ya, yb = _coord(rng, d, allow_quad_part)
            p = ProjPoint(quad(xa, xb, d=d), quad(ya, yb, d=d), quad(1, d=d))
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
        if max(map(len, line_tuples(enumerate_lines(pts)))) < total:
            break
    colors = tuple(rng.choice((GREEN, RED)) for _ in pts)
    return configuration(pts, colors, d)


def line_tuples(incidence) -> list[tuple[int, ...]]:
    """Each line's point indices, read from the incidence's CSR buffers."""
    indptr, points = incidence.indptr.tolist(), incidence.points.tolist()
    return [tuple(points[start:stop]) for start, stop in zip(indptr, indptr[1:])]


def oracle_canonical_triple(
    c0: QuadElement, c1: QuadElement, c2: QuadElement
) -> tuple[QuadElement, QuadElement, QuadElement]:
    """The triple divided by its first nonzero coordinate in QuadElement
    arithmetic: the oracle for ProjPoint.coords."""
    for pivot in (c0, c1, c2):
        if not pivot.is_zero:
            inv = pivot.invert()
            return (c0 * inv, c1 * inv, c2 * inv)
    raise ValueError("homogeneous triple must not be identically zero")


def oracle_integer_coords(triple) -> tuple[int, ...]:
    """The components (xa, xb, ya, yb, za, zb) of a canonical triple, each
    coordinate xa + xb*sqrt(d) etc., cleared to one denominator: the oracle
    for ProjPoint.row."""
    fracs = [f for c in triple for f in (c.a, c.b)]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs)


def oracle_line_through(p: ProjPoint, q: ProjPoint) -> tuple[QuadElement, ...]:
    """The canonical dual triple (u : v : w), ux + vy + wz = 0, of the line
    through two distinct points: the cross product of their coords."""
    (px, py, pz), (qx, qy, qz) = p.coords, q.coords
    return oracle_canonical_triple(py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx)


def reference_lines(points: tuple[ProjPoint, ...]) -> list[tuple[int, ...]]:
    """Sorted point-index tuples of the determined lines, grouping the pairs
    by their exact oracle_line_through: the oracle for enumerate_lines."""
    groups: dict = {}
    for (i, p), (j, q) in itertools.combinations(enumerate(points), 2):
        groups.setdefault(oracle_line_through(p, q), set()).update((i, j))
    return sorted(tuple(sorted(g)) for g in groups.values())


def reference_profile(config: ColoredConfiguration) -> LineProfile:
    """Per-line tally of the (green, red) cells over freshly enumerated
    exact lines: the reference for the array-based compute_profile."""
    cells: dict[tuple[int, int], int] = {}
    for line in line_tuples(enumerate_lines(config.points)):
        greens = sum(1 for idx in line if config.colors[idx] == GREEN)
        cell = (greens, len(line) - greens)
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


def _exhaustive_scan(
    point_indptr,
    point_lines,
    sel,
    n_green,
    bound_num,
    bound_den,
):
    """Depth-first enumeration of all n_green-subsets in lexicographic
    order, maintaining per-line green counts and the selected-line total
    incrementally.  Returns (best_actual, best_combo, violations, examined).
    """
    n_lines = sel.shape[0]
    n_points = point_indptr.shape[0] - 1
    counts = np.zeros(n_lines, dtype=np.int64)
    actual = np.int64(0)
    for li in range(n_lines):
        actual += sel[li, 0]
    combo = np.empty(n_green, dtype=np.int64)
    best = np.empty(n_green, dtype=np.int64)
    best_actual = np.int64(-1)
    violations = np.int64(0)
    examined = np.int64(0)
    depth = 0
    v = 0
    while True:
        if n_points - v < n_green - depth:
            if depth == 0:
                break
            depth -= 1
            v = combo[depth]
            for ci in range(point_indptr[v], point_indptr[v + 1]):
                li = point_lines[ci]
                c = counts[li]
                actual += sel[li, c - 1] - sel[li, c]
                counts[li] = c - 1
            v += 1
            continue
        combo[depth] = v
        for ci in range(point_indptr[v], point_indptr[v + 1]):
            li = point_lines[ci]
            c = counts[li]
            actual += sel[li, c + 1] - sel[li, c]
            counts[li] = c + 1
        if depth == n_green - 1:
            examined += 1
            if actual * bound_den < bound_num:
                violations += 1
            if best_actual < 0 or actual < best_actual:
                best_actual = actual
                best[:] = combo
            for ci in range(point_indptr[v], point_indptr[v + 1]):
                li = point_lines[ci]
                c = counts[li]
                actual += sel[li, c - 1] - sel[li, c]
                counts[li] = c - 1
            v += 1
        else:
            depth += 1
            v = combo[depth - 1] + 1
    return best_actual, best, violations, examined


def _descent_replay(
    point_indptr,
    point_lines,
    sel,
    initial_green,
    initial_red,
    moves_green,
    moves_red,
    bound_num,
    bound_den,
):
    """Replay a pregenerated swap-move sequence, accepting moves that do
    not increase the selected-line count.  Proposals are evaluated via
    count deltas; rejected moves are reverted exactly.  Ties on the best
    count go to the lexicographically smaller green index tuple."""
    n_lines = sel.shape[0]
    n_green = initial_green.shape[0]
    greens = initial_green.copy()
    reds = initial_red.copy()
    counts = np.zeros(n_lines, dtype=np.int64)
    actual = np.int64(0)
    for li in range(n_lines):
        actual += sel[li, 0]
    for gi in range(n_green):
        p = greens[gi]
        for ci in range(point_indptr[p], point_indptr[p + 1]):
            li = point_lines[ci]
            c = counts[li]
            actual += sel[li, c + 1] - sel[li, c]
            counts[li] = c + 1
    best = greens.copy()
    best_actual = actual
    violations = np.int64(0)
    examined = np.int64(1)
    if actual * bound_den < bound_num:
        violations += 1
    for t in range(moves_green.shape[0]):
        gp = greens[moves_green[t]]
        rp = reds[moves_red[t]]
        candidate = actual
        for ci in range(point_indptr[gp], point_indptr[gp + 1]):
            li = point_lines[ci]
            c = counts[li]
            candidate += sel[li, c - 1] - sel[li, c]
            counts[li] = c - 1
        for ci in range(point_indptr[rp], point_indptr[rp + 1]):
            li = point_lines[ci]
            c = counts[li]
            candidate += sel[li, c + 1] - sel[li, c]
            counts[li] = c + 1
        examined += 1
        if candidate * bound_den < bound_num:
            violations += 1
        if candidate <= actual:
            actual = candidate
            # Swap gp -> rp in greens and rp -> gp in reds, keeping both
            # arrays sorted (shift-based replace, arrays are short).
            pos = 0
            while greens[pos] != gp:
                pos += 1
            while pos + 1 < n_green and greens[pos + 1] < rp:
                greens[pos] = greens[pos + 1]
                pos += 1
            while pos > 0 and greens[pos - 1] > rp:
                greens[pos] = greens[pos - 1]
                pos -= 1
            greens[pos] = rp
            n_red = reds.shape[0]
            pos = 0
            while reds[pos] != rp:
                pos += 1
            while pos + 1 < n_red and reds[pos + 1] < gp:
                reds[pos] = reds[pos + 1]
                pos += 1
            while pos > 0 and reds[pos - 1] > gp:
                reds[pos] = reds[pos - 1]
                pos -= 1
            reds[pos] = gp
            improved = actual < best_actual
            if actual == best_actual:
                for i in range(n_green):
                    if greens[i] != best[i]:
                        improved = greens[i] < best[i]
                        break
            if improved:
                best_actual = actual
                best[:] = greens
        else:
            for ci in range(point_indptr[gp], point_indptr[gp + 1]):
                counts[point_lines[ci]] += 1
            for ci in range(point_indptr[rp], point_indptr[rp + 1]):
                counts[point_lines[ci]] -= 1
    return best_actual, best, violations, examined


def point_transpose(incidence):
    """(point_indptr, point_lines): the CSR of each point's lines, in line
    order, transposed from the incidence's line-to-points arrays."""
    points = np.asarray(incidence.points)
    indptr = np.zeros(incidence.total_points + 1, dtype=np.int64)
    np.cumsum(np.bincount(points, minlength=incidence.total_points), out=indptr[1:])
    # A stable sort by point keeps each point's lines in line order.
    order = np.argsort(points, kind="stable")
    sizes = np.diff(np.asarray(incidence.indptr))
    return indptr, np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes)[order]


def per_line_selection(incidence, sel) -> np.ndarray:
    """The selection row of each line, from the kernels' rows sel[m] by
    line size m, padded with zeros to the width of the longest line."""
    width = max(sel) + 1
    table = np.zeros((width, width), dtype=np.int64)
    for m, row in sel.items():
        table[m, : m + 1] = row
    return table[np.diff(np.asarray(incidence.indptr))]


def oracle_exhaustive_scan(incidence, sel, n_green, bound_num, bound_den):
    """kernels.exhaustive_scan computed by the depth-first reference scan."""
    best_actual, best, violations, examined = _exhaustive_scan(
        *point_transpose(incidence), per_line_selection(incidence, sel),
        np.int64(n_green), np.int64(bound_num), np.int64(bound_den),
    )
    return int(best_actual), best.tolist(), int(violations), int(examined)


def oracle_descent_replay(incidence, sel, initial_green, green_slots, red_slots, bound_num,
                          bound_den):
    """kernels.descent_replay computed by the reference replay, which
    updates the per-line green counts of every proposal and reverts the
    rejected ones."""
    initial_green = np.sort(np.asarray(initial_green, dtype=np.int64))
    mask = np.ones(incidence.total_points, dtype=bool)
    mask[initial_green] = False
    initial_red = np.flatnonzero(mask).astype(np.int64)
    best_actual, best, violations, examined = _descent_replay(
        *point_transpose(incidence), per_line_selection(incidence, sel),
        initial_green, initial_red, np.asarray(green_slots, dtype=np.int64),
        np.asarray(red_slots, dtype=np.int64), np.int64(bound_num), np.int64(bound_den),
    )
    return int(best_actual), best.tolist(), int(violations), int(examined)


KERNELS = ("oracle", "kernel")
# Parametrization over KERNELS, one test id per kernel set.
KERNEL_PARAMS = [pytest.param(which, id=which) for which in KERNELS]


def use_kernels(monkeypatch, which: str) -> None:
    """Point the search at the production kernels ("kernel") or at the
    reference algorithms ("oracle") for the rest of the monkeypatch."""
    if which == "oracle":
        scan, replay = oracle_exhaustive_scan, oracle_descent_replay
    elif which == "kernel":
        scan, replay = kernels.exhaustive_scan, kernels.descent_replay
    else:
        raise ValueError(f"unknown kernels {which!r}")
    monkeypatch.setattr(search, "exhaustive_scan", scan)
    monkeypatch.setattr(search, "descent_replay", replay)


def run_with_kernels(which: str, spec):
    """search.run_search(spec) on the kernels named by which."""
    with pytest.MonkeyPatch.context() as mp:
        use_kernels(mp, which)
        return search.run_search(spec)
