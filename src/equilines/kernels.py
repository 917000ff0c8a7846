"""Hot counting kernels behind the coloring search.

The line set of a base configuration and each line's points are
color-independent, so evaluating one coloring reduces to small-integer
work: per-line green counts plus a lookup table saying whether a line of
size m with g green points is selected by the equichromatic query.  That
makes the per-coloring loop a pure array kernel with no exact-arithmetic
dependency; exactness is preserved because every quantity is a small
integer (bounds are compared via scaled integers, never floats).

``build_incidence`` lays a point set's lines out once as CSR arrays in
both directions (``IncidenceArrays``, held by ``geometry.Incidence``).
Every kernel reads those arrays; no array of lines times points is built.

Two backends run two different algorithms for the same results:

  * numba: incremental depth-first enumeration, and a move replay that
    updates the per-line green counts of every proposal and reverts the
    rejected ones; jitted when numba imports, plain Python otherwise,
  * numpy: chunked vectorized evaluation (a CSR gather and per-line sum),
    and a gain-table move replay in plain Python that scores each
    proposal in O(1) from per-point gains and updates them only on
    accepted swaps.

numpy is the default on every host, so no report depends on whether
numba imports; numba only jits the numba backend's reference algorithms.
A report's backend field names the kernel algorithm, not whether it was
compiled.  Every kernel takes the selection table by line size,
sel[m, g]; the reference kernels read its per-line view.  Both backends
visit colorings in the same order (the exhaustive scan) or follow the
same proposals (the move replay) and break ties on the best count toward
the lexicographically smallest green index tuple, so results are
backend-independent.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .geometry import DeterminedLines
    from .profiles import EquichromaticQuery

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


def resolve_backend(backend: str | None = None) -> str:
    """Return the named backend, or "numpy" when none is named, on every
    host.  "numba" is available on every host; without numba its kernels
    run interpreted."""
    if backend is None:
        return "numpy"
    if backend not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {backend!r}")
    return backend


@dataclass(frozen=True)
class IncidenceArrays:
    """CSR incidence of a point set's lines, in both directions.

    Lines are numbered in enumeration order and each line's points, like
    each point's lines, are listed in increasing order.  The arrays grow
    with the number of incidences, never with lines times points.
    """

    line_sizes: np.ndarray  # int64[L]
    line_indptr: np.ndarray  # int64[L+1], CSR line -> its points
    line_points: np.ndarray  # int64[total incidences]
    point_indptr: np.ndarray  # int64[N+1], CSR point -> incident lines
    point_lines: np.ndarray  # int64[total incidences]

    @property
    def n_points(self) -> int:
        return self.point_indptr.shape[0] - 1


def build_incidence(lines: DeterminedLines, n_points: int) -> IncidenceArrays:
    """The CSR arrays of the lines over n_points points: the enumeration's
    own line-to-points arrays, and their transpose."""
    sizes = np.diff(lines.indptr)
    point_indptr = np.zeros(n_points + 1, dtype=np.int64)
    np.cumsum(np.bincount(lines.points, minlength=n_points), out=point_indptr[1:])
    # A stable sort by point keeps each point's lines in line order.
    order = np.argsort(lines.points, kind="stable")
    point_lines = np.repeat(np.arange(len(lines), dtype=np.int64), sizes)[order]
    return IncidenceArrays(sizes, lines.indptr, lines.points, point_indptr, point_lines)


def selection_table(size_counts: dict[int, int], query: EquichromaticQuery) -> np.ndarray:
    """sel[m, g] = 1 iff the query selects an m-point line with g green
    points, i.e. the cell (g, m - g), for each size m in size_counts; rows
    of other sizes stay 0.  int8, since the kernels form their signed
    deltas and sums in int64 or Python ints."""
    width = max(size_counts) + 1
    sel = np.zeros((width, width), dtype=np.int8)
    for m in size_counts:
        sel[m, : m + 1] = [query.selects(g, m - g) for g in range(m + 1)]
    return sel


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


_exhaustive_scan_nb = njit(cache=True)(_exhaustive_scan)
_descent_replay_nb = njit(cache=True)(_descent_replay)

# Colorings per chunk times incidences: bounds every per-chunk array.
_CHUNK_ELEMENTS = 1 << 22


def _exhaustive_numpy(
    incidence: IncidenceArrays,
    sel: np.ndarray,
    n_green: int,
    bound_num: int,
    bound_den: int,
):
    """Vectorized exhaustive scan over chunks of colorings.  Lines are
    grouped by size from the CSR, skipping sizes whose selection row is
    all 0; for the m-point lines, m column gathers of the chunk's green
    flags sum to their green counts, which index sel[m].  Deliberately a
    different algorithm from the depth-first scan so the two backends
    cross-check each other."""
    n_points = incidence.n_points
    sizes = incidence.line_sizes
    groups = []  # (points of the m-point lines, L_m x m; their selection row)
    for m in np.flatnonzero(sel.any(axis=1)).tolist():
        lines = np.flatnonzero(sizes == m)
        members = incidence.line_points[incidence.line_indptr[lines][:, None] + np.arange(m)]
        groups.append((members, sel[m]))
    chunk_len = max(1, _CHUNK_ELEMENTS // incidence.line_points.shape[0])
    best_actual = -1
    best_combo = np.empty(0, dtype=np.int64)
    violations = 0
    examined = 0
    combos = itertools.combinations(range(n_points), n_green)
    while True:
        chunk = list(itertools.islice(combos, chunk_len))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.int64)
        batch = idx.shape[0]
        green = np.zeros((batch, n_points), dtype=np.int32)
        green[np.arange(batch)[:, None], idx] = 1
        actual = np.zeros(batch, dtype=np.int64)
        for members, row in groups:
            counts = green[:, members[:, 0]]
            for j in range(1, members.shape[1]):
                counts += green[:, members[:, j]]
            actual += row[counts].sum(axis=1)
        violations += int((actual * bound_den < bound_num).sum())
        examined += batch
        pos = int(actual.argmin())
        if best_actual < 0 or actual[pos] < best_actual:
            best_actual = int(actual[pos])
            best_combo = idx[pos].copy()
    return best_actual, best_combo, violations, examined


def _gain_tables(sel_row: list[int], m: int):
    """Per-count tables of one line of m points with selection row sel_row.

    dm[c] = sel[c-1] - sel[c] is the change in the selected count when
    one of the line's c green points turns red, dp[c] = sel[c+1] - sel[c]
    when one of its red points turns green; both are 0 where the move
    cannot happen.  Returns (dm, dp, fix, down, up): fix[c] = dm[c] +
    dp[c]; down[c] and up[c] are the changes (d dm, d dp) when c falls or
    rises by one, or None when neither gain changes.
    """
    dm = [0] + [sel_row[c - 1] - sel_row[c] for c in range(1, m + 1)]
    dp = [sel_row[c + 1] - sel_row[c] for c in range(m)] + [0]
    fix = [a + b for a, b in zip(dm, dp)]

    def change(a: int, b: int):
        delta = (dm[b] - dm[a], dp[b] - dp[a])
        return delta if any(delta) else None

    down = [None] + [change(c, c - 1) for c in range(1, m + 1)]
    up = [change(c, c + 1) for c in range(m)] + [None]
    return dm, dp, fix, down, up


def _descent_gain_table(
    incidence: IncidenceArrays,
    sel: np.ndarray,
    initial_green: np.ndarray,
    initial_red: np.ndarray,
    moves_green: np.ndarray,
    moves_red: np.ndarray,
    bound_num: int,
    bound_den: int,
):
    """Move replay that scores each proposal in O(1) from per-point gains.

    With the per-line gains dm and dp of _gain_tables at the current green
    counts, rem[p] sums dm and add[p] sums dp over the lines through p.  A
    swap of green gp and red rp leaves the count of the one line l through
    both unchanged, so it changes the selected count by rem[gp] + add[rp]
    - dm_l - dp_l.  Only accepted swaps touch the tables: gp turns red and
    rp turns green, and each line whose gains change passes the change to
    its member points.  Proposals, acceptance and the tie-break are those
    of _descent_replay, so the results agree with it.  Python ints and
    lists throughout, since scalar numpy access is slower.
    """
    n_points = incidence.n_points
    sizes = incidence.line_sizes.tolist()
    indptr = incidence.point_indptr.tolist()
    point_lines = incidence.point_lines.tolist()
    lines_of = [point_lines[indptr[p] : indptr[p + 1]] for p in range(n_points)]
    line_indptr = incidence.line_indptr.tolist()
    line_points = incidence.line_points.tolist()
    members = [line_points[a:b] for a, b in zip(line_indptr, line_indptr[1:])]
    pair_line = [[0] * n_points for _ in range(n_points)]
    for li, pts in enumerate(members):
        for a in pts:
            row = pair_line[a]
            for b in pts:
                row[b] = li
    # Lines of one size share their selection row and tables.
    rows = sel.tolist()
    by_size = {m: _gain_tables(rows[m], m) for m in set(sizes)}
    tables = [by_size[m] for m in sizes]
    fix, down, up = ([t[i] for t in tables] for i in (2, 3, 4))

    greens = initial_green.tolist()
    reds = initial_red.tolist()
    counts = [0] * len(sizes)
    for p in greens:
        for li in lines_of[p]:
            counts[li] += 1
    actual = sum(rows[m][c] for m, c in zip(sizes, counts))
    rem = [0] * n_points
    add = [0] * n_points
    for li, c in enumerate(counts):
        dm, dp = tables[li][:2]
        for q in members[li]:
            rem[q] += dm[c]
            add[q] += dp[c]
    best = list(greens)
    best_actual = actual
    violations = int(actual * bound_den < bound_num)
    for i, j in zip(memoryview(moves_green), memoryview(moves_red)):
        gp = greens[i]
        rp = reds[j]
        shared = pair_line[gp][rp]
        candidate = actual + rem[gp] + add[rp] - fix[shared][counts[shared]]
        if candidate * bound_den < bound_num:
            violations += 1
        if candidate > actual:
            continue
        actual = candidate
        for p, step, changes in ((gp, -1, down), (rp, 1, up)):
            for li in lines_of[p]:
                c = counts[li]
                counts[li] = c + step
                delta = changes[li][c]
                if delta is not None:
                    ddm, ddp = delta
                    for q in members[li]:
                        rem[q] += ddm
                        add[q] += ddp
        del greens[i]
        insort(greens, rp)
        del reds[j]
        insort(reds, gp)
        if actual < best_actual or (actual == best_actual and greens < best):
            best_actual = actual
            best = list(greens)
    return best_actual, best, violations, 1 + len(moves_green)


def exhaustive_scan(
    incidence: IncidenceArrays,
    sel: np.ndarray,
    n_green: int,
    bound_num: int,
    bound_den: int,
    backend: str | None = None,
) -> tuple[int, np.ndarray, int, int]:
    """Evaluate every coloring with n_green green points (1 <= n_green <= N).

    Returns (best_actual, best green index tuple, violations, examined);
    the best coloring is the lexicographically smallest among minimizers.
    """
    if not 1 <= n_green <= incidence.n_points:
        raise ValueError(f"n_green must be in [1, {incidence.n_points}]")
    which = resolve_backend(backend)
    if which == "numpy":
        best_actual, best, violations, examined = _exhaustive_numpy(
            incidence, sel, n_green, bound_num, bound_den
        )
    else:
        best_actual, best, violations, examined = _exhaustive_scan_nb(
            incidence.point_indptr, incidence.point_lines, sel[incidence.line_sizes],
            np.int64(n_green), np.int64(bound_num), np.int64(bound_den),
        )
    return int(best_actual), np.asarray(best, dtype=np.int64), int(violations), int(examined)


def descent_replay(
    incidence: IncidenceArrays,
    sel: np.ndarray,
    initial_green: np.ndarray,
    moves_green: np.ndarray,
    moves_red: np.ndarray,
    bound_num: int,
    bound_den: int,
    backend: str | None = None,
) -> tuple[int, np.ndarray, int, int]:
    """Replay a seeded swap-move sequence from an initial coloring.

    A proposal swaps the green and red points at the move arrays' positions
    in the sorted green and red index lists; it is accepted when it does
    not raise the selected-line count.  Returns (best_actual, best green
    index tuple, violations, examined); ties on the best count go to the
    lexicographically smaller green tuple.  The backends score proposals
    by different algorithms: "numba" updates the per-line green counts of
    every proposal and reverts the rejected ones, "numpy" reads per-point
    gain tables and touches them only on accepted swaps.  Both follow the
    same proposals and acceptance rule, so the outcome does not depend on
    the backend.
    """
    which = resolve_backend(backend)
    initial_green = np.sort(np.asarray(initial_green, dtype=np.int64))
    mask = np.ones(incidence.n_points, dtype=bool)
    mask[initial_green] = False
    initial_red = np.flatnonzero(mask).astype(np.int64)
    moves_green = np.ascontiguousarray(moves_green, dtype=np.int64)
    moves_red = np.ascontiguousarray(moves_red, dtype=np.int64)
    if which == "numpy":
        best_actual, best, violations, examined = _descent_gain_table(
            incidence, sel, initial_green, initial_red, moves_green, moves_red,
            bound_num, bound_den,
        )
    else:
        best_actual, best, violations, examined = _descent_replay_nb(
            incidence.point_indptr, incidence.point_lines, sel[incidence.line_sizes],
            initial_green, initial_red, moves_green, moves_red,
            np.int64(bound_num), np.int64(bound_den),
        )
    return int(best_actual), np.asarray(best, dtype=np.int64), int(violations), int(examined)
