"""Hot counting kernels behind the coloring search.

The line set of a base configuration and each line's points are
color-independent, so evaluating one coloring reduces to small-integer
work: per-line green counts plus a lookup table saying whether a line of
size m with g green points is selected by the theorem's equichromatic
query (``tables.EquichromaticQuery``).  That makes the per-coloring loop
a pure counting kernel with no exact-arithmetic dependency; exactness is
preserved because every quantity is a small integer (bounds are compared
via scaled integers, never floats).

Every kernel reads ``total_points``, ``indptr`` and ``points`` of a point
set's ``geometry.Incidence``; no array of lines times points, and no
point-to-lines transpose, is built.  An analysis never imports this
module, and only the exhaustive scan and its adapter import numpy.

One algorithm runs per search mode:

  * exhaustive: chunked vectorized evaluation in numpy, a CSR gather and
    per-line sum over each chunk of colorings in lexicographic order.  It
    reads the numpy views of the CSR buffers that ``build_incidence``
    adapts, without a copy.
  * local: a gain-table move replay in plain Python that scores each
    proposal in O(1) from per-point gains and updates them only on
    accepted swaps.  It reads the ``array('i')`` CSR buffers as they are,
    and the seeded moves as two flat arrays of green and red slots, drawn
    before it starts, and builds its Python state once from the line CSR,
    one int object per point and per line.

Both take the selection rows by line size, sel[m][g], one row of m + 1
ints for each line size that occurs, and break ties on the best count
toward the lexicographically smallest green index tuple.
The test suite holds incremental reference algorithms for both modes and
checks these kernels against them.
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import TYPE_CHECKING, Sequence

from .geometry import Incidence

if TYPE_CHECKING:
    from .tables import EquichromaticQuery


def resolve_backend() -> str:
    """The name of the search algorithms a report's backend field records:
    "numpy" on every host.  The moves come from equilines.pcg64, not
    from numpy's random package; the name stays because the benchmark's
    recorded report digests are keyed by it."""
    return "numpy"


def build_incidence(incidence: Incidence) -> Incidence:
    """The incidence with numpy views of its ``array('i')`` line CSR
    buffers: no copy."""
    import numpy as np

    return Incidence(incidence.total_points, np.frombuffer(incidence.indptr, dtype=np.int32),
                     np.frombuffer(incidence.points, dtype=np.int32), incidence.size_counts,
                     incidence.all_real)


def selection_table(size_counts: dict[int, int], query: EquichromaticQuery) -> dict[int, list[int]]:
    """The rows sel[m][g] = 1 iff the query selects an m-point line with g
    green points, i.e. the cell (g, m - g): one row of m + 1 ints for each
    line size m in size_counts."""
    return {m: [int(query.selects(g, m - g)) for g in range(m + 1)] for m in size_counts}


# Colorings per chunk times incidences: bounds every per-chunk array.
_CHUNK_ELEMENTS = 1 << 22


def exhaustive_scan(
    incidence: Incidence,
    sel: dict[int, list[int]],
    n_green: int,
    bound_num: int,
    bound_den: int,
) -> tuple[int, list[int], int, int]:
    """Evaluate every coloring with n_green green points (1 <= n_green <= N).

    Returns (best_actual, best green index tuple, violations, examined);
    the best coloring is the lexicographically smallest among minimizers.
    The colorings are scanned in lexicographic chunks.  Lines are grouped
    by size from the CSR, skipping sizes whose selection row is all 0; for
    the m-point lines, m column gathers of the chunk's green flags sum to
    their green counts, which index sel[m].
    """
    import numpy as np

    n_points = incidence.total_points
    if not 1 <= n_green <= n_points:
        raise ValueError(f"n_green must be in [1, {n_points}]")
    indptr, points = incidence.indptr, incidence.points
    starts, sizes = indptr[:-1], np.diff(indptr)
    # (points of the m-point lines, L_m x m; their selection row)
    groups = [(points[starts[sizes == m][:, None] + np.arange(m)], np.array(row, dtype=np.int8))
              for m, row in sel.items() if any(row)]
    chunk_len = max(1, _CHUNK_ELEMENTS // points.shape[0])
    best_actual = -1
    best_combo = []
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
            best_combo = idx[pos].tolist()
    return best_actual, best_combo, violations, examined


def _gain_tables(sel_row: list[int]):
    """Per-count tables of a line whose selection row is sel_row.

    dm[c] = sel[c-1] - sel[c] is the change in the selected count when
    one of the line's c green points turns red, dp[c] = sel[c+1] - sel[c]
    when one of its red points turns green; both are 0 where the move
    cannot happen.  Returns (dm, dp, fix, down, up): fix[c] = dm[c] +
    dp[c]; down[c] and up[c] are the changes (d dm, d dp) when c falls or
    rises by one, or None when neither gain changes.
    """
    m = len(sel_row) - 1
    dm = [0] + [a - b for a, b in zip(sel_row, sel_row[1:])]
    dp = [-d for d in dm[1:]] + [0]
    fix = [a + b for a, b in zip(dm, dp)]

    def change(a: int, b: int):
        delta = (dm[b] - dm[a], dp[b] - dp[a])
        return delta if any(delta) else None

    down = [None] + [change(c, c - 1) for c in range(1, m + 1)]
    up = [change(c, c + 1) for c in range(m)] + [None]
    return dm, dp, fix, down, up


# Lines per block when the replay reads the line CSR.
_LINE_BLOCK = 1 << 14


def _replay_state(incidence: Incidence):
    """The replay's view of the line CSR, built in one pass over the lines:
    members[l], the tuple of line l's points; lines_of[p], point p's lines
    in line order; and pair_line[p][q], the line through p and q.  Each
    point and each line is one int object, shared by all three; the CSR
    is read in blocks of lines, so no list of the whole CSR is built."""
    n_points = incidence.total_points
    points = list(range(n_points))
    point = points.__getitem__
    members = []
    lines_of = [[] for _ in points]
    pair_line = [[0] * n_points for _ in points]
    indptr, n_lines = incidence.indptr, len(incidence)
    for start in range(0, n_lines, _LINE_BLOCK):
        stop = min(start + _LINE_BLOCK, n_lines)
        first, last = indptr[start], indptr[stop]
        bounds = [b - first for b in indptr[start : stop + 1].tolist()]
        flat = list(map(point, incidence.points[first:last].tolist()))
        for li, a, b in zip(range(start, stop), bounds, bounds[1:]):
            pts = tuple(flat[a:b])
            members.append(pts)
            for p in pts:
                lines_of[p].append(li)
                row = pair_line[p]
                for q in pts:
                    row[q] = li
    return members, lines_of, pair_line


def descent_replay(
    incidence: Incidence,
    sel: dict[int, list[int]],
    initial_green: Sequence[int],
    green_slots: Sequence[int],
    red_slots: Sequence[int],
    bound_num: int,
    bound_den: int,
) -> tuple[int, list[int], int, int]:
    """Replay a seeded swap-move sequence from an initial coloring.

    Move t is (green_slots[t], red_slots[t]), from two equally long
    sequences of ints such as the ``array``s the search draws.  A proposal
    swaps the green and red points at those positions in the sorted green
    and red index lists; it is accepted when it does not raise the
    selected-line count.  Returns (best_actual, best green index list,
    violations, examined), examined being 1 + the number of moves; ties on
    the best count go to the lexicographically smaller green list.

    Each proposal is scored in O(1) from per-point gains.  With the
    per-line gains dm and dp of _gain_tables at the current green counts,
    rem[p] sums dm and add[p] sums dp over the lines through p.  A swap of
    green gp and red rp leaves the count of the one line l through both
    unchanged, so it changes the selected count by rem[gp] + add[rp] -
    dm_l - dp_l.  Only accepted swaps touch the tables: gp turns red and
    rp turns green, and each line whose gains change passes the change to
    its member points.  Python ints and lists throughout.
    """
    n_points = incidence.total_points
    greens = sorted(initial_green)
    reds = sorted(set(range(n_points)).difference(greens))
    members, lines_of, pair_line = _replay_state(incidence)
    # Lines of one size share their selection row and tables.
    sizes = list(map(len, members))
    by_size = {m: _gain_tables(row) for m, row in sel.items()}
    fix, down, up = ([by_size[m][i] for m in sizes] for i in (2, 3, 4))

    counts = [0] * len(sizes)
    for p in greens:
        for li in lines_of[p]:
            counts[li] += 1
    actual = sum(sel[m][c] for m, c in zip(sizes, counts))
    rem = [0] * n_points
    add = [0] * n_points
    for pts, m, c in zip(members, sizes, counts):
        dm, dp = by_size[m][:2]
        for q in pts:
            rem[q] += dm[c]
            add[q] += dp[c]
    best = list(greens)
    best_actual = actual
    violations = int(actual * bound_den < bound_num)
    for i, j in zip(green_slots, red_slots):
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
    return best_actual, best, violations, 1 + len(green_slots)
