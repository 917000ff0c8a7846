"""The pencil enumeration of lines, in Python ints: no numpy.

``geometry.enumerate_lines`` runs it on the pencil path, at most
``geometry.PENCIL_MAX_PAIRS`` point pairs, where a whole process is as
fast or faster without numpy as with it, on the points as
``geometry.residues`` reduces them mod p.  For each point i in turn, the
pairs (i, j > i) not on a line found before are keyed by the slope mod p
of the line through them, one pow() per pencil (Montgomery's batch
inversion); the pairs of each key are one line through i, checked
exactly on the integer rows when it has 3 or more points.
"""

from __future__ import annotations

import itertools
from array import array

from .geometry import row_cross, row_dot, size_counts_of


def _pencil_keys(point, xs, ys, zs, p: int) -> list[int]:
    """The key mod p of the line from point, scaled as ``geometry.residues``
    scales it, to each point (xs[k] : ys[k] : zs[k]), all distinct from it:
    keys are equal iff the lines are.  From (x0, y0, 1) it is the slope
    dy / dx, or p when dx = 0; all the slopes take one pow() (Montgomery's
    batch inversion).  From a point at infinity it is the intercept of the
    line, or p for the line at infinity.  zs is None when every point has
    z = 1."""
    x0, y0, z0 = point
    if not z0:  # lines parallel to (x0, y0): x0 y - y0 x is constant on each
        return [(x0 * y - y0 * x) % p if z else p for x, y, z in zip(xs, ys, zs)]
    if zs is None:
        dx, dy = list(map(x0.__rsub__, xs)), list(map(y0.__rsub__, ys))
    else:
        dx = [x - x0 * z for x, z in zip(xs, zs)]
        dy = [y - y0 * z for y, z in zip(ys, zs)]
    # |dx|, |dy| < p, and dx = 0 exactly when the line is vertical: its key
    # is p, and 1 stands in for dx in the inversion.
    vertical = [v == 0 for v in dx] if 0 in dx else None
    if vertical:
        dx = [v or 1 for v in dx]
    before = list(itertools.accumulate(dx, lambda a, b: a * b % p, initial=1))
    inv = pow(before.pop(), -1, p)  # 1 / (dx_0 ... dx_k) as k falls
    keys = []
    for b, prefix, v in zip(reversed(dy), reversed(before), reversed(dx)):
        keys.append(b * prefix * inv % p)
        inv = inv * v % p
    keys.reverse()
    if vertical:
        keys = [p if up else k for k, up in zip(keys, vertical)]
    return keys


def pencil_lines(rows, d: int, residues, p: int) -> tuple[array, array, dict[int, int]] | None:
    """The pencil enumeration of ``geometry.enumerate_lines`` at the prime p,
    from the points' ``geometry.residues``: the lines as (indptr, points,
    size_counts) of ``geometry.Incidence``.  For each point i, the pairs
    (i, j > i) not on a line found before are grouped by the key of the
    line through them, so each line is found once, from its first point.
    None when a group is not one exact line (the prime merged lines)."""
    n = len(residues)
    xs, ys, zs = (list(c) for c in zip(*residues))
    if all(zs):
        zs = None
    # uncovered[i][j] = 0 once the pair (i, j) lies on a line found before i.
    uncovered: list[bytearray | None] = [None] * n
    ends, flat, long_sizes = [0], [], []
    for i in range(n - 1):
        mask = uncovered[i]
        if mask is None:
            js = range(i + 1, n)
            pxs, pys, pzs = xs[i + 1 :], ys[i + 1 :], zs and zs[i + 1 :]
        else:
            js = list(itertools.compress(range(n), mask))
            if not js:
                continue
            pxs, pys = list(itertools.compress(xs, mask)), list(itertools.compress(ys, mask))
            pzs = zs and list(itertools.compress(zs, mask))
        lines = {}  # each line's points by key, in the order of their first j
        for key, j in zip(_pencil_keys(residues[i], pxs, pys, pzs, p), js):
            lines.setdefault(key, [i]).append(j)
        if len(lines) < len(js):  # some line has 3 or more points
            for line in [group for group in lines.values() if len(group) > 2]:
                if not _on_one_line(rows, line, d):
                    return None
                for k in range(1, len(line) - 1):
                    j = line[k]
                    if uncovered[j] is None:
                        uncovered[j] = bytearray(j + 1) + bytearray(b"\1") * (n - j - 1)
                    for later in line[k + 1 :]:
                        uncovered[j][later] = 0
                long_sizes.append(len(line))
        flat.extend(itertools.chain.from_iterable(lines.values()))
        ends.extend(itertools.accumulate(map(len, lines.values()), initial=ends.pop()))
    return array("i", ends), array("i", flat), size_counts_of(len(ends) - 1, long_sizes)


def _on_one_line(rows, line: list[int], d: int) -> bool:
    """Whether the points of line lie on the exact line through its first two."""
    u = row_cross(rows[line[0]], rows[line[1]], d)
    return not any(any(row_dot(u, rows[j], d)) for j in line[2:])
