"""The pencil enumeration of lines, in Python ints: no numpy.

``geometry.enumerate_lines`` runs it on the pencil path, at most
``geometry.PENCIL_MAX_PAIRS`` point pairs, for the analysis and the
search alike, on the points as ``geometry.residues`` charts them mod p.
For each point i in turn, the pairs (i, j > i) not on a line found
before are keyed by the slope mod p of the line through them, one pow()
per pencil (Montgomery's batch inversion); the pairs of each key are one
line through i, checked exactly on the integer rows when it has 3 or
more points.
"""

from __future__ import annotations

import itertools
from array import array

from .geometry import row_cross, row_dot, size_counts_of


def _pencil_keys(x0: int, y0: int, xs, ys, p: int) -> list[int]:
    """The slope mod p of the line from (x0, y0) to each chart point
    (xs[k], ys[k]), none with x = x0: keys are equal iff the lines are.
    All the slopes take one pow() (Montgomery's batch inversion)."""
    before, product = [], 1  # before[k] = dx_0 ... dx_(k-1), dx_k = xs[k] - x0
    for x in xs:
        before.append(product)
        product = product * (x - x0) % p
    inv = pow(product, -1, p)  # 1 / (dx_0 ... dx_k) as k falls
    keys = []
    for x, y, prefix in zip(reversed(xs), reversed(ys), reversed(before)):
        keys.append((y - y0) * prefix * inv % p)
        inv = inv * (x - x0) % p
    keys.reverse()
    return keys


def pencil_lines(rows, d: int, residues, p: int) -> tuple[array, array, dict[int, int]] | None:
    """The pencil enumeration of ``geometry.enumerate_lines`` at the prime p,
    from the points' ``geometry.residues``: the lines as (indptr, points,
    size_counts) of ``geometry.Incidence``.  For each point i, the pairs
    (i, j > i) not on a line found before are grouped by the key of the
    line through them, so each line is found once, from its first point.
    None when a group is not one exact line (the prime merged lines)."""
    xs, ys = residues
    n = len(xs)
    # uncovered[i][j] = 1 for j > i until the pair (i, j) lies on a line
    # found before i.
    uncovered = [bytearray(i + 1) + b"\1" * (n - i - 1) for i in range(n)]
    ends, flat, long_sizes = [0], [], []
    for i, mask in enumerate(uncovered[:-1]):
        js = list(itertools.compress(range(n), mask))
        pxs, pys = (list(itertools.compress(c, mask)) for c in (xs, ys))
        lines = {}  # each line's points by key, in the order of their first j
        for key, j in zip(_pencil_keys(xs[i], ys[i], pxs, pys, p), js):
            lines.setdefault(key, [i]).append(j)
        if len(lines) < len(js):  # some line has 3 or more points
            for line in [group for group in lines.values() if len(group) > 2]:
                if not _on_one_line(rows, line, d):
                    return None
                for k in range(1, len(line) - 1):
                    row = uncovered[line[k]]
                    for later in line[k + 1 :]:
                        row[later] = 0
                long_sizes.append(len(line))
        flat.extend(itertools.chain.from_iterable(lines.values()))
        ends.extend(itertools.accumulate(map(len, lines.values()), initial=ends.pop()))
    return array("i", ends), array("i", flat), size_counts_of(len(ends) - 1, long_sizes)


def _on_one_line(rows, line: list[int], d: int) -> bool:
    """Whether the points of line lie on the exact line through its first two."""
    u = row_cross(rows[line[0]], rows[line[1]], d)
    return not any(any(row_dot(u, rows[j], d)) for j in line[2:])
