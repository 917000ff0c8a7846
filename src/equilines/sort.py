"""The sort enumeration of lines, in numpy.

``geometry.enumerate_lines`` runs it above the pencil path, whoever calls,
on the points in the affine chart mod p of ``geometry.residues``.  Each
point pair is keyed by one int64, slope p + intercept of the line
through it, in blocks of pairs; the keys are sorted; and each group of
equal keys is checked to be one exact line on the integer rows, in int64
where ``_det_dtype`` proves the headroom and in Python ints otherwise.
The line CSR goes into ``array('i')`` buffers, the pencil path's format,
written through numpy views of them.
"""

from __future__ import annotations

import itertools
from array import array

import numpy as np

from .geometry import row_det, size_counts_of
from .points import check_key_bits


def _det_dtype(m: int, d: int):
    """np.int64 when row_det provably stays exact in it on rows whose
    largest |component| is m, else object (Python ints).  With D = |d|, a
    row_cross entry is at most C = 2 m^2 (1 + D) in absolute value and a
    row_det part at most 3 C m (1 + D), which bounds every partial sum too."""
    return np.int64 if 6 * m**3 * (1 + abs(d)) ** 2 < 2**63 else object


# Pairs keyed per _pair_keys call, and triples per row_det call of the
# exact check: their gathers, products and inverses scale with the block,
# not with C(N, 2).
_PAIR_BLOCK = 1 << 12


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """The inverses of the nonzero residues a mod p: Montgomery's trick on a
    product tree, one pow() at its root and about three products a residue."""
    n, tree = a.shape[0], []
    while a.shape[0] > 1:
        if a.shape[0] % 2:
            a = np.append(a, 1)
        tree.append(a)
        a = a[0::2] * a[1::2] % p
    inv = np.array([pow(int(a[0]), -1, p)], dtype=np.int64)
    for level in reversed(tree):  # children x, y of a node: 1/x = y/(xy)
        inv, up = inv[: level.shape[0] // 2], np.empty_like(level)
        up[0::2] = level[1::2] * inv % p
        up[1::2] = level[0::2] * inv % p
        inv = up
    return inv[:n]


def _pair_points(t: np.ndarray, row_start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points (i, j) of pairs given by index t in np.triu_indices order,
    where row i's pairs start at row_start[i]."""
    i = np.searchsorted(row_start, t, side="right") - 1
    return i, t - row_start[i] + i + 1


def _pair_keys(res: np.ndarray, i: np.ndarray, j: np.ndarray, p: int) -> np.ndarray:
    """The key of the line y = s x + t through each pair of points (i, j)
    of the chart, s p + t < 2^60.  Products of residues stay < 2^60."""
    (xi, yi), (xj, yj) = res[:, i], res[:, j]
    s = (yj - yi) % p * _inverse_mod((xj - xi) % p, p) % p
    return s * p + (yi - s * xi) % p


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges starts[g], ..., starts[g] + lengths[g] - 1."""
    total = int(lengths.sum())
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + (np.arange(total) - offsets)


def sort_lines(rows, d: int, residues, p: int) -> tuple[array, array, dict[int, int]] | None:
    """The sort enumeration of ``geometry.enumerate_lines`` at the prime p,
    from the points' ``geometry.residues``: the lines as (indptr, points,
    size_counts) of ``geometry.Incidence``, grouping their pairs by the keys
    mod p; None when a group is not one exact line (the prime merged lines)."""
    n = len(rows)
    n_pairs = n * (n - 1) // 2
    row_start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    res = np.array(residues, dtype=np.int64)
    keys = np.empty(n_pairs, dtype=np.int64)
    for start in range(0, n_pairs, _PAIR_BLOCK):
        t = np.arange(start, min(start + _PAIR_BLOCK, n_pairs))
        keys[start : start + t.shape[0]] = _pair_keys(res, *_pair_points(t, row_start), p)
    order = np.argsort(keys, kind="stable")  # each group's pairs stay in (i, j) order
    keys.sort()
    new = np.empty(n_pairs, dtype=bool)  # pair starts a group
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    del keys
    last = np.ones(n_pairs, dtype=bool)  # pair ends a group
    last[:-1] = new[1:]
    # Groups of one pair are 2-point lines; check the others exactly.
    lo, hi = np.flatnonzero(new & ~last), np.flatnonzero(last & ~new)
    del last
    count = hi - lo + 1
    m = (1 + np.sqrt(8 * count + 1).astype(np.int64)) // 2
    # A group of C(m, 2) pairs is one line iff its first m - 1 pairs join
    # its first point a to m - 1 points, each collinear with the first two:
    # the exact line through those m points then has all its C(m, 2) pairs
    # in this group, as no prime splits a line.
    if (m * (m - 1) // 2 != count).any():
        return None
    a, x = _pair_points(order[_ragged(lo, m - 1)], row_start)
    head = np.cumsum(m - 1) - (m - 1)  # each group's first pair among a, x
    if (a != np.repeat(a[head], m - 1)).any():
        return None
    rest = np.ones(x.shape[0], dtype=bool)
    rest[head] = False
    if rest.any():
        dtype = _det_dtype(check_key_bits(itertools.chain.from_iterable(rows)), d)
        exact = np.array(rows, dtype=dtype).T
        line = np.repeat(np.arange(m.shape[0]), m - 1)[rest]
        triples = a[head][line], x[head][line], x[rest]
        for start in range(0, line.shape[0], _PAIR_BLOCK):
            b = slice(start, start + _PAIR_BLOCK)
            if any(part.any() for part in row_det(*(exact[:, k[b]] for k in triples), d)):
                return None
    first = order[lo]
    # Lines share at most one point, so by first pair is by point-index tuple.
    mark = np.zeros(n_pairs, dtype=bool)
    mark[order[new]] = True
    del order, new
    t = np.flatnonzero(mark).astype(np.int32)  # each line's first pair, in order
    del mark
    at = np.searchsorted(t, first)  # the checked lines among all
    sizes = np.full(t.shape[0], 2, dtype=np.int32)
    sizes[at] = m
    # Views of the array('i') buffers: no copy.
    indptr = array("i", [0]) * (t.shape[0] + 1)
    ends = np.frombuffer(indptr, dtype=np.int32)
    np.cumsum(sizes, out=ends[1:])
    del sizes
    members = array("i", [0]) * int(ends[-1])
    flat, starts = np.frombuffer(members, dtype=np.int32), ends[:-1]
    # In blocks: one _pair_points call over every line takes the
    # tracemalloc peak on random_rational(1000, 0, 9) from 12.3 to 19.9 MB.
    for start in range(0, t.shape[0], _PAIR_BLOCK):
        b = slice(start, start + _PAIR_BLOCK)
        flat[starts[b]], flat[starts[b] + 1] = _pair_points(t[b], row_start)
    # The other points of each checked line follow its first pair.
    flat[_ragged(ends[at] + 2, m - 2)] = x[rest]
    return indptr, members, size_counts_of(t.shape[0], m.tolist())
