"""The sort enumeration of lines, in numpy.

``geometry.enumerate_lines`` runs it above the pencil path and for every
search, on the points as ``geometry.residues`` reduces them mod p.  Each
point pair is keyed by one int64, the projective class of the cross
product of its two residue triples (the line through it mod p), in
blocks of pairs; the keys are sorted; and each group of equal keys is
checked to be one exact line on the integer rows, in int64 where
``_det_dtype`` proves the headroom and in Python ints otherwise.
"""

from __future__ import annotations

import itertools

import numpy as np

from .geometry import row_det, size_counts_of
from .points import check_key_bits


def _det_dtype(m: int, d: int):
    """np.int64 when row_det provably stays exact in it on rows whose
    largest |component| is m, else object (Python ints).  With D = |d|, a
    row_cross entry is at most C = 2 m^2 (1 + D) in absolute value and a
    row_det part at most 3 C m (1 + D), which bounds every partial sum too."""
    return np.int64 if 6 * m**3 * (1 + abs(d)) ** 2 < 2**63 else object


# Pairs keyed per _pair_keys call: its gathers, products and inverses scale
# with the block, not with C(N, 2).  A row_det call reads 18 components a
# triple, against 6 residues a pair, so the exact check takes fewer a call.
_PAIR_BLOCK = 1 << 12
_CHECK_BLOCK = 1 << 10


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


def _projective_keys(u: np.ndarray, v: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """One int64 key per nonzero triple (u : v : w) of residues mod p < 2^30,
    equal iff the triples are proportional: the triple scaled to make its
    first nonzero entry 1, packed as u p^2 + v p + w < 2^61."""
    inv = _inverse_mod(np.where(u != 0, u, np.where(v != 0, v, w)), p)
    return (u * inv % p * p + v * inv % p) * p + w * inv % p


def _pair_points(t: np.ndarray, row_start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points (i, j) of pairs given by index t in np.triu_indices order,
    where row i's pairs start at row_start[i]."""
    i = np.searchsorted(row_start, t, side="right") - 1
    return i, t - row_start[i] + i + 1


def _pair_keys(res: np.ndarray, i: np.ndarray, j: np.ndarray, p: int) -> np.ndarray:
    """The key mod p of the line through each pair of points (i, j): their
    cross product, as _projective_keys.  Products of residues stay < 2^60."""
    (xi, yi, zi), (xj, yj, zj) = res[:, i], res[:, j]
    return _projective_keys(
        (yi * zj - zi * yj) % p, (zi * xj - xi * zj) % p, (xi * yj - yi * xj) % p, p
    )


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges starts[g], ..., starts[g] + lengths[g] - 1."""
    total = int(lengths.sum())
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.repeat(starts, lengths) + (np.arange(total) - offsets)


def sort_lines(rows, d: int, residues, p: int):
    """The sort enumeration of ``geometry.enumerate_lines`` at the prime p,
    from the points' ``geometry.residues``: the lines as (indptr, points,
    size_counts) of ``geometry.Incidence``, grouping their pairs by the keys
    mod p; None when a group is not one exact line (the prime merged lines)."""
    n = len(rows)
    n_pairs = n * (n - 1) // 2
    row_start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
    res = np.array(residues, dtype=np.int64).T
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
        for start in range(0, line.shape[0], _CHECK_BLOCK):
            b = slice(start, start + _CHECK_BLOCK)
            if any(part.any() for part in row_det(*(exact[:, k[b]] for k in triples), d)):
                return None
    first = order[lo]
    # Lines share at most one point, so by first pair is by point-index tuple.
    mark = np.zeros(n_pairs, dtype=bool)
    for start in range(0, n_pairs, _PAIR_BLOCK):
        mark[order[start + np.flatnonzero(new[start : start + _PAIR_BLOCK])]] = True
    del order, new
    t = np.flatnonzero(mark).astype(np.int32)  # each line's first pair, in order
    del mark
    at = np.searchsorted(t, first)  # the checked lines among all
    sizes = np.full(t.shape[0], 2, dtype=np.int32)
    sizes[at] = m
    indptr = np.zeros(t.shape[0] + 1, dtype=np.int32)
    np.cumsum(sizes, out=indptr[1:])
    del sizes
    members, starts = np.empty(indptr[-1], dtype=np.int32), indptr[:-1]
    for start in range(0, t.shape[0], _PAIR_BLOCK):
        b = slice(start, start + _PAIR_BLOCK)
        members[starts[b]], members[starts[b] + 1] = _pair_points(t[b], row_start)
    # The other points of each checked line follow its first pair.
    members[_ragged(indptr[at] + 2, m - 2)] = x[rest]
    return indptr, members, size_counts_of(t.shape[0], m.tolist())
