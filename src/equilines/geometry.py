"""Line enumeration over Q(sqrt(d)) on the integer rows of the points.

The lines of a set of ``points.ProjPoint`` are enumerated once into an
``Incidence``: every colorless fact the analysis needs, including the
int32 CSR arrays (``kernels.IncidenceArrays``) that the profile tally and
the search kernels read, never an array of lines times points.  Each
point pair is keyed by one int64, the line through it modulo a random
prime, and each group of pairs that share a key is checked to be one
exact line on the integer rows (``row_det``: int64 where the headroom is
proven, Python ints otherwise).  The keys only group the pairs: a line is
its points, and a ``DeterminedLine`` is built only when one is read.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPointsError, InternalInconsistencyError
from .kernels import IncidenceArrays, build_incidence
from .points import ProjPoint, check_key_bits


@dataclass(frozen=True, slots=True)
class DeterminedLine:
    """A line through >= 2 points of a set, as their indices."""

    point_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.point_indices)


class DeterminedLines(Sequence[DeterminedLine]):
    """The lines determined by a point set, sorted by point-index tuple:
    each line's points in increasing order as CSR (``indptr``, ``points``).
    A ``DeterminedLine`` is built only when read."""

    def __init__(self, indptr: np.ndarray, points: np.ndarray):
        self.indptr, self.points = indptr, points

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __getitem__(self, index: int | slice) -> DeterminedLine | tuple[DeterminedLine, ...]:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]
        start, stop = self.indptr[i : i + 2].tolist()
        return DeterminedLine(tuple(self.points[start:stop].tolist()))


def row_cross(p, q, d: int) -> tuple:
    """The line through two points as a row: the cross product p x q of
    their rows in Z[sqrt(d)].  Entries are ints or arrays of one shape."""
    xa1, xb1, ya1, yb1, za1, zb1 = p
    xa2, xb2, ya2, yb2, za2, zb2 = q
    # (a + b sqrt(d)) * (c + e sqrt(d)) = (ac + be d) + (ae + bc) sqrt(d)
    return (
        ya1 * za2 + yb1 * zb2 * d - (za1 * ya2 + zb1 * yb2 * d),
        ya1 * zb2 + yb1 * za2 - (za1 * yb2 + zb1 * ya2),
        za1 * xa2 + zb1 * xb2 * d - (xa1 * za2 + xb1 * zb2 * d),
        za1 * xb2 + zb1 * xa2 - (xa1 * zb2 + xb1 * za2),
        xa1 * ya2 + xb1 * yb2 * d - (ya1 * xa2 + yb1 * xb2 * d),
        xa1 * yb2 + xb1 * ya2 - (ya1 * xb2 + yb1 * xa2),
    )


def row_det(p, q, r, d: int) -> tuple:
    """det(p, q, r) = (p x q) . r in Z[sqrt(d)] as (rational part, sqrt(d)
    part): both are 0 iff the three points are collinear."""
    ua, ub, va, vb, wa, wb = row_cross(p, q, d)
    xa, xb, ya, yb, za, zb = r
    return (
        ua * xa + ub * xb * d + va * ya + vb * yb * d + wa * za + wb * zb * d,
        ua * xb + ub * xa + va * yb + vb * ya + wa * zb + wb * za,
    )


def _det_dtype(m: int, d: int):
    """np.int64 when row_det provably stays exact in it on rows whose
    largest |component| is m, else object (Python ints).  With D = |d|, a
    row_cross entry is at most C = 2 m^2 (1 + D) in absolute value and a
    row_det part at most 3 C m (1 + D), which bounds every partial sum too."""
    return np.int64 if 6 * m**3 * (1 + abs(d)) ** 2 < 2**63 else object


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 7 and 61, exact for n < 2^32."""
    if n < 2 or n % 2 == 0:
        return n == 2
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = q 2^s, q odd
    for a in (2, 7, 61):
        x = pow(a, (n - 1) >> s, n)
        if a % n == 0 or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int | None:
    """A root r of r^2 = a mod the odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _primes(rows: list[tuple[int, ...]]):
    """Primes from [2^29, 2^30), drawn by a generator seeded from the rows
    (int hashes do not depend on PYTHONHASHSEED, so a run is repeatable).

    A prime fails for a point set only if it divides one of finitely many
    nonzero integers fixed by the rows: a component of a point's residue
    triple, a minor of two points, or a minor of two distinct lines.  The
    draw is uniform over the about 1.3e7 primes of the range in which d
    has a root, and a set cannot steer which ones it meets: changing it to
    spoil the drawn primes changes the seed.  A pencil of 500 lines through
    two points each, the worst case we know, spoils at most 6 C(500, 2) =
    748,500 of them (each difference of two offsets below 2^193 has at most
    six prime factors above 2^29), one in 18.  So the attempts per input
    are geometric with mean below 1.06, O(1).  A fixed list of primes
    would let such a set spoil its first few thousand, a full pass each.
    """
    rng = random.Random(hash(tuple(rows)))
    while True:
        p = rng.randrange(1 << 29, 1 << 30) | 1
        if _is_prime(p):
            yield p


# Primes tried before enumeration gives up: each fails with probability
# about 1/2 (d has no root mod p) plus the small chance above.
_MAX_PRIMES = 100

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


def _reduce(rows: list[tuple[int, ...]], d: int, p: int) -> np.ndarray | None:
    """The points' residue triples mod p as int64 rows (x, y, z), under the
    ring map Z[sqrt(d)] -> F_p that sends sqrt(d) to a root of d; all the
    pairs of a line then have proportional cross products.  None when d has
    no root mod p, or when a triple vanishes or two points coincide mod p:
    exactly when some pair's cross product vanishes, and a line could split."""
    r = _sqrt_mod(d, p)
    if r is None:
        return None
    res = np.array(
        [[(a + b * r) % p for a, b in zip(row[0::2], row[1::2])] for row in rows], dtype=np.int64
    ).T
    if not res.any(axis=0).all():
        return None
    keys = np.sort(_projective_keys(*res, p))
    return None if (keys[1:] == keys[:-1]).any() else res


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


def _lines_mod(rows, d: int, dtype, res: np.ndarray, p: int) -> DeterminedLines | None:
    """The lines of the points, grouping their pairs by the keys mod p; None
    when a group is not one exact line (the prime merged lines).  The exact
    check runs on the rows in dtype."""
    n = len(rows)
    n_pairs = n * (n - 1) // 2
    row_start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
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
    return DeterminedLines(indptr, members)


def enumerate_lines(points: tuple[ProjPoint, ...]) -> DeterminedLines:
    """All determined lines with their exact incident point index sets.

    Each point pair gets one int64 key: the line through it mod a prime p
    in which d is a square.  The map is a ring homomorphism, so the pairs
    of one line share a key once p separates the points, and lines only
    merge; every group of pairs is checked to be one exact line, and on a
    failure the next prime is tried.  So sum over lines of C(m, 2) =
    C(N, 2), and the output, sorted by incident index tuple, does not
    depend on the prime.
    """
    rows = [p.row for p in points]
    if len(rows) < 2:
        return DeterminedLines(np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32))
    d = points[0].d
    dtype = _det_dtype(check_key_bits(itertools.chain.from_iterable(rows)), d)
    for p in itertools.islice(_primes(rows), _MAX_PRIMES):
        res = _reduce(rows, d, p)
        lines = None if res is None else _lines_mod(rows, d, dtype, res, p)
        if lines is not None:
            return lines
    raise InternalInconsistencyError(f"no prime of {_MAX_PRIMES} separated the lines")


@dataclass(frozen=True)
class Incidence:
    """Colorless incidence structure of one point set.

    Everything here is independent of the coloring, so one enumeration
    serves the profile, the inequalities, the bound preconditions and the
    search kernels.  ``csr`` holds the lines' point-index tuples as CSR
    arrays, line to points, built once; the line sizes, t_m and the
    largest collinear subset are read off it.
    """

    total_points: int
    lines: DeterminedLines
    csr: IncidenceArrays
    size_counts: dict[int, int]  # t_m: lines through exactly m points
    max_collinear: int
    all_real: bool

    @classmethod
    def of(cls, points: tuple[ProjPoint, ...]) -> Incidence:
        if len(points) < 2:
            raise InsufficientPointsError("line enumeration needs at least 2 points")
        lines = enumerate_lines(points)
        csr = build_incidence(lines, len(points))
        sizes, counts = np.unique(csr.line_sizes, return_counts=True)
        return cls(
            total_points=len(points),
            lines=lines,
            csr=csr,
            size_counts=dict(zip(sizes.tolist(), counts.tolist())),
            max_collinear=int(sizes[-1]),
            all_real=all(p.is_real for p in points),
        )

    def t(self, m: int) -> int:
        return self.size_counts.get(m, 0)
