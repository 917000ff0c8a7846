"""Line enumeration over Q(sqrt(d)) on the integer rows of the points.

The lines of a set of ``points.ProjPoint`` are enumerated once into one
``Incidence``: every colorless fact the analysis needs, and the line CSR
(int32 buffers, sorted by point-index tuple) that the profile tally and,
through ``kernels.build_incidence``, the search kernels read; never an
array of lines times points.  The line through each point pair is keyed
modulo a random prime, and each group of pairs that share a key is
checked to be one exact line on the integer rows (``row_det``).  The keys
only group the pairs: a line is its points.

One reduction, ``residues``, maps the points mod p for both algorithms,
each scaled to (x, y, 1), (1, y, 0) or (0, 1, 0), and is the one place
that rejects a prime for the points.  Two algorithms then key and group
the pairs, chosen by their number C(N, 2), each in its own module with
the signature (rows, d, residues, p), imported only when it runs:

  * ``pencil``, up to PENCIL_MAX_PAIRS pairs: for each point in turn, the
    slope mod p of the line to each later point not yet on a found line,
    in Python ints, into ``array('i')`` buffers.  Neither it nor this
    module imports numpy.
  * ``sort``, above it and for the search, which loads numpy anyway: one
    int64 key per pair, sorted and grouped in numpy, into numpy buffers.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from .errors import InsufficientPointsError, InternalInconsistencyError
from .points import ProjPoint, check_key_bits

# The most pairs C(N, 2) that enumerate_lines keys by pencils: 2^16 is
# N <= 362.  Up to here a whole `analyze` process is as fast or faster
# without numpy than with it, its import included; from about 400 points
# the sort path wins.
PENCIL_MAX_PAIRS = 1 << 16


def pencil_path(n_points: int) -> bool:
    """Whether a set of n_points takes the pencil path (no numpy)."""
    return n_points * (n_points - 1) // 2 <= PENCIL_MAX_PAIRS


@dataclass(frozen=True, eq=False)
class Incidence:
    """Colorless incidence structure of one point set: its lines, sorted by
    point-index tuple.

    Everything here is independent of the coloring, so one enumeration
    serves the profile, the inequalities, the bound preconditions and the
    search kernels.  Each line's points, in increasing order, are CSR
    buffers (``indptr``, ``points``: int32, an ``array('i')`` from the
    pencil enumeration and a numpy array from the sort); ``size_counts`` is
    t_m by m ascending, and ``len()`` is the number of lines.
    """

    total_points: int
    indptr: Any  # int32[L+1], CSR line -> its points
    points: Any  # int32[total incidences]
    size_counts: dict[int, int]  # t_m: lines through exactly m points
    all_real: bool

    @property
    def max_collinear(self) -> int:
        return max(self.size_counts)

    def __len__(self) -> int:
        return len(self.indptr) - 1


def size_counts_of(n_lines: int, long_sizes: Iterable[int]) -> dict[int, int]:
    """t_m by m ascending for n_lines lines, given the sizes of those with
    3 or more points: the others have 2."""
    counts = Counter(long_sizes)
    counts[2] = n_lines - counts.total()
    return {m: c for m, c in sorted(counts.items()) if c}


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


def row_dot(u, r, d: int) -> tuple:
    """u . r in Z[sqrt(d)] for a line row u and a point row r, as (rational
    part, sqrt(d) part): both are 0 iff the point is on the line."""
    ua, ub, va, vb, wa, wb = u
    xa, xb, ya, yb, za, zb = r
    return (
        ua * xa + ub * xb * d + va * ya + vb * yb * d + wa * za + wb * zb * d,
        ua * xb + ub * xa + va * yb + vb * ya + wa * zb + wb * za,
    )


def row_det(p, q, r, d: int) -> tuple:
    """det(p, q, r) = (p x q) . r in Z[sqrt(d)] as (rational part, sqrt(d)
    part): both are 0 iff the three points are collinear."""
    return row_dot(row_cross(p, q, d), r, d)


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


def residues(rows: list[tuple[int, ...]], d: int, p: int) -> list[tuple[int, int, int]] | None:
    """The points mod p, each as its residue triple under the ring map
    Z[sqrt(d)] -> F_p that sends sqrt(d) to a root of d, scaled to
    (x, y, 1), or else (1, y, 0) or (0, 1, 0).  None when d has no root mod
    p, or when a triple vanishes or two points coincide mod p: exactly when
    some pair's cross product vanishes, so that a line could split.  Else
    the cross products of a line's pairs are proportional, and key alike."""
    r = _sqrt_mod(d, p)
    if r is None:
        return None
    scaled = []
    for xa, xb, ya, yb, za, zb in rows:
        x, y, z = (xa + xb * r) % p, (ya + yb * r) % p, (za + zb * r) % p
        if z:
            v = pow(z, -1, p)
            scaled.append((x * v % p, y * v % p, 1))
        elif x:
            scaled.append((1, y * pow(x, -1, p) % p, 0))
        elif y:
            scaled.append((0, 1, 0))
        else:
            return None
    return scaled if len(set(scaled)) == len(scaled) else None


def enumerate_lines(points: tuple[ProjPoint, ...], sort: bool = False) -> Incidence:
    """The incidence of the points: all determined lines with their exact
    incident point index sets.

    The line through each point pair is keyed mod a prime p in which d is
    a square, by the pencil algorithm on the pencil path (``pencil_path``)
    and by the sort algorithm above it, or at any size when sort is set:
    a caller that loads numpy anyway (the search) gains nothing from the
    pencils.  The map is a ring homomorphism, so the pairs of one line
    share a key once p separates the points, and lines only merge; every
    group of pairs is checked to be one exact line, and on a failure the
    next prime is tried.  So sum over lines of C(m, 2) = C(N, 2), and the
    output, sorted by incident index tuple, does not depend on the prime
    or the path.
    """
    if len(points) < 2:
        raise InsufficientPointsError("line enumeration needs at least 2 points")
    rows = [p.row for p in points]
    d = points[0].d
    check_key_bits(itertools.chain.from_iterable(rows))
    if pencil_path(len(rows)) and not sort:
        from .pencil import pencil_lines as lines_mod
    else:
        from .sort import sort_lines as lines_mod
    for p in itertools.islice(_primes(rows), _MAX_PRIMES):
        res = residues(rows, d, p)
        csr = None if res is None else lines_mod(rows, d, res, p)
        if csr is not None:
            return Incidence(len(points), *csr, all(point.is_real for point in points))
    raise InternalInconsistencyError(f"no prime of {_MAX_PRIMES} separated the lines")
