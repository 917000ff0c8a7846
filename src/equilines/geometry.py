"""Line enumeration over Q(sqrt(d)) on the integer rows of the points.

The lines of a set of ``points.ProjPoint`` are enumerated once into one
``Incidence``: every colorless fact the analysis needs, and the line CSR
(int32 buffers, sorted by point-index tuple) that the profile tally and,
through ``kernels.build_incidence``, the search kernels read; never an
array of lines times points.  The line through each point pair is keyed
modulo a random prime, and each group of pairs that share a key is
checked to be one exact line on the integer rows (``row_det``).  The keys
only group the pairs: a line is its points.

One reduction, ``residues``, maps the points mod p into one affine chart,
where no line through two of them is vertical, and is the one place that
rejects a prime for the points.  Two algorithms then key the pairs by
slope and group them, chosen by their number C(N, 2), each in its own
module with the signature (rows, d, residues, p), imported when it runs:

  * ``pencil``, up to PENCIL_MAX_PAIRS pairs: for each point in turn, the
    slope of the line to each later point not yet on a found line, in
    Python ints.  Neither it nor this module imports numpy.
  * ``sort``, above it: one int64 key per pair, slope p + intercept,
    sorted and grouped in numpy, written through numpy views.

Both return the line CSR in the same ``array('i')`` buffers.

The point count alone picks the algorithm, whoever calls: an analysis and
a search of one point set, in either mode, read the same incidence.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Iterable
from typing import Any

from .errors import ConfigError, Frozen, InternalInconsistencyError
from .points import ProjPoint, check_key_bits

# The most pairs C(N, 2) that enumerate_lines keys by pencils: 2^17 is
# N <= 512.  Whole `analyze` processes of random_rational(N, 7, 9), pencils
# against sort: 0.15 against 0.25 s and 21.6 against 31.7 MB at N = 362;
# 0.22 against 0.26 s and 27.2 against 33.9 MB at 512, pencils faster in
# 10 of 10 pairs; 0.28 against 0.28 s at 600 (6 of 10) and 0.37 against
# 0.31 s at 724 (0 of 10) (medians of 10 alternating pairs, from a
# launcher with os.wait4, 2-core x86_64).
PENCIL_MAX_PAIRS = 1 << 17


def pencil_path(n_points: int) -> bool:
    """Whether a set of n_points takes the pencil path (no numpy)."""
    return n_points * (n_points - 1) // 2 <= PENCIL_MAX_PAIRS


class Incidence(Frozen):
    """Colorless incidence structure of one point set: its lines, sorted by
    point-index tuple.

    Everything here is independent of the coloring, so one enumeration
    serves the profile, the inequalities, the bound preconditions and the
    search kernels.  Each line's points, in increasing order, are CSR
    buffers (``indptr``, ``points``: int32 ``array('i')``s from either
    enumeration, which numpy can view without a copy); ``size_counts`` is
    t_m by m ascending, and ``len()`` is the number of lines.
    """

    __eq__, __hash__ = object.__eq__, object.__hash__  # equality is identity

    def __init__(self, total_points: int, indptr: Any, points: Any,
                 size_counts: dict[int, int], all_real: bool):
        vars(self).update(total_points=total_points, indptr=indptr, points=points,
                          size_counts=size_counts, all_real=all_real)

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
    triple, a minor of two points, or a minor of two distinct lines; or if
    its frame fails, as at most N/p + 2 C(N, 2)/p of frames do.  The
    draw is uniform over the about 1.3e7 primes of the range in which d
    has a root, and a set cannot steer which ones it meets: changing it to
    spoil the drawn primes changes the seed.  A pencil of 500 lines through
    two points each, the worst case we know, spoils at most 6 C(500, 2) =
    748,500 of them (each difference of two offsets below 2^193 has at most
    six prime factors above 2^29), one in 18, and its frames 0.2%.  So the
    attempts per input are geometric with mean below 1.07, O(1).  A fixed
    list of primes would let such a set spoil its first few thousand, a
    full pass each.
    """
    rng = random.Random(hash(tuple(rows)))
    while True:
        p = rng.randrange(1 << 29, 1 << 30) | 1
        if _is_prime(p):
            yield p


# Primes tried before enumeration gives up: each fails with probability
# about 1/2 (d has no root mod p) plus the small chance above.
_MAX_PRIMES = 100


def chart_frame(p: int) -> tuple[int, int, int]:
    """The frame (a, b, c) drawn from p: (x : y : z) goes to ((x + c y) / w,
    y / w) with w = z + a x + b y, a projective map (x / w alone would give
    all points of x = 0 one x)."""
    rng = random.Random(p)
    return rng.randrange(p), rng.randrange(p), rng.randrange(p)


def residues(rows: list[tuple[int, ...]], d: int, p: int) -> tuple[list[int], list[int]] | None:
    """The points mod p, under the ring map Z[sqrt(d)] -> F_p that sends
    sqrt(d) to a root of d, in the chart of ``chart_frame(p)``: (xs, ys).
    None when d has no root mod p, when some w = 0, or when two points
    share an x (a vanishing triple or coincident points always do).  Else
    three points are collinear mod p iff their images are."""
    r = _sqrt_mod(d, p)
    if r is None:
        return None
    a, b, c = chart_frame(p)
    xs, ys = [], []
    for xa, xb, ya, yb, za, zb in rows:
        x, y = (xa + xb * r) % p, (ya + yb * r) % p
        w = (za + zb * r + a * x + b * y) % p
        if not w:
            return None
        v = pow(w, -1, p)
        xs.append((x + c * y) * v % p)
        ys.append(y * v % p)
    return (xs, ys) if len(set(xs)) == len(xs) else None


def enumerate_lines(points: tuple[ProjPoint, ...]) -> Incidence:
    """The incidence of the points: all determined lines with their exact
    incident point index sets.

    The line through each point pair is keyed mod a prime p in which d is
    a square, by the pencil algorithm on the pencil path (``pencil_path``)
    and by the sort algorithm above it, for every caller.  The map is a
    ring homomorphism, so the pairs of one line share a key once p
    separates the points, and lines only merge; every group of pairs is
    checked to be one exact line, and on a failure the next prime is
    tried.  So sum over lines of C(m, 2) = C(N, 2), and the output,
    sorted by incident index tuple, does not depend on the prime or the
    path.
    """
    if len(points) < 2:
        raise ConfigError("line enumeration needs at least 2 points")
    rows = [p.row for p in points]
    d = points[0].d
    check_key_bits(itertools.chain.from_iterable(rows))
    if pencil_path(len(rows)):
        from .pencil import pencil_lines as lines_mod
    else:
        from .sort import sort_lines as lines_mod
    for p in itertools.islice(_primes(rows), _MAX_PRIMES):
        res = residues(rows, d, p)
        csr = None if res is None else lines_mod(rows, d, res, p)
        if csr is not None:
            return Incidence(len(points), *csr, all(point.is_real for point in points))
    raise InternalInconsistencyError(f"no prime of {_MAX_PRIMES} separated the lines")
