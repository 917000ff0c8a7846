"""Bichromatic line profiles t_{i,j} and the check of their counting identities.

t_{i,j} counts the determined lines with exactly i green and j red
points (``tables.LineProfile``).  ``compute_profile`` tallies them over
the line CSR of the ``geometry.Incidence`` it is handed, under a coloring
of its points that also gives n and k, and checks every counting identity
of ``tables.IDENTITIES`` exactly before it returns.  Each point weighs 1,
plus N + 1 if it is green, so a line's weight sum names its cell; one
decode turns the sums into cells.  The sums follow the buffers: over the
``array('i')`` buffers of the pencil enumeration they are prefix sums in
Python ints, and no numpy is loaded; over the numpy buffers of the sort
enumeration they are segment sums in numpy, taken in blocks of lines.
The identities hold for every configuration, so a failure is always a
kernel bug, and it raises.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from .errors import InternalInconsistencyError
from .points import GREEN
from .tables import IDENTITIES, LineProfile

if TYPE_CHECKING:
    from .geometry import Incidence


class IdentityCheck(NamedTuple):
    name: str
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


class IdentityReport(NamedTuple):
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def compute_profile(incidence: Incidence, colors: tuple[str, ...]) -> LineProfile:
    """Tally (green, red) cell counts over the incidence's lines, colors[i]
    coloring point i, green the majority: with weight 1 + w per green point
    and 1 per red one, w = N + 1, an m-point line with g green points sums
    to m + w g.  The counting identities, cheap cross-checks of the
    geometry kernel, are verified before the profile is returned."""
    w = len(colors) + 1
    weights = [1 + w if c == GREEN else 1 for c in colors]
    # The sums follow the buffers: the prefix sums need no numpy, and numpy
    # buffers come only from a set above the crossover, which loaded numpy
    # to sort its pairs.  There the block sums are faster: 1.5 ms against
    # 23 ms on random_rational(400, 0, 9), 9.4 against 146 ms at 1000
    # points (best of 15, 2-core x86_64).
    line_sums = _prefix_sums if isinstance(incidence.points, array) else _block_sums
    cells = {}
    for total, c in line_sums(incidence, weights).items():
        g, m = divmod(total, w)
        cells[g, m - g] = c
    n = colors.count(GREEN)
    profile = LineProfile.from_dict(cells, n, 2 * n - len(colors))
    report = verify_identities(profile)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InternalInconsistencyError(
            f"counting identities failed ({', '.join(failed)}): "
            "the enumeration or profile code is buggy"
        )
    return profile._replace(identities=report)


def _prefix_sums(incidence: Incidence, weights: list[int]) -> Counter:
    """How many lines have each weight sum, by prefix sums over the
    ``array('i')`` CSR buffers: a line's sum is the difference of the
    running sums at the ends of its segment."""
    running = list(itertools.accumulate(map(weights.__getitem__, incidence.points), initial=0))
    at = list(map(running.__getitem__, incidence.indptr))
    return Counter(map(sub, at[1:], at))


# Lines per block of the block sums: bounds the copies that numpy's gathers
# and sorts make of the int32 line CSR.  One block of every line peaks at
# 14 MB under tracemalloc on random_rational(1000, 0, 9), one of 4096 lines
# at 0.23 MB, on top of the live incidence.
_TALLY_BLOCK = 1 << 12


def _block_sums(incidence: Incidence, weights: list[int]) -> Counter:
    """How many lines have each weight sum, in numpy: each line's sum is a
    segment sum over the numpy CSR buffers, taken in blocks of lines."""
    import numpy as np

    weight = np.array(weights, dtype=np.int64)
    indptr, n_lines = incidence.indptr, len(incidence)
    sums = Counter()
    for start in range(0, n_lines, _TALLY_BLOCK):
        stop = min(start + _TALLY_BLOCK, n_lines)
        first = indptr[start]
        block = weight[incidence.points[first : indptr[stop]]]
        values, counts = np.unique(np.add.reduceat(block, indptr[start:stop] - first),
                                   return_counts=True)
        sums.update(dict(zip(values.tolist(), counts.tolist())))
    return sums


def verify_identities(profile: LineProfile) -> IdentityReport:
    """Both sides of every identity, exactly: sum weight(i, j) t_{i,j} and rhs(n, k)."""
    return IdentityReport(tuple(
        IdentityCheck(name, row.total(profile.counts), row.rhs(profile.n, profile.k))
        for name, row in IDENTITIES.items()
    ))
