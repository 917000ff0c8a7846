"""Bichromatic line profiles t_{i,j} and the check of their counting identities.

t_{i,j} counts the determined lines with exactly i green and j red
points (``tables.LineProfile``).  ``compute_profile`` tallies them over
the line CSR of a configuration's ``geometry.Incidence``, and checks
every counting identity of ``tables.IDENTITIES`` exactly before it
returns.  The tally follows the buffers: over the ``array('i')`` buffers
of the pencil enumeration it is prefix sums in Python ints, and no numpy
is loaded; over the numpy buffers of the sort enumeration it is a block
tally in numpy.  The identities hold for every configuration, so a
failure is always a kernel bug, and it raises.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from .errors import InternalInconsistencyError
from .points import GREEN, ColoredConfiguration
from .tables import IDENTITIES, Cell, LineProfile

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


def compute_profile(config: ColoredConfiguration) -> LineProfile:
    """Tally (green, red) cell counts over the configuration's determined
    lines, from each line's green count over the CSR buffers of its
    (once-enumerated) incidence structure.

    The counting identities are verified before the profile is returned;
    they are cheap cross-checks of the geometry kernel.
    """
    green = [c == GREEN for c in config.colors]
    incidence = config.incidence
    # The tally follows the buffers: the prefix tally needs no numpy, and
    # numpy buffers come only from a set above the crossover, which loaded
    # numpy to sort its pairs.  There the block tally is faster: 2.8 ms
    # against 24 ms on random_rational(400, 0, 9) (best of 30, 2-core x86_64).
    tally = _prefix_tally if isinstance(incidence.points, array) else _block_tally
    cells = tally(incidence, green)
    profile = LineProfile.from_dict(cells, config.n, config.k)
    report = verify_identities(profile)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InternalInconsistencyError(
            f"counting identities failed ({', '.join(failed)}): "
            "the enumeration or profile code is buggy"
        )
    return profile._replace(identities=report)


def _prefix_tally(incidence: Incidence, green: list[bool]) -> dict[Cell, int]:
    """The cells of the lines by prefix sums over the CSR: with weight
    1 + w per green point and 1 per red one, w = N + 1, an m-point line
    with g green points sums to m + w g, the difference of the running
    sums at the ends of its segment."""
    w = len(green) + 1
    weights = [1 + w * g for g in green]
    running = list(itertools.accumulate(map(weights.__getitem__, incidence.points), initial=0))
    at = list(map(running.__getitem__, incidence.indptr))
    cells = {}
    for total, c in Counter(map(sub, at[1:], at)).items():
        g, m = divmod(total, w)
        cells[g, m - g] = c
    return cells


# Lines per block of the block tally: bounds the index copies that numpy's
# gathers and bincount make of the int32 line CSR.  One block of every line
# adds 10 MB to the tracemalloc peak on random_rational(1000, 0, 9), on top
# of the live incidence.
_TALLY_BLOCK = 1 << 12


def _block_tally(incidence: Incidence, green: list[bool]) -> dict[Cell, int]:
    """The cells of the lines in numpy: each line's green count is a segment
    sum over the numpy CSR buffers, taken in blocks of lines."""
    import numpy as np

    flags = np.array(green, dtype=np.int8)
    # An m-point line with g green points falls in cell g * len(sizes) + rank[m].
    sizes = sorted(incidence.size_counts)
    rank = np.zeros(sizes[-1] + 1, dtype=np.int32)
    rank[sizes] = np.arange(len(sizes))
    tally = np.zeros((sizes[-1] + 1) * len(sizes), dtype=np.int64)
    indptr, n_lines = incidence.indptr, len(incidence)
    for start in range(0, n_lines, _TALLY_BLOCK):
        stop = min(start + _TALLY_BLOCK, n_lines)
        first = indptr[start]
        block = flags[incidence.points[first : indptr[stop]]]
        cell = np.add.reduceat(block, indptr[start:stop] - first, dtype=np.int32)
        cell *= len(sizes)
        cell += rank[np.diff(indptr[start : stop + 1])]
        tally += np.bincount(cell, minlength=tally.shape[0])
    cells = {}
    for cell in np.flatnonzero(tally).tolist():
        g, r = divmod(cell, len(sizes))
        cells[g, sizes[r] - g] = int(tally[cell])
    return cells


def verify_identities(profile: LineProfile) -> IdentityReport:
    """Both sides of every identity, exactly: sum weight(i, j) t_{i,j} and rhs(n, k)."""
    return IdentityReport(tuple(
        IdentityCheck(name, row.total(profile.counts), row.rhs(profile.n, profile.k))
        for name, row in IDENTITIES.items()
    ))
