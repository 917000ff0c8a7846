"""Bichromatic line profiles t_{i,j} and the check of their counting identities.

t_{i,j} counts the determined lines with exactly i green and j red
points (``tables.LineProfile``).  ``compute_profile`` tallies them over
the line CSR of a configuration's incidence, and checks every counting
identity of ``tables.IDENTITIES`` exactly before it returns.  On the
pencil path (``geometry.pencil_path``) the tally is prefix sums in
Python ints and no numpy is loaded; above it, a block tally in numpy.
The identities hold for every configuration, so a failure is always a
kernel bug, and it raises.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, replace
from operator import sub
from typing import TYPE_CHECKING

from .errors import InternalInconsistencyError
from .geometry import pencil_path
from .points import GREEN, ColoredConfiguration
from .tables import IDENTITIES, Cell, LineProfile

if TYPE_CHECKING:
    from .geometry import Incidence
    from .kernels import IncidenceArrays


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def compute_profile(
    config: ColoredConfiguration, arrays: IncidenceArrays | None = None
) -> LineProfile:
    """Tally (green, red) cell counts over the configuration's determined
    lines, from each line's green count over the CSR buffers of its
    (once-enumerated) incidence structure: by prefix sums in Python ints
    on the pencil path, by blocks of lines in numpy above it.  A caller
    that holds the lines' CSR arrays (``kernels.build_incidence``), and
    so numpy, passes them, and the block tally reads them at any size.

    The counting identities are verified before the profile is returned;
    they are cheap cross-checks of the geometry kernel.
    """
    green = [c == GREEN for c in config.colors]
    if arrays is None and pencil_path(config.total):
        cells = _prefix_tally(config.incidence, green)
    else:
        cells = _block_tally(config.incidence, green, arrays)
    profile = LineProfile.from_dict(cells, config.n, config.k)
    report = verify_identities(profile)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InternalInconsistencyError(
            f"counting identities failed ({', '.join(failed)}): "
            "the enumeration or profile code is buggy"
        )
    return replace(profile, identities=report)


def _prefix_tally(incidence: Incidence, green: list[bool]) -> dict[Cell, int]:
    """The cells of the lines by prefix sums over the CSR: with weight
    1 + w per green point and 1 per red one, w = N + 1, an m-point line
    with g green points sums to m + w g, the difference of the running
    sums at the ends of its segment."""
    w = len(green) + 1
    weights = [1 + w * g for g in green]
    lines = incidence.lines
    running = list(itertools.accumulate(map(weights.__getitem__, lines.points), initial=0))
    at = list(map(running.__getitem__, lines.indptr))
    cells = {}
    for total, c in Counter(map(sub, at[1:], at)).items():
        g, m = divmod(total, w)
        cells[g, m - g] = c
    return cells


# Lines per block of the block tally: bounds the index copies that numpy's
# gathers and bincount make of the int32 line CSR.
_TALLY_BLOCK = 1 << 12


def _block_tally(
    incidence: Incidence, green: list[bool], csr: IncidenceArrays | None
) -> dict[Cell, int]:
    """The cells of the lines in numpy: each line's green count is a segment
    sum over the CSR arrays, taken in blocks of lines."""
    import numpy as np

    from .kernels import build_incidence

    if csr is None:
        csr = build_incidence(incidence.lines, incidence.total_points)
    flags = np.array(green, dtype=np.int8)
    # An m-point line with g green points falls in cell g * len(sizes) + rank[m].
    sizes = sorted(incidence.size_counts)
    rank = np.zeros(sizes[-1] + 1, dtype=np.int32)
    rank[sizes] = np.arange(len(sizes))
    tally = np.zeros((sizes[-1] + 1) * len(sizes), dtype=np.int64)
    indptr, n_lines = csr.line_indptr, csr.line_sizes.shape[0]
    for start in range(0, n_lines, _TALLY_BLOCK):
        stop = min(start + _TALLY_BLOCK, n_lines)
        first = indptr[start]
        block = flags[csr.line_points[first : indptr[stop]]]
        cell = np.add.reduceat(block, indptr[start:stop] - first, dtype=np.int32)
        cell *= len(sizes)
        cell += rank[csr.line_sizes[start:stop]]
        tally += np.bincount(cell, minlength=tally.shape[0])
    cells = {}
    for cell in np.flatnonzero(tally).tolist():
        g, r = divmod(cell, len(sizes))
        cells[g, sizes[r] - g] = int(tally[cell])
    return cells


def verify_identities(profile: LineProfile) -> IdentityReport:
    """Both sides of every identity, exactly: sum coef * (int sum t (i-j)^a (i+j)^b)."""
    return IdentityReport(tuple(
        IdentityCheck(
            name,
            sum(coef * sum(c * (i - j) ** a * (i + j) ** b for (i, j), c in profile.counts)
                for (a, b), coef in row.terms.items()),
            row.rhs(profile.n, profile.k),
        )
        for name, row in IDENTITIES.items()
    ))
