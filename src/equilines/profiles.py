"""Bichromatic line profiles t_{i,j} and the check of their counting identities.

t_{i,j} counts the determined lines with exactly i green and j red
points (``tables.LineProfile``).  ``compute_profile`` tallies them over
the line CSR of a configuration's incidence, in numpy, and checks every
counting identity of ``tables.IDENTITIES`` exactly before it returns.
The identities hold for every configuration, so a failure is always a
kernel bug, and it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InternalInconsistencyError
from .points import GREEN, ColoredConfiguration
from .tables import IDENTITIES, LineProfile


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


# Lines per block of the profile tally: bounds the index copies that
# numpy's gathers and bincount make of the int32 line CSR.
_TALLY_BLOCK = 1 << 12


def compute_profile(config: ColoredConfiguration) -> LineProfile:
    """Tally (green, red) cell counts over the configuration's determined
    lines; each line's green count is a segment sum over the CSR arrays
    of its (once-enumerated) incidence structure, taken in blocks of lines.

    The counting identities are verified before the profile is returned;
    they are cheap cross-checks of the geometry kernel.
    """
    csr = config.incidence.csr
    green = np.fromiter((c == GREEN for c in config.colors), np.int8, config.total)
    # An m-point line with g green points falls in cell g * len(sizes) + rank[m].
    sizes = sorted(config.incidence.size_counts)
    rank = np.zeros(sizes[-1] + 1, dtype=np.int32)
    rank[sizes] = np.arange(len(sizes))
    tally = np.zeros((sizes[-1] + 1) * len(sizes), dtype=np.int64)
    indptr, n_lines = csr.line_indptr, csr.line_sizes.shape[0]
    for start in range(0, n_lines, _TALLY_BLOCK):
        stop = min(start + _TALLY_BLOCK, n_lines)
        first = indptr[start]
        block = green[csr.line_points[first : indptr[stop]]]
        cell = np.add.reduceat(block, indptr[start:stop] - first, dtype=np.int32)
        cell *= len(sizes)
        cell += rank[csr.line_sizes[start:stop]]
        tally += np.bincount(cell, minlength=tally.shape[0])
    cells = {}
    for cell in np.flatnonzero(tally).tolist():
        g, r = divmod(cell, len(sizes))
        cells[g, sizes[r] - g] = int(tally[cell])
    profile = LineProfile.from_dict(cells, config.n, config.k)
    report = verify_identities(profile)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InternalInconsistencyError(
            f"counting identities failed ({', '.join(failed)}): "
            "the enumeration or profile code is buggy"
        )
    return replace(profile, identities=report)


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
