"""Bichromatic line profiles t_{i,j} and their exact counting identities.

t_{i,j} counts the determined lines with exactly i green and j red
points.  ``IDENTITIES`` is the one table of the counting identities
sum w(i, j) t_{i,j} = rhs(n, k) that tie a profile to (n, k) alone, each
w stored as its polynomial coefficients; the proofcheck templates combine
its rows and sum those coefficients into their tails.  They hold for
every configuration, so a failure is always a kernel bug; every profile
computation checks them and raises on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb
from typing import Callable, Mapping

import numpy as np

from .errors import InternalInconsistencyError
from .geometry import GREEN, ColoredConfiguration


@dataclass(frozen=True)
class LineProfile:
    """Counts t_{i,j} for one configuration, its n and k, and its checked identities."""

    counts: tuple[tuple[tuple[int, int], int], ...]
    n: int
    k: int
    identities: IdentityReport | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_dict(cls, cells: dict[tuple[int, int], int], n: int, k: int) -> LineProfile:
        items = tuple(sorted((cell, c) for cell, c in cells.items() if c))
        return cls(items, n, k)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.counts)

    def cell(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)


@dataclass(frozen=True)
class EquichromaticQuery:
    """Select cells with i + j >= 2, |i - j| <= r, and i + j <= max_points.

    max_points=None leaves the line size unbounded.
    """

    r: int
    max_points: int | None = None

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("color-balance tolerance r must be >= 0")
        if self.max_points is not None and self.max_points < 1:
            raise ValueError("max_points must be positive")

    def selects(self, i: int, j: int) -> bool:
        if i + j < 2 or abs(i - j) > self.r:
            return False
        return self.max_points is None or i + j <= self.max_points


@dataclass(frozen=True)
class Identity:
    """sum weight(i, j) * t_{i,j} = rhs(n, k) over every profile, the weight
    held as its coefficients of (i - j)^a (i + j)^b, keyed by (a, b)."""

    terms: Mapping[tuple[int, int], Fraction]
    rhs: Callable[[int, int], int]

    def weight(self, i: int, j: int) -> Fraction:
        return sum(c * (i - j) ** a * (i + j) ** b for (a, b), c in self.terms.items())


_QUARTER = Fraction(1, 4)
# With s = i + j and u = i - j: i*j = (s^2 - u^2) / 4 and
# C(i, 2) + C(j, 2) = (s^2 + u^2) / 4 - s / 2.
IDENTITIES: dict[str, Identity] = {
    "mixed_pairs": Identity({(0, 2): _QUARTER, (2, 0): -_QUARTER}, lambda n, k: n * (n - k)),
    "same_color_pairs": Identity(
        {(0, 2): _QUARTER, (2, 0): _QUARTER, (0, 1): Fraction(-1, 2)},
        lambda n, k: comb(n, 2) + comb(n - k, 2),
    ),
    "incidence_balance": Identity({(0, 1): 1, (2, 0): -1}, lambda n, k: 2 * n - (k * k + k)),
}


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


def count_equichromatic(profile: LineProfile, query: EquichromaticQuery) -> int:
    """Number of determined lines in the cells selected by the query."""
    return sum(c for (i, j), c in profile.counts if query.selects(i, j))
