"""Bichromatic line profiles t_{i,j} and their exact counting identities.

t_{i,j} counts the determined lines with exactly i green and j red
points.  Three identities tie the profile to (n, k) alone:

  mixed pairs:  sum ij * t_{i,j}                       = n(n-k)
  same pairs:   sum [C(i,2) + C(j,2)] * t_{i,j}        = C(n,2) + C(n-k,2)
  balance:      sum (i+j) * t_{i,j} - sum (i-j)^2 * t_{i,j} = 2n - (k^2+k)

They hold for every configuration, so a failure is always a kernel bug;
every profile computation checks them and raises on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InternalInconsistencyError
from .geometry import GREEN, ColoredConfiguration


@dataclass(frozen=True)
class LineProfile:
    """Counts t_{i,j} for one configuration, plus its n and k."""

    counts: tuple[tuple[tuple[int, int], int], ...]
    n: int
    k: int

    @classmethod
    def from_dict(cls, cells: dict[tuple[int, int], int], n: int, k: int) -> LineProfile:
        items = tuple(sorted((cell, c) for cell, c in cells.items() if c))
        return cls(items, n, k)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.counts)

    def cell(self, i: int, j: int) -> int:
        return self.as_dict().get((i, j), 0)

    @property
    def total_lines(self) -> int:
        return sum(c for _, c in self.counts)

    def size_marginals(self) -> dict[int, int]:
        """t_m = number of determined lines through exactly m points."""
        out: dict[int, int] = {}
        for (i, j), c in self.counts:
            out[i + j] = out.get(i + j, 0) + c
        return dict(sorted(out.items()))


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


def compute_profile(config: ColoredConfiguration) -> LineProfile:
    """Tally (green, red) cell counts over the configuration's determined
    lines, which come from its (once-enumerated) incidence structure.

    The counting identities are verified before the profile is returned;
    they are cheap cross-checks of the geometry kernel.
    """
    cells: dict[tuple[int, int], int] = {}
    for rec in config.incidence.lines:
        greens = sum(1 for idx in rec.point_indices if config.colors[idx] == GREEN)
        cell = (greens, rec.size - greens)
        cells[cell] = cells.get(cell, 0) + 1
    profile = LineProfile.from_dict(cells, config.n, config.k)
    report = verify_identities(profile)
    if not report.all_passed:
        failed = [c.name for c in report.checks if not c.passed]
        raise InternalInconsistencyError(
            f"counting identities failed ({', '.join(failed)}): "
            "the enumeration or profile code is buggy"
        )
    return profile


def verify_identities(profile: LineProfile) -> IdentityReport:
    """Evaluate both sides of the three counting identities exactly."""
    n, k = profile.n, profile.k
    mixed = sum(i * j * c for (i, j), c in profile.counts)
    same = sum((comb(i, 2) + comb(j, 2)) * c for (i, j), c in profile.counts)
    weighted_size = sum((i + j) * c for (i, j), c in profile.counts)
    imbalance = sum((i - j) ** 2 * c for (i, j), c in profile.counts)
    checks = (
        IdentityCheck("mixed_pairs", mixed, n * (n - k)),
        IdentityCheck("same_color_pairs", same, comb(n, 2) + comb(n - k, 2)),
        IdentityCheck(
            "incidence_balance",
            weighted_size - imbalance,
            2 * n - (k * k + k),
        ),
    )
    return IdentityReport(checks)


def count_equichromatic(profile: LineProfile, query: EquichromaticQuery) -> int:
    """Number of determined lines in the cells selected by the query."""
    return sum(c for (i, j), c in profile.counts if query.selects(i, j))
