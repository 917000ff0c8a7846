"""Coloring search over a fixed base point set.

``run_search`` is the one entry point.  It runs a ``SearchSpec``, which
checks every search limit when it is made.  It enumerates the base set's
lines once into one ``Incidence``, by the algorithm the point count
picks, as for an analysis, and takes the theorem's verdict from
``bounds.verdict``.  Applicability depends only on the base set and
(n, k), never on the coloring: if the gate fails, every coloring is
inapplicable, the result says so, and no kernel runs.  Otherwise the
kernels read that incidence's line CSR (no array of lines times points
is built).  Exhaustive mode, unless its work estimate exceeds
``MAX_SCAN_WORK``, evaluates every coloring with the requested (n, k),
in numpy, on numpy views of the CSR buffers that
``kernels.build_incidence`` adapts once without a copy; local mode draws
all its green/red swap moves from the package's own PCG64 stream
(``pcg64``), which gives numpy's PCG64 Generator draws, into two flat
slot arrays, then replays them in a seeded hill-descent, and loads no
numpy for a base set on the pencil path.
Both minimize the bound slack, which for a fixed base set and fixed
(n, k) is equivalent to minimizing the selected-line count, so the hot
loop runs in the array kernels.  The winning coloring is recounted
exactly, its profile tallied over the same incidence and checked by
``bounds.evaluate_bound``, and the two counts must agree; a mismatch
raises, so the fast kernels never stand unchecked.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

from .bounds import BoundReport, evaluate_bound, verdict
from .errors import ConfigError, Frozen, InternalInconsistencyError
from .geometry import enumerate_lines
from .kernels import build_incidence, descent_replay, exhaustive_scan, selection_table
from .pcg64 import PCG64
from .points import GREEN, RED, ProjPoint, check_point_count
from .profiles import compute_profile
from .tables import THEOREMS, BoundTheorem

EXHAUSTIVE = "exhaustive"
LOCAL = "local"
# Colorings one search may examine; bounds the time and memory of any request.
MAX_COLORINGS = 10_000_000
# Work one exhaustive search may do, in incidences read: C(N, n) colorings
# times the incidences on lines whose selection row is nonzero, plus 8 a
# point for each coloring's green flags.  In one process on a 2-core x86_64
# host the gather scan took 2.8-7.1 ns an incidence, and near-pencils,
# whose few selected lines leave the flags most of the work, 35-46 ns a
# point; so the slowest accepted request runs for about 30 s.  From a
# launcher, random_rational(305,0,9), k=301, equisix and near_pencil(222),
# k=216, ps2, both just under the cap, took 12.4 and 19.0 s.
MAX_SCAN_WORK = 4 * 10**9
# Moves one local search may propose: seconds per process.  From a launcher
# on a 2-core x86_64 host, the random_rational(18,1,9) plateau ran 100,000
# moves in 1.0-1.2 s, and a 1000-point search 1,000,000 moves in 2.8-3.2 s.
MAX_LOCAL_BUDGET = 1_000_000


class SearchSpec(Frozen):
    """A base point set, a color balance k, a theorem, and a search mode,
    checked against every search limit when it is made."""

    __slots__ = ("points", "k", "theorem", "mode", "seed", "budget")

    def __init__(self, points: tuple[ProjPoint, ...], k: int, theorem: BoundTheorem,
                 mode: str = EXHAUSTIVE, seed: int = 0, budget: int = 10_000):
        for name, value in zip(self.__slots__, (points, k, theorem, mode, seed, budget)):
            object.__setattr__(self, name, value)
        if len(self.points) < 2:
            raise ValueError("search needs a base set of at least 2 points")
        if self.mode not in (EXHAUSTIVE, LOCAL):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.k < 0:
            raise ValueError("k must be >= 0 (green is the majority color)")
        if (self.total + self.k) % 2 != 0:
            raise ValueError(
                f"no coloring of {self.total} points has green-minus-red = {self.k}: "
                "N + k must be even"
            )
        if self.k > self.total:
            raise ValueError("k cannot exceed the number of points")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # A budget or C(N, n) can run to hundreds of digits: the messages
        # name the cap and the binomial.  MAX_LOCAL_BUDGET < MAX_COLORINGS,
        # so a local budget bounds its colorings too.
        check_point_count(self.total)
        if self.mode == LOCAL and self.budget > MAX_LOCAL_BUDGET:
            raise ConfigError(f"local search budget exceeds the cap of {MAX_LOCAL_BUDGET} moves")
        if self.mode == EXHAUSTIVE and self.coloring_count() > MAX_COLORINGS:
            raise ConfigError(
                f"exhaustive search over C({self.total}, {self.n_green}) colorings "
                f"exceeds the cap {MAX_COLORINGS}"
            )

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def n_green(self) -> int:
        return (self.total + self.k) // 2

    def coloring_count(self) -> int:
        """Colorings the search examines at most: every one with the spec's
        (n, k) when exhaustive, the initial one plus one per move when local."""
        if self.mode == LOCAL:
            return self.budget + 1
        return math.comb(self.total, self.n_green)


class SearchResult(NamedTuple):
    """Outcome of a search; deterministic given the spec (and seed)."""

    spec: SearchSpec
    best_colors: tuple[str, ...] | None
    best_report: BoundReport | None
    colorings_examined: int
    violations: int
    all_inapplicable: bool
    precondition_detail: str

    @property
    def bound_violated(self) -> bool:
        """Whether any examined applicable coloring beat the bound
        (expected never; a True here is a discovery worth flagging)."""
        return self.violations > 0

    @property
    def best_bits(self) -> str | None:
        """Best coloring as a bit-string over the base point order, 1=green."""
        if self.best_colors is None:
            return None
        return "".join("1" if c == GREEN else "0" for c in self.best_colors)


def _seeded_moves(spec: SearchSpec) -> tuple[list[int], array, array]:
    """The initial green indices, then the green and the red slots of the
    swap proposals, drawn from the seed's PCG64 stream in numpy's order:
    the permutation, one integers(size=budget) call below n, one below
    n_red, so a fixed spec replays exactly.  Each slot array is an
    array('H') of 2 bytes a move (the spec has checked the point count);
    with no red point no move is proposed."""
    rng = PCG64(spec.seed)
    n, n_red = spec.n_green, spec.total - spec.n_green
    initial_green = sorted(rng.permutation(spec.total)[:n])
    if not n_red:
        return initial_green, array("H"), array("H")
    return initial_green, rng.integers(n, spec.budget), rng.integers(n_red, spec.budget)


def run_search(spec: SearchSpec) -> SearchResult:
    """Search the colorings with the spec's (n, k) for minimal slack.

    Exhaustive mode examines every coloring, ties going to the
    lexicographically smallest green index tuple.  Local mode is a seeded
    stochastic hill-descent on slack; swaps preserve n and k by
    construction, and the budget counts proposed moves beyond the initial
    coloring, rejected proposals included.  The base set's lines are
    enumerated as an analysis of the same points enumerates them.
    """
    base = enumerate_lines(spec.points)
    applicable, detail, bound = verdict(spec.theorem, spec.n_green, spec.k, base)
    if not applicable:
        return SearchResult(
            spec, best_colors=None, best_report=None, colorings_examined=0,
            violations=0, all_inapplicable=True, precondition_detail=detail,
        )
    sel = selection_table(base.size_counts, THEOREMS[spec.theorem].query)
    if spec.mode == EXHAUSTIVE:
        incidences = sum(m * count for m, count in base.size_counts.items() if any(sel[m]))
        work = spec.coloring_count() * (incidences + 8 * spec.total)
        if work > MAX_SCAN_WORK:
            raise ConfigError(
                f"exhaustive search work C({spec.total}, {spec.n_green}) x ({incidences} "
                f"incidences + 8 x {spec.total} points) = {work} exceeds the cap {MAX_SCAN_WORK}"
            )
        best_actual, best_green, violations, examined = exhaustive_scan(
            build_incidence(base), sel, spec.n_green, bound.numerator, bound.denominator
        )
    else:
        best_actual, best_green, violations, examined = descent_replay(
            base, sel, *_seeded_moves(spec), bound.numerator, bound.denominator
        )
    chosen = set(best_green)
    colors = tuple(GREEN if i in chosen else RED for i in range(spec.total))
    # The recount tallies the profile exactly, counting identities checked,
    # over the base set's own lines.
    report = evaluate_bound(spec.theorem, base, compute_profile(base, colors))
    if report.actual != best_actual:
        raise InternalInconsistencyError(
            f"kernel count {best_actual} != exact recount {report.actual} "
            f"for the best coloring, green points {best_green}"
        )
    return SearchResult(
        spec, best_colors=colors, best_report=report, colorings_examined=examined,
        violations=violations, all_inapplicable=False, precondition_detail=detail,
    )
