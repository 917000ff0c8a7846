"""Coloring search over a fixed base point set.

``run_search`` is the one entry point.  It checks both search caps,
enumerates the base set's lines once into one ``Incidence`` and takes the
theorem's verdict from ``bounds.verdict``.  Applicability depends only on
the base set and (n, k), never on the coloring: if the gate fails, every
coloring is inapplicable, the result says so, and no kernel runs.
Otherwise the kernels read that incidence's line CSR as numpy arrays,
adapted once by ``kernels.build_incidence`` (no array of lines times
points is built).  Exhaustive mode evaluates every coloring with the
requested (n, k); local mode runs a seeded hill-descent with green/red
swap moves drawn from the package's own PCG64 stream (``pcg64``), which
gives numpy's PCG64 Generator draws without importing them.  Both
minimize the bound slack, which for a fixed base set and fixed (n, k) is
equivalent to minimizing the selected-line count, so the hot loop runs
in the array kernels.  The winning coloring is
re-evaluated through ``bounds.evaluate_bound`` on the same incidence,
and the two counts must agree; a mismatch raises, so the fast kernels
never stand unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bounds import BoundReport, evaluate_bound, verdict
from .errors import InternalInconsistencyError, SearchCapError
from .geometry import enumerate_lines
from .kernels import build_incidence, descent_replay, exhaustive_scan, selection_table
from .pcg64 import PCG64
from .points import GREEN, RED, ColoredConfiguration, ProjPoint, check_point_count
from .profiles import compute_profile
from .quadfield import Discriminant
from .tables import BoundTheorem, theorem_info

EXHAUSTIVE = "exhaustive"
LOCAL = "local"
# Colorings one search may examine; bounds the time and memory of any request.
MAX_COLORINGS = 10_000_000
# Moves one local search may propose: seconds at the ~80k moves/s of a plateau.
MAX_LOCAL_BUDGET = 1_000_000


@dataclass(frozen=True)
class SearchSpec:
    """A base point set, a color balance k, a theorem, and a search mode."""

    points: tuple[ProjPoint, ...]
    k: int
    theorem: BoundTheorem
    mode: str = EXHAUSTIVE
    seed: int = 0
    budget: int = 10_000

    def __post_init__(self):
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


@dataclass(frozen=True)
class SearchResult:
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


def colors_from_green_indices(total: int, green: np.ndarray) -> tuple[str, ...]:
    green_set = set(int(g) for g in green)
    return tuple(GREEN if i in green_set else RED for i in range(total))


# Moves per block of the seeded move stream: bounds the red-slot arrays and the
# draws' temporaries whatever the budget; the green slots take 2 bytes a move.
_MOVE_BLOCK = 4096


def _seeded_moves(
    spec: SearchSpec,
) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """The initial green indices and the (green slot, red slot) swap
    proposals in blocks of _MOVE_BLOCK, all drawn from the seed's PCG64
    stream, so a fixed spec replays exactly."""
    rng = PCG64(spec.seed)
    n, n_red = spec.n_green, spec.total - spec.n_green
    initial_green = np.array(sorted(rng.permutation(spec.total)[:n]), dtype=np.int64)
    budget = spec.budget if n_red else 0
    return initial_green, _move_blocks(rng, n, n_red, budget)


def _move_blocks(
    rng: PCG64, n: int, n_red: int, budget: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The blocks of budget draws below n (green slots) and of budget draws
    below n_red (red slots) that one integers(size=budget) call each would
    give, in that order.  A bounded draw takes a variable number of words,
    so the red stream starts where the green slots end: those are drawn
    first, once, into a uint16 buffer of 2 bytes a move (run_search has
    checked n <= MAX_POINTS)."""
    starts = range(0, budget, _MOVE_BLOCK)
    green = np.empty(budget, dtype=np.uint16)
    for start in starts:
        block = green[start : start + _MOVE_BLOCK]
        block[:] = rng.integers(n, len(block))
    for start in starts:
        block = green[start : start + _MOVE_BLOCK]
        yield block, rng.integers(n_red, len(block))


def run_search(spec: SearchSpec) -> SearchResult:
    """Search the colorings with the spec's (n, k) for minimal slack.

    Exhaustive mode examines every coloring, ties going to the
    lexicographically smallest green index tuple.  Local mode is a seeded
    stochastic hill-descent on slack; swaps preserve n and k by
    construction, and the budget counts proposed moves beyond the initial
    coloring, rejected proposals included.
    """
    # Before any work: the caps bound the time of any request.
    check_point_count(spec.total)
    count = spec.coloring_count()
    if count > MAX_COLORINGS:
        # C(N, n) and a local budget can run to hundreds of digits; the
        # message names the count, or its power of ten, instead.
        what = (f"C({spec.total}, {spec.n_green})" if spec.mode == EXHAUSTIVE
                else count if count < 10**40 else f"about 10^{round(math.log10(count))}")
        raise SearchCapError(
            f"{spec.mode} search over {what} colorings exceeds the cap {MAX_COLORINGS}", count
        )
    if spec.mode == LOCAL and spec.budget > MAX_LOCAL_BUDGET:
        raise SearchCapError(
            f"{spec.budget} local moves exceed the budget cap {MAX_LOCAL_BUDGET}", count
        )
    # numpy is loaded anyway, and with it the sort path costs little more on
    # small sets and far less on large ones: 0.9 against 0.5 ms for the
    # pencils on grid(5), 14 against 54 ms on random_rational(300, 0, 9)
    # (best of 30, 2-core x86_64).
    base = enumerate_lines(spec.points, sort=True)
    applicable, detail, bound = verdict(spec.theorem, spec.n_green, spec.k, base)
    if not applicable:
        return SearchResult(
            spec, best_colors=None, best_report=None, colorings_examined=0,
            violations=0, all_inapplicable=True, precondition_detail=detail,
        )
    sel = selection_table(base.size_counts, theorem_info(spec.theorem).query)
    arrays = build_incidence(base)
    if spec.mode == EXHAUSTIVE:
        best_actual, best_green, violations, examined = exhaustive_scan(
            arrays, sel, spec.n_green, bound.numerator, bound.denominator
        )
    else:
        best_actual, best_green, violations, examined = descent_replay(
            arrays, sel, *_seeded_moves(spec), bound.numerator, bound.denominator
        )
    colors = colors_from_green_indices(spec.total, best_green)
    config = ColoredConfiguration(Discriminant(spec.points[0].d), spec.points, colors)
    # Same points as the base set: the recount reuses its lines rather than
    # repeating the deterministic enumeration.  The profile is still
    # tallied exactly, with the counting identities checked.
    vars(config)["incidence"] = base
    report = evaluate_bound(spec.theorem, config, compute_profile(config))
    if report.actual != best_actual:
        raise InternalInconsistencyError(
            f"kernel count {best_actual} != exact recount {report.actual} "
            f"for the best coloring, green points {best_green.tolist()}"
        )
    return SearchResult(
        spec, best_colors=colors, best_report=report, colorings_examined=examined,
        violations=violations, all_inapplicable=False, precondition_detail=detail,
    )
