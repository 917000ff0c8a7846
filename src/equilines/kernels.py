"""Hot counting kernels behind the coloring search.

The line set of a base configuration and each line's point membership are
color-independent, so evaluating one coloring reduces to small-integer
work: per-line green counts plus a lookup table saying whether a line of
size m with g green points is selected by the equichromatic query.  That
makes the per-coloring loop a pure array kernel with no exact-arithmetic
dependency; exactness is preserved because every quantity is a small
integer (bounds are compared via scaled integers, never floats).

Two interchangeable backends compute the same results:

  * numba: jitted depth-first enumeration / move replay (the default),
  * numpy: chunked vectorized evaluation and a plain-Python move replay.

Selection: the EQUILINES_BACKEND environment variable ("numba", "numpy",
or "auto"); "auto" takes numba when it imports, else numpy.  Both
backends visit colorings in the same order and break ties on the best
count toward the lexicographically smallest green index tuple, so
results are backend-independent.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .geometry import Incidence

BACKEND_ENV_VAR = "EQUILINES_BACKEND"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


def resolve_backend(backend: str | None = None) -> str:
    """Pick "numba" or "numpy" from an explicit request or the environment."""
    choice = backend or os.environ.get(BACKEND_ENV_VAR, "auto")
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(f"unknown backend {choice!r}")
    if choice == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    return choice


@dataclass(frozen=True)
class IncidenceArrays:
    """Color-independent line structure of a base point set, as arrays."""

    n_points: int
    line_sizes: np.ndarray  # int64[L]
    membership: np.ndarray  # uint8[L, N], 1 iff point on line
    point_indptr: np.ndarray  # int64[N+1], CSR point -> incident lines
    point_lines: np.ndarray  # int64[total incidences]

    @property
    def n_lines(self) -> int:
        return int(self.line_sizes.shape[0])


def build_incidence(incidence: Incidence) -> IncidenceArrays:
    lines, n_points = incidence.lines, incidence.total_points
    n_lines = len(lines)
    sizes = np.array([rec.size for rec in lines], dtype=np.int64)
    membership = np.zeros((n_lines, n_points), dtype=np.uint8)
    for li, rec in enumerate(lines):
        membership[li, list(rec.point_indices)] = 1
    indptr = np.zeros(n_points + 1, dtype=np.int64)
    np.cumsum(membership.sum(axis=0), out=indptr[1:])
    # Row-major nonzeros of the transpose: each point's lines, in line order.
    point_lines = np.nonzero(membership.T)[1].astype(np.int64)
    return IncidenceArrays(n_points, sizes, membership, indptr, point_lines)


def selection_table(
    line_sizes: np.ndarray, r: int, max_points: int | None
) -> np.ndarray:
    """sel[l, g] = 1 iff line l, carrying g green of its m points, lands in
    a cell with |g - (m - g)| <= r and m <= max_points.  int64 so the
    kernels can form signed deltas."""
    max_size = int(line_sizes.max())
    sel = np.zeros((line_sizes.shape[0], max_size + 1), dtype=np.int64)
    for li in range(line_sizes.shape[0]):
        m = int(line_sizes[li])
        if max_points is not None and m > max_points:
            continue
        for g in range(m + 1):
            if abs(2 * g - m) <= r:
                sel[li, g] = 1
    return sel


def _exhaustive_scan(
    point_indptr,
    point_lines,
    sel,
    n_lines,
    n_points,
    n_green,
    bound_num,
    bound_den,
):
    """Depth-first enumeration of all n_green-subsets in lexicographic
    order, maintaining per-line green counts and the selected-line total
    incrementally.  Returns (best_actual, best_combo, violations, examined).
    """
    counts = np.zeros(n_lines, dtype=np.int64)
    actual = np.int64(0)
    for li in range(n_lines):
        actual += sel[li, 0]
    combo = np.empty(n_green, dtype=np.int64)
    best = np.empty(n_green, dtype=np.int64)
    best_actual = np.int64(-1)
    violations = np.int64(0)
    examined = np.int64(0)
    depth = 0
    v = 0
    while True:
        if n_points - v < n_green - depth:
            if depth == 0:
                break
            depth -= 1
            v = combo[depth]
            for ci in range(point_indptr[v], point_indptr[v + 1]):
                li = point_lines[ci]
                c = counts[li]
                actual += sel[li, c - 1] - sel[li, c]
                counts[li] = c - 1
            v += 1
            continue
        combo[depth] = v
        for ci in range(point_indptr[v], point_indptr[v + 1]):
            li = point_lines[ci]
            c = counts[li]
            actual += sel[li, c + 1] - sel[li, c]
            counts[li] = c + 1
        if depth == n_green - 1:
            examined += 1
            if actual * bound_den < bound_num:
                violations += 1
            if best_actual < 0 or actual < best_actual:
                best_actual = actual
                best[:] = combo
            for ci in range(point_indptr[v], point_indptr[v + 1]):
                li = point_lines[ci]
                c = counts[li]
                actual += sel[li, c - 1] - sel[li, c]
                counts[li] = c - 1
            v += 1
        else:
            depth += 1
            v = combo[depth - 1] + 1
    return best_actual, best, violations, examined


def _descent_replay(
    point_indptr,
    point_lines,
    sel,
    n_lines,
    initial_green,
    initial_red,
    moves_green,
    moves_red,
    bound_num,
    bound_den,
):
    """Replay a pregenerated swap-move sequence, accepting moves that do
    not increase the selected-line count.  Proposals are evaluated via
    count deltas; rejected moves are reverted exactly.  Ties on the best
    count go to the lexicographically smaller green index tuple."""
    n_green = initial_green.shape[0]
    greens = initial_green.copy()
    reds = initial_red.copy()
    counts = np.zeros(n_lines, dtype=np.int64)
    actual = np.int64(0)
    for li in range(n_lines):
        actual += sel[li, 0]
    for gi in range(n_green):
        p = greens[gi]
        for ci in range(point_indptr[p], point_indptr[p + 1]):
            li = point_lines[ci]
            c = counts[li]
            actual += sel[li, c + 1] - sel[li, c]
            counts[li] = c + 1
    best = greens.copy()
    best_actual = actual
    violations = np.int64(0)
    examined = np.int64(1)
    if actual * bound_den < bound_num:
        violations += 1
    for t in range(moves_green.shape[0]):
        gp = greens[moves_green[t]]
        rp = reds[moves_red[t]]
        candidate = actual
        for ci in range(point_indptr[gp], point_indptr[gp + 1]):
            li = point_lines[ci]
            c = counts[li]
            candidate += sel[li, c - 1] - sel[li, c]
            counts[li] = c - 1
        for ci in range(point_indptr[rp], point_indptr[rp + 1]):
            li = point_lines[ci]
            c = counts[li]
            candidate += sel[li, c + 1] - sel[li, c]
            counts[li] = c + 1
        examined += 1
        if candidate * bound_den < bound_num:
            violations += 1
        if candidate <= actual:
            actual = candidate
            # Swap gp -> rp in greens and rp -> gp in reds, keeping both
            # arrays sorted (shift-based replace, arrays are short).
            pos = 0
            while greens[pos] != gp:
                pos += 1
            while pos + 1 < n_green and greens[pos + 1] < rp:
                greens[pos] = greens[pos + 1]
                pos += 1
            while pos > 0 and greens[pos - 1] > rp:
                greens[pos] = greens[pos - 1]
                pos -= 1
            greens[pos] = rp
            n_red = reds.shape[0]
            pos = 0
            while reds[pos] != rp:
                pos += 1
            while pos + 1 < n_red and reds[pos + 1] < gp:
                reds[pos] = reds[pos + 1]
                pos += 1
            while pos > 0 and reds[pos - 1] > gp:
                reds[pos] = reds[pos - 1]
                pos -= 1
            reds[pos] = gp
            improved = actual < best_actual
            if actual == best_actual:
                for i in range(n_green):
                    if greens[i] != best[i]:
                        improved = greens[i] < best[i]
                        break
            if improved:
                best_actual = actual
                best[:] = greens
        else:
            for ci in range(point_indptr[gp], point_indptr[gp + 1]):
                counts[point_lines[ci]] += 1
            for ci in range(point_indptr[rp], point_indptr[rp + 1]):
                counts[point_lines[ci]] -= 1
    return best_actual, best, violations, examined


_exhaustive_scan_nb = njit(cache=True)(_exhaustive_scan)
_descent_replay_nb = njit(cache=True)(_descent_replay)

_NUMPY_CHUNK = 4096


def _exhaustive_numpy(
    incidence: IncidenceArrays,
    sel: np.ndarray,
    n_green: int,
    bound_num: int,
    bound_den: int,
):
    """Vectorized exhaustive scan: chunks of colorings are evaluated with a
    membership matmul and a gather over the selection table.  Deliberately
    a different algorithm from the jitted scan so the two backends
    cross-check each other."""
    n_points = incidence.n_points
    n_lines = incidence.n_lines
    mem_t = incidence.membership.astype(np.float64).T  # N x L
    sel_flat = sel.ravel()
    offsets = (np.arange(n_lines, dtype=np.int64) * sel.shape[1])[None, :]
    best_actual = -1
    best_combo = np.empty(0, dtype=np.int64)
    violations = 0
    examined = 0
    combos = itertools.combinations(range(n_points), n_green)
    while True:
        chunk = list(itertools.islice(combos, _NUMPY_CHUNK))
        if not chunk:
            break
        idx = np.array(chunk, dtype=np.int64)
        batch = idx.shape[0]
        onehot = np.zeros((batch, n_points), dtype=np.float64)
        onehot[np.arange(batch)[:, None], idx] = 1.0
        green_counts = (onehot @ mem_t).astype(np.int64)  # exact: small ints
        actual = sel_flat[green_counts + offsets].sum(axis=1)
        violations += int((actual * bound_den < bound_num).sum())
        examined += batch
        pos = int(actual.argmin())
        if best_actual < 0 or actual[pos] < best_actual:
            best_actual = int(actual[pos])
            best_combo = idx[pos].copy()
    return best_actual, best_combo, violations, examined


def exhaustive_scan(
    incidence: IncidenceArrays,
    sel: np.ndarray,
    n_green: int,
    bound_num: int,
    bound_den: int,
    backend: str | None = None,
) -> tuple[int, np.ndarray, int, int]:
    """Evaluate every coloring with n_green green points (1 <= n_green <= N).

    Returns (best_actual, best green index tuple, violations, examined);
    the best coloring is the lexicographically smallest among minimizers.
    """
    if not 1 <= n_green <= incidence.n_points:
        raise ValueError(f"n_green must be in [1, {incidence.n_points}]")
    which = resolve_backend(backend)
    if which == "numpy":
        best_actual, best, violations, examined = _exhaustive_numpy(
            incidence, sel, n_green, bound_num, bound_den
        )
    else:
        best_actual, best, violations, examined = _exhaustive_scan_nb(
            incidence.point_indptr,
            incidence.point_lines,
            sel,
            np.int64(incidence.n_lines),
            np.int64(incidence.n_points),
            np.int64(n_green),
            np.int64(bound_num),
            np.int64(bound_den),
        )
    return int(best_actual), np.asarray(best, dtype=np.int64), int(violations), int(examined)


def descent_replay(
    incidence: IncidenceArrays,
    sel: np.ndarray,
    initial_green: np.ndarray,
    moves_green: np.ndarray,
    moves_red: np.ndarray,
    bound_num: int,
    bound_den: int,
    backend: str | None = None,
) -> tuple[int, np.ndarray, int, int]:
    """Replay a seeded swap-move sequence from an initial coloring.

    Both backends execute the identical algorithm on the identical move
    arrays, so the outcome does not depend on the backend.
    """
    which = resolve_backend(backend)
    initial_green = np.sort(np.asarray(initial_green, dtype=np.int64))
    mask = np.ones(incidence.n_points, dtype=bool)
    mask[initial_green] = False
    initial_red = np.flatnonzero(mask).astype(np.int64)
    fn = _descent_replay_nb if which == "numba" else _descent_replay
    best_actual, best, violations, examined = fn(
        incidence.point_indptr,
        incidence.point_lines,
        sel,
        np.int64(incidence.n_lines),
        initial_green,
        initial_red,
        np.asarray(moves_green, dtype=np.int64),
        np.asarray(moves_red, dtype=np.int64),
        np.int64(bound_num),
        np.int64(bound_den),
    )
    return int(best_actual), np.asarray(best, dtype=np.int64), int(violations), int(examined)
