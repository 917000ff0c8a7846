import hashlib
import json
import math
import os
import random
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from support import (
    KERNEL_PARAMS,
    KERNELS,
    PATHS,
    brute_force_scan,
    run_with_kernels,
    use_kernels,
    use_path,
)

import equilines
from equilines import kernels, pcg64, search
from equilines.bounds import verdict
from equilines.cli import run_cli
from equilines.errors import ConfigError
from equilines.generators import grid, hesse, near_pencil, random_rational
from equilines.geometry import enumerate_lines
from equilines.kernels import build_incidence, exhaustive_scan, resolve_backend, selection_table
from equilines.points import GREEN, MAX_POINTS, affine_point, configuration
from equilines.profiles import compute_profile
from equilines.reports import search_section
from equilines.search import SearchSpec, run_search
from equilines.tables import THEOREMS, BoundTheorem, EquichromaticQuery, count_equichromatic


def test_backend_resolution():
    assert resolve_backend() == "numpy"
    spec = SearchSpec(points=grid(2), k=0, theorem=BoundTheorem.EQUI_SIX)
    assert search_section(run_search(spec))["backend"] == resolve_backend()


def test_selection_table_matches_query():
    for points in (grid(3), hesse(), near_pencil(6)):
        base = enumerate_lines(points)
        for r, max_points in ((1, 6), (2, 4), (1, None), (0, 3)):
            query = EquichromaticQuery(r, max_points)
            sel = selection_table(base.size_counts, query)
            # One row per line size that occurs, of m + 1 ints.
            assert list(sel) == list(base.size_counts)
            for m, row in sel.items():
                assert len(row) == m + 1
                for g in range(m + 1):
                    assert type(row[g]) is int and row[g] == int(query.selects(g, m - g))
            # The zero-padded per-line view the reference algorithms read.
            csr = build_incidence(base)
            sizes = np.diff(csr.indptr).tolist()
            assert support.per_line_selection(csr, sel).tolist() == [
                [int(g <= m and query.selects(g, m - g)) for g in range(max(sizes) + 1)]
                for m in sizes]


def test_backends_agree_when_a_present_size_selects_nothing():
    # equifour counts lines of at most 4 points: grid(5)'s 5-point lines
    # have an all-zero row, though lines of that size exist.
    base = enumerate_lines(grid(5))
    sel = selection_table(base.size_counts, THEOREMS[BoundTheorem.EQUI_FOUR].query)
    assert base.size_counts.get(5, 0) > 0 and not any(sel[5])
    for mode in ("exhaustive", "local"):
        spec = SearchSpec(points=grid(5), k=21, theorem=BoundTheorem.EQUI_FOUR, mode=mode,
                          seed=3, budget=300)
        results = [run_with_kernels(which, spec) for which in KERNELS]
        assert not results[0].all_inapplicable
        assert results[0].colorings_examined == (300 if mode == "exhaustive" else 301)
        assert local_outcome(results[0]) == local_outcome(results[1])


def test_incidence_arrays_match_lines(monkeypatch):
    cases = (grid(3), hesse(), near_pencil(6), random_rational(12, seed=4, bound=5))
    query = THEOREMS[BoundTheorem.EQUI_SIX].query
    for points in cases:
        scans = []
        for path in PATHS:
            use_path(monkeypatch, path)
            base = enumerate_lines(points)
            # Both paths' buffers are array('i')s, which the kernels view.
            assert isinstance(base.points, array) and base.points.typecode == "i"
            csr = build_incidence(base)
            assert csr.total_points == base.total_points
            point_indptr, point_lines = support.point_transpose(csr)
            assert csr.indptr[-1] == csr.points.shape[0] == point_lines.shape[0]
            lines = support.line_tuples(base)
            for li, line in enumerate(lines):
                start, stop = csr.indptr[li], csr.indptr[li + 1]
                assert csr.points[start:stop].tolist() == list(line)
            # The reference algorithms' transpose: each point's lines in line order.
            for p in range(base.total_points):
                expected = [li for li, line in enumerate(lines) if p in line]
                start, stop = point_indptr[p], point_indptr[p + 1]
                assert point_lines[start:stop].tolist() == expected
            sizes = [len(line) for line in lines]
            assert np.diff(csr.indptr).tolist() == sizes
            assert list(base.size_counts.items()) == [
                (m, sizes.count(m)) for m in sorted(set(sizes))
            ]
            assert base.max_collinear == max(sizes)
            best, combo, violations, examined = exhaustive_scan(
                csr, selection_table(base.size_counts, query), len(points) // 2, len(sizes), 1
            )
            scans.append((best, combo, violations, examined))
        # The kernels read views of either path's buffers alike.
        assert scans[0] == scans[1]


# Base sets on the pencil path, one with points at infinity, and a k that
# keeps each exhaustive scan small.
SAME_RULE_CASES = [(grid(4), 0), (hesse(), 1),
                   (support.random_config(12, max_total=40).points, 13)]


@pytest.mark.parametrize("mode", ["exhaustive", "local"])
@pytest.mark.parametrize("points, k", SAME_RULE_CASES, ids=["grid-4", "hesse", "random-12"])
def test_search_enumerates_as_the_analysis_does(monkeypatch, points, k, mode):
    # The point count alone picks the enumeration: a search in either mode
    # reads the pencils' lines, as an analysis of its points does, and
    # reports exactly what it reports on the sort path, the violations and
    # colorings examined included.
    assert any(p.row[4:] == (0, 0) for pts, _ in SAME_RULE_CASES for p in pts)
    bases = []  # the incidence each search's verdict reads
    monkeypatch.setattr(search, "verdict",
                        lambda *args: bases.append(args[-1]) or verdict(*args))
    spec = SearchSpec(points=points, k=k, theorem=BoundTheorem.EQUI_SIX, mode=mode,
                      seed=5, budget=2000)
    default = search_section(run_search(spec))
    assert isinstance(bases[0].indptr, array) and isinstance(bases[0].points, array)
    assert default["all_inapplicable"] is False
    use_path(monkeypatch, "sort")
    on_sort = search_section(run_search(spec))
    # The same lines in the same array('i') buffers.
    assert (bases[1].indptr, bases[1].points) == (bases[0].indptr, bases[0].points)
    assert {"colorings_examined", "violations"} <= on_sort.keys()
    assert on_sort == default


def test_spec_validation():
    pts = grid(3)
    with pytest.raises(ValueError):
        SearchSpec(points=pts, k=0, theorem=BoundTheorem.EQUI_SIX)  # parity
    with pytest.raises(ValueError):
        SearchSpec(points=pts, k=-1, theorem=BoundTheorem.EQUI_SIX)
    with pytest.raises(ValueError):
        SearchSpec(points=pts, k=1, theorem=BoundTheorem.EQUI_SIX, mode="annealing")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SearchSpec(points=pts, k=1, theorem=BoundTheorem.EQUI_SIX, mode="local", seed=-1)
    spec = SearchSpec(points=pts, k=1, theorem=BoundTheorem.EQUI_SIX)
    assert spec.n_green == 5
    assert spec.coloring_count() == math.comb(9, 5) == 126


def test_exhaustive_cap(monkeypatch):
    monkeypatch.setattr(search, "MAX_COLORINGS", 100)
    with pytest.raises(ConfigError) as exc:
        SearchSpec(points=grid(4), k=0, theorem=BoundTheorem.EQUI_SIX)
    assert str(exc.value) == "exhaustive search over C(16, 8) colorings exceeds the cap 100"


def scan_work(points, k, theorem):
    """The exhaustive work estimate of a request, from the enumerated lines
    and the theorem's query: C(N, n) x (selected incidences + 8 N)."""
    query = THEOREMS[theorem].query
    sizes = np.diff(build_incidence(enumerate_lines(points)).indptr).tolist()
    incidences = sum(m for m in sizes if any(query.selects(g, m - g) for g in range(m + 1)))
    total = len(points)
    return incidences, math.comb(total, (total + k) // 2) * (incidences + 8 * total)


def test_exhaustive_work_cap(monkeypatch, capsys):
    # random_rational(N, 0, 9) with two red points: N = 305 is the largest
    # such request under the cap, 306 the smallest above it.  Above it the
    # search exits 2 before the scan, and the message names the estimate.
    theorem = BoundTheorem.EQUI_SIX
    incidences, work = scan_work(random_rational(306, seed=0, bound=9), 302, theorem)
    assert work > search.MAX_SCAN_WORK == 4 * 10**9
    argv = ["search", "--generator", "random_rational(306,0,9)", "--k", "302",
            "--theorem", "equisix"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        f"error: exhaustive search work C(306, 304) x ({incidences} incidences + 8 x 306 "
        f"points) = {work} exceeds the cap 4000000000\n"
    )
    # Hours of gather scan under the coloring cap alone.
    for total, k in ((392, 386), (1000, 996)):
        argv = ["search", "--generator", f"random_rational({total},0,9)", "--k", str(k),
                "--theorem", "equisix"]
        assert run_cli(argv) == 2
        assert "exceeds the cap 4000000000" in capsys.readouterr().err
    # Just under the cap the request reaches the scan.
    points = random_rational(305, seed=0, bound=9)
    assert scan_work(points, 301, theorem)[1] <= search.MAX_SCAN_WORK

    class Scanned(Exception):
        pass

    def scan(*args):
        raise Scanned

    monkeypatch.setattr(search, "exhaustive_scan", scan)
    with pytest.raises(Scanned):
        run_search(SearchSpec(points=points, k=301, theorem=theorem))


def test_exhaustive_cap_names_the_binomial_not_its_digits():
    # C(1000, 500) has 300 digits: the message names the binomial, not its value.
    with pytest.raises(ConfigError) as exc:
        SearchSpec(points=random_rational(1000, seed=0, bound=9), k=0,
                   theorem=BoundTheorem.EQUI_SIX)
    message = str(exc.value)
    assert message == "exhaustive search over C(1000, 500) colorings exceeds the cap 10000000"
    assert len(message) < 100


def test_local_budget_cap_bounds_the_colorings():
    # A local search examines budget + 1 colorings, so the budget cap alone
    # keeps it within the coloring cap, which only exhaustive specs check.
    assert search.MAX_LOCAL_BUDGET < search.MAX_COLORINGS
    spec = SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode="local",
                      budget=search.MAX_LOCAL_BUDGET)
    assert spec.coloring_count() <= search.MAX_COLORINGS


def test_local_budget_cap(monkeypatch):
    monkeypatch.setattr(search, "MAX_LOCAL_BUDGET", 10)
    spec = SearchSpec(
        points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode="local", budget=10
    )
    assert run_search(spec).colorings_examined == 11
    with pytest.raises(ConfigError) as exc:
        SearchSpec(points=spec.points, k=spec.k, theorem=spec.theorem, mode=spec.mode, budget=11)
    assert str(exc.value) == "local search budget exceeds the cap of 10 moves"


def test_search_checks_the_point_limit():
    # A spec built through the API meets the limit the CLI's inputs meet; the
    # local search holds its green slots as uint16 under it.
    pts = tuple(affine_point(i, i * i, d=-1) for i in range(MAX_POINTS + 1))
    with pytest.raises(ConfigError, match=f"{MAX_POINTS + 1} points exceed"):
        SearchSpec(points=pts, k=MAX_POINTS - 1, theorem=BoundTheorem.EQUI_SIX,
                   mode="local", budget=1)


@pytest.mark.parametrize("which", KERNEL_PARAMS)
def test_exhaustive_grid2_all_colorings(monkeypatch, which):
    use_kernels(monkeypatch, which)
    spec = SearchSpec(points=grid(2), k=0, theorem=BoundTheorem.EQUI_SIX)
    result = run_search(spec)
    assert result.colorings_examined == 6
    assert result.violations == 0
    assert not result.all_inapplicable
    assert result.best_report.actual == 4
    assert result.best_report.bound == 3
    assert result.best_colors.count(GREEN) == 2


@pytest.mark.parametrize("mode", ["exhaustive", "local"])
def test_exhaustive_near_pencil_inapplicable(monkeypatch, mode):
    # The gate fails for every coloring, so the search returns before any kernel.
    def kernel_called(*args):
        pytest.fail("a search kernel ran on an inapplicable base set")

    monkeypatch.setattr(search, "exhaustive_scan", kernel_called)
    monkeypatch.setattr(search, "descent_replay", kernel_called)
    spec = SearchSpec(points=near_pencil(5), k=1, theorem=BoundTheorem.EQUI_SIX, mode=mode)
    result = run_search(spec)
    assert result.all_inapplicable
    assert result.colorings_examined == 0
    assert result.best_colors is None and result.best_report is None


def test_exhaustive_grid3():
    spec = SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX)
    result = run_search(spec)
    assert result.colorings_examined == 126
    assert result.violations == 0


@pytest.mark.parametrize(
    "base,k,theorem",
    [
        (grid(2), 0, BoundTheorem.EQUI_SIX),
        (grid(2), 2, BoundTheorem.EQUI_FOUR),
        (random_rational(6, seed=2, bound=4), 0, BoundTheorem.EQUI_SIX),
        (random_rational(6, seed=5, bound=4), 2, BoundTheorem.EQUI_FOUR),
        (random_rational(7, seed=9, bound=3), 1, BoundTheorem.PS2),
        (random_rational(7, seed=4, bound=3), 1, BoundTheorem.PS1),
    ],
)
def test_kernels_match_brute_force_oracle(base, k, theorem):
    # Exact per-coloring recount through the profile path is the oracle.
    total = len(base)
    n_green = (total + k) // 2
    _, _, bound = verdict(theorem, n_green, k, enumerate_lines(base))
    oracle_best, oracle_combo, oracle_viol, oracle_count = brute_force_scan(
        base, n_green, THEOREMS[theorem].query, bound
    )
    spec = SearchSpec(points=base, k=k, theorem=theorem)
    for which in KERNELS:
        result = run_with_kernels(which, spec)
        if result.all_inapplicable:
            pytest.skip("precondition fails for this base/(n, k)")
        assert result.best_report.actual == oracle_best
        assert result.violations == oracle_viol
        assert result.colorings_examined == oracle_count
        greens = tuple(i for i, c in enumerate(result.best_colors) if c == GREEN)
        assert greens == oracle_combo


@pytest.mark.parametrize("which", KERNEL_PARAMS)
def test_local_budget_zero_returns_initial(monkeypatch, which):
    use_kernels(monkeypatch, which)
    spec = SearchSpec(
        points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode="local", seed=4, budget=0
    )
    result = run_search(spec)
    assert result.colorings_examined == 1
    assert result.violations == 0
    rng = np.random.Generator(np.random.PCG64(4))
    expected_green = np.sort(rng.permutation(9)[:5])
    greens = tuple(i for i, c in enumerate(result.best_colors) if c == GREEN)
    assert greens == tuple(int(g) for g in expected_green)


def test_local_descent_never_worse_than_initial():
    base = grid(4)
    spec = SearchSpec(
        points=base, k=0, theorem=BoundTheorem.EQUI_SIX, mode="local", seed=1, budget=10_000
    )
    initial = run_search(
        SearchSpec(points=base, k=0, theorem=BoundTheorem.EQUI_SIX, mode="local", seed=1, budget=0)
    )
    result = run_search(spec)
    assert result.best_report.slack <= initial.best_report.slack
    assert result.colorings_examined == 10_001


def test_local_two_seeds_both_satisfy():
    for seed in (1, 2):
        spec = SearchSpec(
            points=grid(4), k=0, theorem=BoundTheorem.EQUI_SIX, mode="local", seed=seed, budget=2000
        )
        result = run_search(spec)
        assert result.best_report.satisfied
        assert result.violations == 0


@pytest.mark.parametrize("total, k", [(9, 1), (25, 1), (18, 0), (12, 10), (9, 9)],
                         ids=["9-points", "25-points", "balanced", "one-red", "all-green"])
def test_seeded_moves_are_the_one_shot_draws(total, k):
    # numpy's draws in order: the permutation, one integers(size=budget)
    # call for the green slots, then one for the red slots; with no red
    # point there is no move to propose, and no draw below 0.
    points = grid(5)[:total]
    for seed in (0, 1, 7, 2**32 - 1):
        for budget in (0, 1, 4095, 4096, 4097, 9000):
            spec = SearchSpec(points=points, k=k, theorem=BoundTheorem.EQUI_SIX,
                              mode="local", seed=seed, budget=budget)
            rng = np.random.Generator(np.random.PCG64(seed))
            expected_initial = np.sort(rng.permutation(total)[: spec.n_green])
            n_red = total - spec.n_green
            moves = budget if n_red else 0
            expected = (
                rng.integers(0, spec.n_green, size=moves, dtype=np.int64),
                rng.integers(0, n_red, size=moves, dtype=np.int64) if n_red else np.empty(0),
            )
            initial, *slots = search._seeded_moves(spec)
            assert initial == expected_initial.tolist()
            for drawn, oracle in zip(slots, expected):
                assert drawn.typecode == "H" and len(drawn) == moves
                assert drawn.tolist() == oracle.tolist()
            if n_red == 1:
                assert not any(slots[1])


def test_the_replay_draws_nothing(monkeypatch):
    # Every move is drawn before the replay starts, so the replay's span
    # in a trace holds the replay alone.
    draws, replaying = [], []
    take = pcg64.PCG64._take

    def counting_take(self, count):
        draws.append(bool(replaying))
        return take(self, count)

    def replay(*args):
        replaying.append(True)
        try:
            return kernels.descent_replay(*args)
        finally:
            replaying.pop()

    monkeypatch.setattr(pcg64.PCG64, "_take", counting_take)
    monkeypatch.setattr(search, "descent_replay", replay)
    spec = SearchSpec(points=grid(5), k=1, theorem=BoundTheorem.EQUI_SIX, mode="local",
                      seed=3, budget=10_000)
    assert run_search(spec).colorings_examined == 10_001
    assert draws and not any(draws)


@pytest.mark.parametrize("path", PATHS)
def test_replay_reads_the_csr_across_line_block_edges(monkeypatch, path):
    # The replay reads the line CSR in blocks of _LINE_BLOCK lines: blocks of
    # 1 and 7 lines split it everywhere, on either path's buffers.
    use_path(monkeypatch, path)
    rng = random.Random(11)
    query = THEOREMS[BoundTheorem.EQUI_SIX].query
    for points in (grid(4), hesse(), support.random_config(14, max_total=40).points):
        base = enumerate_lines(points)
        sel = selection_table(base.size_counts, query)
        n = base.total_points
        n_green = n // 2 + 1
        moves = 300
        args = (sel, rng.sample(range(n), n_green),
                array("H", (rng.randrange(n_green) for _ in range(moves))),
                array("H", (rng.randrange(n - n_green) for _ in range(moves))), len(base), 2)
        expected = support.oracle_descent_replay(base, *args)
        for block in (1, 7):
            monkeypatch.setattr(kernels, "_LINE_BLOCK", block)
            assert kernels.descent_replay(base, *args) == expected


@pytest.mark.parametrize("seed", range(10))
def test_local_search_reports_match_the_benchmark_digests(seed, capsys):
    # The benchmark's search_local workload fails any report that is not
    # byte-identical to its recorded digest; a drifted move stream shows here.
    digests = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    recorded = json.loads(digests.read_text())[resolve_backend()]["search_local"][str(seed)]
    argv = ["search", "--generator", "grid(5)", "--k", "1", "--theorem", "equisix",
            "--mode", "local", "--budget", "100000", "--seed", str(seed), "--format", "json"]
    assert run_cli(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == recorded


def local_outcome(result):
    return (
        result.best_colors,
        result.best_report,
        result.colorings_examined,
        result.violations,
        result.all_inapplicable,
    )


def test_local_deterministic_and_backend_independent():
    cases = [
        (grid(4), 2, BoundTheorem.EQUI_FOUR, 11, 3000),
        (grid(4), 2, BoundTheorem.EQUI_FOUR, 11, 4097),
        (grid(5), 1, BoundTheorem.EQUI_SIX, 0, 4100),
        # About 90% of these proposals are accepted, so the kernel's gain
        # tables are updated on most moves.
        (random_rational(18, seed=1, bound=9), 0, BoundTheorem.EQUI_SIX, 0, 5000),
        (random_rational(18, seed=1, bound=9), 0, BoundTheorem.EQUI_SIX, 3, 3000),
    ]
    for base, k, theorem, seed, budget in cases:
        spec = SearchSpec(
            points=base, k=k, theorem=theorem, mode="local", seed=seed, budget=budget
        )
        results = [run_with_kernels(which, spec) for which in KERNELS]
        results.append(run_with_kernels(KERNELS[0], spec))
        first = local_outcome(results[0])
        for other in results[1:]:
            assert local_outcome(other) == first


@settings(max_examples=100, deadline=None)
@given(
    total=st.integers(2, 12),
    base_seed=st.integers(0, 10**6),
    bound=st.integers(4, 7),
    theorem=st.sampled_from(list(BoundTheorem)),
    k_index=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    budget=st.integers(0, 400),
)
def test_local_backends_agree(total, base_seed, bound, theorem, k_index, seed, budget):
    # The kernel's gain-table replay against the incremental reference
    # replay, on every valid k.
    ks = range(total % 2, total + 1, 2)
    spec = SearchSpec(
        points=random_rational(total, seed=base_seed, bound=bound),
        k=ks[k_index % len(ks)],
        theorem=theorem,
        mode="local",
        seed=seed,
        budget=budget,
    )
    oracle_result = run_with_kernels("oracle", spec)
    assert local_outcome(run_with_kernels("kernel", spec)) == local_outcome(oracle_result)


def test_exhaustive_backend_equivalence():
    for k, theorem in ((0, BoundTheorem.EQUI_SIX), (2, BoundTheorem.EQUI_FOUR)):
        spec = SearchSpec(points=grid(4), k=k, theorem=theorem)
        a = run_with_kernels("oracle", spec)
        b = run_with_kernels("kernel", spec)
        assert a.best_colors == b.best_colors
        assert a.best_report == b.best_report
        assert (a.colorings_examined, a.violations) == (b.colorings_examined, b.violations)


@pytest.mark.parametrize("points,k", [(grid(3), 1), (hesse(), 1)], ids=["grid3", "hesse"])
def test_exhaustive_scan_keeps_the_first_minimum_across_chunks(monkeypatch, points, k):
    # Chunks of one coloring each: a later chunk whose minimum only ties the
    # best so far must not take its place.
    monkeypatch.setattr(kernels, "_CHUNK_ELEMENTS", 64)
    base = enumerate_lines(points)
    csr = build_incidence(base)
    assert kernels._CHUNK_ELEMENTS // len(csr.points) <= 1
    n_green = (len(points) + k) // 2
    _, _, bound = verdict(BoundTheorem.EQUI_SIX, n_green, k, base)
    sel = selection_table(base.size_counts, THEOREMS[BoundTheorem.EQUI_SIX].query)
    args = (csr, sel, n_green, bound.numerator, bound.denominator)
    best, combo, violations, examined = exhaustive_scan(*args)
    oracle_best, oracle_combo, oracle_violations, oracle_examined = support.oracle_exhaustive_scan(*args)
    assert (best, violations, examined) == (oracle_best, oracle_violations, oracle_examined)
    assert combo == oracle_combo


def test_use_kernels_reaches_the_oracles(monkeypatch):
    # Under "oracle" each search runs its oracle exactly once, and under
    # "kernel" never; otherwise a kernel-versus-oracle test would compare
    # the kernel with itself.
    calls = []
    for name in ("oracle_exhaustive_scan", "oracle_descent_replay"):
        oracle = getattr(support, name)

        def counting(*args, name=name, oracle=oracle):
            calls.append(name)
            return oracle(*args)

        monkeypatch.setattr(support, name, counting)
    specs = [
        SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX),
        SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode="local", budget=50),
    ]
    for spec in specs:
        run_with_kernels("kernel", spec)
    assert calls == []
    use_kernels(monkeypatch, "oracle")
    run_search(specs[0])
    assert calls == ["oracle_exhaustive_scan"]
    run_search(specs[1])
    assert calls == ["oracle_exhaustive_scan", "oracle_descent_replay"]


def test_swap_moves_preserve_n_and_k():
    spec = SearchSpec(
        points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode="local", seed=7, budget=500
    )
    result = run_search(spec)
    assert result.best_colors.count(GREEN) == spec.n_green
    config = configuration(spec.points, result.best_colors, 5)
    assert config.n == spec.n_green and config.k == 1


def test_color_swap_symmetry_for_balanced_colorings():
    base = random_rational(8, seed=1, bound=4)
    greens = (0, 2, 4, 6)
    colors = tuple(GREEN if i in greens else "red" for i in range(8))
    flipped = tuple("red" if c == GREEN else GREEN for c in colors)
    incidence = enumerate_lines(base)
    p1 = compute_profile(incidence, colors)
    p2 = compute_profile(incidence, flipped)
    assert dict(p1.counts) == {(j, i): c for (i, j), c in p2.counts}
    for r, mp in ((1, 6), (2, 4), (1, None)):
        query = EquichromaticQuery(r, mp)
        assert count_equichromatic(p1, query) == count_equichromatic(p2, query)


def test_run_search_dispatch():
    spec = SearchSpec(points=grid(2), k=0, theorem=BoundTheorem.EQUI_SIX)
    assert run_search(spec).colorings_examined == 6
    spec_local = SearchSpec(
        points=grid(2), k=0, theorem=BoundTheorem.EQUI_SIX, mode="local", seed=0, budget=10
    )
    assert run_search(spec_local).colorings_examined == 11


def test_exhaustive_all_green_single_coloring():
    # k = N: every point green, exactly one coloring.
    spec = SearchSpec(points=grid(2), k=4, theorem=BoundTheorem.EQUI_SIX)
    result = run_search(spec)
    assert result.colorings_examined == 1
    assert result.best_colors == (GREEN,) * 4
    assert result.best_report.actual == 0  # no bichromatic lines


def test_local_search_runs_without_numpy(tmp_path):
    # Block and record every numpy import in a fresh interpreter: an
    # analysis and a local search of a base set on the pencil path must run,
    # reproduce the known answers, and never try to import numpy.  An
    # exhaustive search in a process that does not block numpy imports it.
    import subprocess
    import sys

    block = (
        "import sys\n"
        "from importlib.abc import MetaPathFinder\n"
        "attempts = []\n"
        "class Block(MetaPathFinder):\n"
        "    def find_spec(self, fullname, path, target=None):\n"
        "        if fullname == 'numpy' or fullname.startswith('numpy.'):\n"
        "            attempts.append(fullname)\n"
        "            raise ImportError('numpy blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
    )
    local = (
        "from equilines.bounds import BoundTheorem\n"
        "from equilines.generators import grid\n"
        "from equilines.points import GREEN, configuration\n"
        "from equilines.reports import analysis_document\n"
        "from equilines.search import SearchSpec, run_search\n"
        "points = grid(5)\n"
        "doc, ok = analysis_document(configuration(points, (GREEN,) * 25, points[0].d))\n"
        "assert ok and doc['summary']['total_lines'] == '140', doc['summary']\n"
        "spec = SearchSpec(points=grid(5), k=1, theorem=BoundTheorem.EQUI_SIX, mode='local',\n"
        "                  seed=3, budget=5000)\n"
        "result = run_search(spec)\n"
        "assert result.colorings_examined == 5001 and result.violations == 0\n"
        "assert result.best_report.satisfied\n"
    )
    exhaustive = (
        "from equilines.bounds import BoundTheorem\n"
        "from equilines.generators import grid\n"
        "from equilines.search import SearchSpec, run_search\n"
        "spec = SearchSpec(points=grid(2), k=0, theorem=BoundTheorem.EQUI_SIX)\n"
        "result = run_search(spec)\n"
        "assert result.colorings_examined == 6 and result.best_report.actual == 4\n"
        "assert 'numpy' in sys.modules\n"
    )
    # The environment as given (PYTHONDONTWRITEBYTECODE included), so the
    # child writes no bytecode into the source tree unless it is allowed to.
    env = {**os.environ, "PYTHONPATH": str(Path(equilines.__file__).parents[1])}
    for name, code in (("blocked", block + local + "assert attempts == [], attempts\n"),
                       ("exhaustive", "import sys\n" + exhaustive)):
        script = tmp_path / f"{name}.py"
        script.write_text(code + "print('ok')\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == "ok\n", name
