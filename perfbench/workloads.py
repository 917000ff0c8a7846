"""Seeded workloads for the equilines benchmark and the checks on their output.

Inputs come from this file's own stdlib RNG seeded with the workload seed,
never from `equilines.generators` or `equilines.reports`, so a change to
the program cannot change what it is fed.  The search workloads pass a
generator spec to the CLI, as a user would; their base sets are fetched
once through `equilines generate` for the output checks.

Every check recomputes what it can from the reported numbers in this
file's own code, so a wrong report fails the run even when the program's
own cross-checks agree with it.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Callable

WORKLOADS = ("analyze_large", "analyze_small_batch", "search_exhaustive", "search_local")

# Input sizes.  TINY is for the smoke test.
FULL = {"random_points": 200, "grid_side": 14, "nonreal_points": 120,
        "small_configs": 300, "exhaustive_points": 22, "local_budget": 100_000}
TINY = {"random_points": 24, "grid_side": 4, "nonreal_points": 12,
        "small_configs": 8, "exhaustive_points": 12, "local_budget": 2000}


class CheckError(Exception):
    """The program's output is wrong or malformed."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Work:
    """Units of work in one CLI run, used for the throughput metrics."""

    configs: int
    lines: int
    colorings: int


@dataclass
class Job:
    """One workload at one seed: the CLI arguments and the output check."""

    name: str
    argv: list[str]
    input_digest: str
    check: Callable[[str], Work]
    base_spec: str | None = None  # search: generator spec of the base set
    base_points: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# analyze inputs


def _element(a: Fraction, b: Fraction, d: int) -> str:
    if b == 0:
        return str(a)
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}*sqrt({d})"


def _colored(rng: random.Random, d: int, coords: list[list[str]]) -> dict:
    return {
        "d": d,
        "points": [
            {"coords": c, "color": rng.choice(("green", "red"))} for c in coords
        ],
    }


def _random_rational(rng: random.Random, total: int, num: int, den: int) -> list[list[str]]:
    """Distinct affine rational points, coordinates p/q with |p| <= num, q <= den."""
    seen: set[tuple[Fraction, Fraction]] = set()
    while len(seen) < total:
        x = Fraction(rng.randint(-num, num), rng.randint(1, den))
        y = Fraction(rng.randint(-num, num), rng.randint(1, den))
        seen.add((x, y))
    return [[str(x), str(y)] for x, y in sorted(seen)]


def _random_nonreal(rng: random.Random, total: int, d: int) -> list[list[str]]:
    """Distinct affine points over Q(sqrt(d)), each with a nonzero sqrt(d) part."""
    def part(num: int, den: int) -> Fraction:
        return Fraction(rng.randint(-num, num), rng.randint(1, den))

    seen: set[tuple[Fraction, ...]] = set()
    while len(seen) < total:
        xa, xb, ya, yb = part(6, 3), part(3, 2), part(6, 3), part(3, 2)
        if xb or yb:
            seen.add((xa, xb, ya, yb))
    return [[_element(xa, xb, d), _element(ya, yb, d)] for xa, xb, ya, yb in sorted(seen)]


def _small_config(rng: random.Random, d: int, total: int) -> dict:
    """Shaped like the test suite's random configurations: coordinates a/b
    with |a| <= 4, b <= 2, a sqrt(d) part on 30% of coordinates and 10% of
    points at infinity."""

    def coord() -> tuple[Fraction, Fraction]:
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        b = Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0)
        return a, b

    seen: set[tuple] = set()
    coords: list[list[str]] = []
    while len(coords) < total:
        if rng.random() < 0.1:
            key = (coord(), None)
            text = [_element(*key[0], d), "1", "0"]
        else:
            key = (coord(), coord())
            text = [_element(*key[0], d), _element(*key[1], d)]
        if key not in seen:
            seen.add(key)
            coords.append(text)
    return _colored(rng, d, coords)


def analyze_configs(name: str, seed: int, tiny: bool) -> list[dict]:
    rng = random.Random(f"{name}:{seed}")
    size = TINY if tiny else FULL
    if name == "analyze_large":
        side = size["grid_side"]
        grid = [[str(x), str(y)] for x in range(side) for y in range(side)]
        return [
            _colored(rng, 5, _random_rational(rng, size["random_points"], 30, 4)),
            _colored(rng, 5, grid),
            _colored(rng, -3, _random_nonreal(rng, size["nonreal_points"], -3)),
        ]
    # Every (d, N) pair for d in {-3, -1, 2, 5} and N in 6..20 comes equally
    # often, so the amount of work does not depend on the seed.
    shapes = [(d, total) for total in range(6, 21) for d in (-3, -1, 2, 5)]
    return [_small_config(rng, *shapes[i % len(shapes)]) for i in range(size["small_configs"])]


# ---------------------------------------------------------------------------
# analyze checks


def split_documents(text: str) -> list[dict]:
    """The CLI writes one JSON document per config, back to back."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def _check_analysis(doc: dict, config: dict) -> int:
    """Recheck one analysis report against its input; returns its line count."""
    s = doc["summary"]
    total = len(config["points"])
    greens = sum(p["color"] == "green" for p in config["points"])
    n, red = max(greens, total - greens), min(greens, total - greens)
    k = n - red
    real = config["d"] > 0 or all("sqrt" not in c for p in config["points"] for c in p["coords"])
    expect(int(s["total_points"]) == total, "total_points differs from the input")
    expect((int(s["green_points"]), int(s["red_points"]), int(s["k"])) == (n, red, k),
           "green/red/k differ from the input")
    expect(s["all_real"] is real, "all_real differs from the input")

    cells = [(int(c["greens"]), int(c["reds"]), int(c["lines"])) for c in doc["profile"]["cells"]]
    sizes: dict[int, int] = {}
    for i, j, t in cells:
        expect(t > 0 and i + j >= 2, f"impossible profile cell {(i, j, t)}")
        sizes[i + j] = sizes.get(i + j, 0) + t
    reported_sizes = {int(m["points"]): int(m["lines"]) for m in doc["profile"]["size_marginals"]}
    expect(reported_sizes == sizes, "size marginals disagree with the cells")
    lines = sum(sizes.values())
    expect(int(s["total_lines"]) == lines, "total_lines disagrees with the cells")
    expect(int(s["max_collinear"]) == max(sizes), "max_collinear disagrees with the cells")
    expect(sum(comb(m, 2) * t for m, t in sizes.items()) == comb(total, 2),
           "sum C(m,2) t_m != C(N,2)")

    ours = {
        "mixed_pairs": (sum(i * j * t for i, j, t in cells), n * (n - k)),
        "same_color_pairs": (
            sum((comb(i, 2) + comb(j, 2)) * t for i, j, t in cells),
            comb(n, 2) + comb(n - k, 2),
        ),
        "incidence_balance": (
            sum((i + j) * t for i, j, t in cells) - sum((i - j) ** 2 * t for i, j, t in cells),
            2 * n - (k * k + k),
        ),
    }
    for name, (lhs, rhs) in ours.items():
        expect(lhs == rhs, f"counting identity {name} fails on the reported cells")
    reported = {c["name"]: (int(c["lhs"]), int(c["rhs"]), c["passed"]) for c in doc["identities"]}
    expect(reported == {name: (lhs, rhs, True) for name, (lhs, rhs) in ours.items()},
           "reported identities differ from the recomputed ones")
    return lines


def _analyze_job(name: str, seed: int, tiny: bool, workdir: Path, root: Path) -> Job:
    configs = analyze_configs(name, seed, tiny)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths, digest = [], hashlib.sha256()
    for idx, config in enumerate(configs):
        text = json.dumps(config)
        path = workdir / f"c{idx:03d}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(path.relative_to(root).as_posix())
        digest.update(text.encode())

    def check(stdout: str) -> Work:
        docs = split_documents(stdout)
        expect(len(docs) == len(configs), f"{len(docs)} reports for {len(configs)} configs")
        lines = 0
        for doc, config, path in zip(docs, configs, paths):
            expect(doc.get("file") == path, "reports are out of order")
            lines += _check_analysis(doc, config)
        return Work(configs=len(configs), lines=lines, colorings=len(configs))

    argv = ["analyze", *paths, "--format", "json"]
    return Job(name, argv, digest.hexdigest(), check)


# ---------------------------------------------------------------------------
# search workloads


# theorem -> (balance tolerance r, max points per line, bound as a function of n, k)
_THEOREMS = {
    "equifour": (2, 4, lambda n, k: Fraction(10 * n - k * (k + 5), 6)),
    "equisix": (1, 6, lambda n, k: Fraction(6 * n - k * (k + 3), 4)),
}


def _parse_rational_point(coords: list[str]) -> tuple[Fraction, ...]:
    expect(all("sqrt" not in c for c in coords), "search base sets here are rational")
    return tuple(Fraction(c) for c in coords)


def rational_lines(points: list[tuple[Fraction, ...]]) -> list[tuple[int, ...]]:
    """Point-index sets of the determined lines of projective rational points."""
    groups: dict[tuple[int, ...], set[int]] = {}
    for i, (x1, y1, z1) in enumerate(points):
        for j in range(i + 1, len(points)):
            x2, y2, z2 = points[j]
            line = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
            expect(any(line), f"points {i} and {j} coincide")
            scale = 1
            for v in line:
                scale = scale * v.denominator // gcd(scale, v.denominator)
            ints = [int(v * scale) for v in line]
            g = gcd(*ints)
            sign = 1 if next(v for v in ints if v) > 0 else -1
            key = tuple(sign * v // g for v in ints)
            groups.setdefault(key, set()).update((i, j))
    return [tuple(sorted(s)) for s in groups.values()]


def search_spec(name: str, seed: int, tiny: bool) -> tuple[list[str], str, int, int | None]:
    """CLI arguments, base-set spec, k and budget (None when exhaustive)."""
    size = TINY if tiny else FULL
    if name == "search_exhaustive":
        spec = f"random_rational({size['exhaustive_points']},{seed},9)"
        argv = ["search", "--generator", spec, "--k", "0", "--theorem", "equifour"]
        return argv, spec, 0, None
    budget = size["local_budget"]
    spec = "grid(5)"
    argv = ["search", "--generator", spec, "--k", "1", "--theorem", "equisix",
            "--mode", "local", "--budget", str(budget), "--seed", str(seed)]
    return argv, spec, 1, budget


def _search_job(name: str, seed: int, tiny: bool) -> Job:
    argv, spec, k, budget = search_spec(name, seed, tiny)
    theorem = argv[argv.index("--theorem") + 1]
    r, max_points, bound_of = _THEOREMS[theorem]
    job = Job(name, [*argv, "--format", "json"],
              hashlib.sha256(json.dumps(argv).encode()).hexdigest(), None, spec)

    def check(stdout: str) -> Work:
        expect(bool(job.base_points), "base set was not loaded")
        points = [_parse_rational_point(p["coords"]) for p in job.base_points]
        lines = rational_lines(points)
        total = len(points)
        n = (total + k) // 2
        (doc,) = split_documents(stdout)
        s = doc["search"]
        expect((int(s["total_points"]), int(s["n_green"]), int(s["k"])) == (total, n, k),
               "search reports the wrong N, n or k")
        expect(int(s["violations"]) == 0, "search reports a bound violation")
        examined = int(s["colorings_examined"])
        if budget is None:
            expect(examined == comb(total, n), "exhaustive search skipped colorings")
        else:
            expect(examined == budget + 1, "local search did not examine budget + 1 colorings")
        bits = s["best_coloring"]
        expect(len(bits) == total and bits.count("1") == n, "malformed best coloring")
        selected = 0
        for members in lines:
            g = sum(bits[p] == "1" for p in members)
            m = len(members)
            selected += abs(2 * g - m) <= r and m <= max_points
        best = s["best_report"]
        expect(int(best["actual"]) == selected, "best coloring's count differs from a recount")
        expect(Fraction(best["bound"]) == bound_of(n, k), "wrong bound value")
        expect(best["applicable"] is True and best["satisfied"] is True,
               "best coloring is not an applicable, satisfied instance")
        return Work(configs=1, lines=len(lines), colorings=examined)

    job.check = check
    return job


def make_job(name: str, seed: int, tiny: bool, workdir: Path, root: Path) -> Job:
    if name.startswith("analyze"):
        return _analyze_job(name, seed, tiny, workdir, root)
    return _search_job(name, seed, tiny)
