import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from support import KERNELS, run_with_kernels

import equilines
from equilines.bounds import BoundTheorem
from equilines import profiles, search
from equilines.cli import _build_parser, run_cli
from equilines.errors import ConfigError
from equilines.generators import generate, hesse
from equilines.geometry import _is_prime
from equilines.kernels import resolve_backend
from equilines.points import GREEN, MAX_KEY_BITS, MAX_POINTS, RED, check_key_bits, configuration
from equilines.tables import IDENTITIES, Identity
from equilines.reports import (
    analysis_document,
    config_document,
    dump_json,
    parse_config,
    search_section,
)
from equilines.search import SearchSpec


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_json(doc), encoding="utf-8")
    return str(path)


def cli_env():
    return {
        **os.environ,
        "PYTHONPATH": str(Path(equilines.__file__).parents[1]),
        "OPENBLAS_NUM_THREADS": "1",
    }


def square_doc():
    return {
        "d": -1,
        "points": [
            {"coords": ["0", "0"], "color": "green"},
            {"coords": ["1", "1"], "color": "green"},
            {"coords": ["1", "0"], "color": "red"},
            {"coords": ["0", "1"], "color": "red"},
        ],
    }


def test_parse_config_minimal():
    doc = {
        "d": -1,
        "points": [
            {"coords": ["0", "0"], "color": "green"},
            {"coords": ["1", "1"], "color": "red"},
        ],
    }
    config = parse_config(dump_json(doc))
    assert config.total == 2 and config.n == 1 and config.k == 0


def test_parse_config_rejects_duplicates():
    doc = {
        "d": -1,
        "points": [
            {"coords": ["0", "0"], "color": "green"},
            {"coords": ["0", "0"], "color": "red"},
        ],
    }
    from equilines.errors import DuplicatePointError

    with pytest.raises(DuplicatePointError) as exc:
        parse_config(dump_json(doc))
    assert exc.value.indices == (0, 1)


def test_parse_config_errors():
    cases = [
        "not json",
        "[1, 2]",
        '{"points": []}',
        '{"d": 4, "points": [{"coords": ["0","0"], "color": "green"}, {"coords": ["1","0"], "color": "red"}]}',
        '{"d": 5, "points": [{"coords": ["0"], "color": "green"}, {"coords": ["1","0"], "color": "red"}]}',
        '{"d": 5, "points": [{"coords": ["0","0"], "color": "blue"}, {"coords": ["1","0"], "color": "red"}]}',
        '{"d": 5, "points": [{"coords": ["0","0","0"], "color": "green"}, {"coords": ["1","0"], "color": "red"}]}',
    ]
    for text in cases:
        with pytest.raises(ConfigError):
            parse_config(text)


def test_parse_config_coordinate_types():
    def doc(coord):
        points = [{"coords": ["0", "0"], "color": "green"}, {"coords": ["1", coord], "color": "red"}]
        return json.dumps({"d": 5, "points": points})

    assert parse_config(doc(3)).points == parse_config(doc("3")).points
    for value, kind in ((True, "boolean"), (1.5, "number"), (None, "null"), ([1], "array"), ({}, "object")):
        with pytest.raises(ConfigError, match=f"point 1: a coordinate is a JSON {kind}"):
            parse_config(doc(value))


def test_generate_parse_round_trip():
    for spec in ("grid(3)", "near_pencil(5)", "hesse", "random_rational(8,3,5)"):
        pts = generate(spec)
        doc = config_document(pts, (GREEN,) * len(pts), pts[0].d)
        config = parse_config(dump_json(doc))
        assert config.points == pts


def test_majority_convention_notice():
    doc = {
        "d": 5,
        "points": [
            {"coords": ["0", "0"], "color": "red"},
            {"coords": ["1", "0"], "color": "red"},
            {"coords": ["0", "1"], "color": "green"},
        ],
    }
    config = parse_config(dump_json(doc))
    assert config.colors_swapped and config.n == 2


def test_analysis_document_stable_bytes():
    config = configuration(hesse(), (GREEN,) * 9, -3)
    doc1, ok1 = analysis_document(config)
    doc2, ok2 = analysis_document(config)
    assert ok1 and ok2
    assert dump_json(doc1) == dump_json(doc2)


def test_cli_analyze_text_and_json(tmp_path, capsys):
    path = write_config(tmp_path, "square.json", square_doc())
    assert run_cli(["analyze", path]) == 0
    text_out = capsys.readouterr().out
    assert "bound equisix" in text_out and "satisfied" in text_out

    assert run_cli(["analyze", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["analyze", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical reports
    doc = json.loads(first)
    assert set(doc) == {"summary", "profile", "identities", "inequalities", "bounds"}
    assert doc["summary"]["total_points"] == "4"
    equi_four = [b for b in doc["bounds"] if b["theorem"] == "equifour"][0]
    assert equi_four["bound"] == "10/3" and equi_four["actual"] == "6"


def test_cli_analyze_hesse(tmp_path, capsys):
    pts = hesse()
    path = write_config(
        tmp_path, "hesse.json", config_document(pts, (GREEN,) * 9, -3)
    )
    assert run_cli(["analyze", path, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    melchior = [r for r in doc["inequalities"] if r["kind"] == "melchior"][0]
    assert melchior["applicable"] is False and melchior["lhs"] == "0"
    bp = [r for r in doc["inequalities"] if r["kind"] == "bojanowski-pokora"][0]
    assert bp["slack"] == "0" and bp["satisfied"] is True


def test_cli_analyze_multiple_files(tmp_path, capsys):
    p1 = write_config(tmp_path, "a.json", square_doc())
    p2 = write_config(tmp_path, "b.json", square_doc())
    assert run_cli(["analyze", p1, p2, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count('"file"') == 2


def test_cli_missing_file(tmp_path, capsys):
    assert run_cli(["verify", "missing.json", "--inequality", "melchior"]) == 2
    assert capsys.readouterr().err == "error: no such file: missing.json\n"
    assert run_cli(["analyze", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: not a file: {tmp_path}\n"


def test_cli_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    assert run_cli(["analyze", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    # Among several files, the one that cannot be parsed or decoded is named.
    good = write_config(tmp_path, "square.json", square_doc())
    assert run_cli(["analyze", good, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: invalid JSON: Expecting property name enclosed in double quotes:"
        " line 1 column 2 (char 1)\n"
    )
    twice = square_doc()
    twice["points"][1] = twice["points"][0]
    duplicate = write_config(tmp_path, "duplicate.json", twice)
    for argv in (["analyze", good, duplicate], ["verify", duplicate, "--inequality", "melchior"],
                 ["bounds", duplicate, "--theorem", "equisix"]):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"error: {duplicate}: points 0 and 1 coincide at (0 : 0 : 1)\n"
    path.write_bytes(b"\xff{}")
    assert run_cli(["analyze", good, str(path), "--format", "json"]) == 2
    assert capsys.readouterr().err == f"error: {path} is not UTF-8: invalid start byte at byte 0\n"


def test_cli_rejects_huge_discriminant_quickly(tmp_path, capsys):
    path = write_config(tmp_path, "huge_d.json", {**square_doc(), "d": 10**14 + 31})
    start = time.perf_counter()
    assert run_cli(["analyze", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert "discriminant" in capsys.readouterr().err


def test_cli_verify(tmp_path, capsys):
    path = write_config(tmp_path, "square.json", square_doc())
    assert run_cli(["verify", path, "--inequality", "melchior"]) == 0
    out = capsys.readouterr().out
    assert "melchior" in out


def test_cli_bounds(tmp_path, capsys):
    path = write_config(tmp_path, "square.json", square_doc())
    assert run_cli(["bounds", path, "--theorem", "equisix", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"][0]["actual"] == "4"
    assert doc["bounds"][0]["slack"] == "1"


def test_cli_proofcheck(capsys):
    assert run_cli(["proofcheck", "--theorem", "equisix"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out
    assert run_cli(["proofcheck", "--theorem", "equifour", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["certificates"][0]["exceptional_cells"]) == 6


def test_cli_proofcheck_takes_no_window(capsys):
    # The tail threshold is derived, so there is no window to choose.
    with pytest.raises(SystemExit) as exc:
        run_cli(["proofcheck", "--theorem", "equisix", "--window", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --window 8" in capsys.readouterr().err


def test_readme_cli_block_matches_parser():
    # Each synopsis line in README's CLI block documents exactly the flags
    # of its subcommand, apart from the options every subcommand shares.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    shared = {"-h", "--help", "--format", "--decimal"}
    documented = {
        line.split()[1]: set(re.findall(r"--[a-z-]+", line)) - shared
        for line in block.splitlines()
    }
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert documented == {
        name: {o for a in sub._actions for o in a.option_strings} - shared
        for name, sub in subparsers.choices.items()
    }


def test_cli_search(capsys):
    code = run_cli(
        [
            "search",
            "--generator",
            "grid(3)",
            "--k",
            "1",
            "--theorem",
            "equisix",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["search"]["colorings_examined"] == "126"
    assert doc["search"]["violations"] == "0"
    assert len(doc["search"]["best_coloring"]) == 9


def test_cli_search_local(capsys):
    code = run_cli(
        [
            "search",
            "--generator",
            "grid(4)",
            "--k",
            "0",
            "--theorem",
            "equifour",
            "--mode",
            "local",
            "--seed",
            "3",
            "--budget",
            "500",
        ]
    )
    assert code == 0
    assert "best coloring" in capsys.readouterr().out


def test_cli_search_kernel_matches_reference():
    # The kernel and the reference algorithm give the same search report.
    spec = SearchSpec(points=generate("grid(2)"), k=0, theorem=BoundTheorem.EQUI_SIX)
    docs = {}
    for which in KERNELS:
        docs[which] = search_section(run_with_kernels(which, spec))
        assert docs[which].pop("backend") == resolve_backend()
    assert docs["oracle"] == docs["kernel"]


def test_cli_search_recount_mismatch_exits_one(monkeypatch, capsys):
    # A kernel that miscounts is caught by the exact recount of the winner:
    # an internal error (exit 1) that names the winner, not a usage error.
    scan = search.exhaustive_scan

    def miscounting_scan(*args):
        best_actual, best, violations, examined = scan(*args)
        return best_actual + 1, best, violations, examined

    monkeypatch.setattr(search, "exhaustive_scan", miscounting_scan)
    code = run_cli(["search", "--generator", "grid(3)", "--k", "1", "--theorem", "equisix"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: internal inconsistency: ")
    assert "exact recount" in err
    assert "green points [0, 1, 4, 5, 6]" in err
    assert err.endswith(
        "\nreproduce: equilines search --generator 'grid(3)' --k 1 --theorem equisix\n"
    )


def test_cli_analyze_failed_identity_exits_one(tmp_path, monkeypatch, capsys):
    row = IDENTITIES["mixed_pairs"]
    monkeypatch.setitem(
        IDENTITIES, "mixed_pairs", Identity(row.terms, lambda n, k: row.rhs(n, k) + 1)
    )
    path = write_config(tmp_path, "square.json", square_doc())
    assert run_cli(["analyze", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: internal inconsistency: ")
    # The reproducer is the config in flight, not a file that may be gone.
    reproducer = err.splitlines()[-1].removeprefix("reproduce: ")
    assert parse_config(reproducer) == parse_config(dump_json(square_doc()))


@pytest.mark.parametrize(
    "command, options",
    [("analyze", []), ("verify", ["--inequality", "langer"]),
     ("bounds", ["--theorem", "equifour"])],
    ids=["analyze", "verify", "bounds"],
)
def test_cli_internal_inconsistency_prints_the_config_in_flight(
    tmp_path, monkeypatch, capsys, command, options
):
    # A tampered identity check, as in test_profiles, that fails only the
    # Hesse configuration (n = 5): analyze reads the square first.
    real, fake = profiles.verify_identities, profiles.IdentityReport(
        (profiles.IdentityCheck("mixed_pairs", 0, 1),)
    )
    monkeypatch.setattr(profiles, "verify_identities", lambda p: fake if p.n == 5 else real(p))
    doc = config_document(hesse(), ("green", "red") * 4 + ("green",), -3)
    path = write_config(tmp_path, "hesse.json", doc)
    files = [write_config(tmp_path, "square.json", square_doc())] if command == "analyze" else []
    assert run_cli([command, *files, path, *options]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("error: internal inconsistency: ")
    assert err[1].startswith("reproduce: {")
    assert parse_config(err[1].removeprefix("reproduce: ")) == parse_config(dump_json(doc))


def test_cli_search_parity_error(capsys):
    code = run_cli(
        ["search", "--generator", "grid(3)", "--k", "0", "--theorem", "equisix"]
    )
    assert code == 2


def test_cli_rejects_infeasible_random_rational_quickly(capsys):
    # Bound 1 allows only 9 distinct points; asking for 10 used to loop forever.
    spec = "random_rational(10,0,1)"
    for argv in (
        ["generate", "--name", spec],
        ["search", "--generator", spec, "--k", "0", "--theorem", "equisix"],
    ):
        start = time.perf_counter()
        assert run_cli(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "distinct points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["search", "--generator", "grid(3)", "--k", "1", "--theorem", "equisix",
          "--mode", "local", "--budget", "1000000000"], "cap 10000000"),
        (["generate", "--name", "grid(400)"], f"limit of {MAX_POINTS}"),
        (["search", "--generator", "random_rational(5000,0,9)", "--k", "0",
          "--theorem", "equisix"], f"limit of {MAX_POINTS}"),
        # C(36, 18) = 9,075,135,300 colorings: rejected before any work.
        (["search", "--generator", "grid(6)", "--k", "0", "--theorem", "equisix"],
         "cap 10000000"),
        # Within the coloring cap, but about two minutes of plateau moves.
        (["search", "--generator", "random_rational(18,1,9)", "--k", "0", "--theorem",
          "equisix", "--mode", "local", "--budget", "9999999"], "budget cap 1000000"),
    ],
    ids=["local-budget", "generate-points", "search-points", "exhaustive-colorings",
         "local-moves"],
)
def test_cli_rejects_oversized_requests_quickly(argv, limit, capsys):
    start = time.perf_counter()
    assert run_cli(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert limit in capsys.readouterr().err


def test_cli_local_cap_names_a_huge_count_briefly(capsys):
    # budget + 1 = 10^300 colorings: named by its power of ten, not its 301 digits.
    argv = ["search", "--generator", "grid(3)", "--k", "1", "--theorem", "equisix",
            "--mode", "local", "--budget", "9" * 300]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200, err
    assert "local search over about 10^300 colorings exceeds the cap 10000000" in err


def test_cli_rejects_coordinates_above_key_limit_quickly(tmp_path, capsys):
    # 200 points with 1000-digit coordinates: a 1.2 MB config whose
    # Python-int pair keying would run for minutes.
    spec = f"random_rational(200,0,{'9' * 1000})"
    assert run_cli(["generate", "--name", spec]) == 0
    path = tmp_path / "wide.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    for argv in (
        ["analyze", str(path)],
        ["search", "--generator", spec, "--k", "0", "--theorem", "equisix",
         "--mode", "local", "--budget", "1"],
    ):
        start = time.perf_counter()
        assert run_cli(argv) == 2
        assert time.perf_counter() - start < 5.0
        assert f"the limit is {MAX_KEY_BITS}" in capsys.readouterr().err


def test_cli_rejects_oversized_coordinate_at_its_point(tmp_path, capsys):
    # An 8 MB config of 1000 points with two 4000-digit coordinates each:
    # the first point already needs more than MAX_KEY_BITS bits.
    doc = {
        "d": 5,
        "points": [
            {"coords": ["1" + str(i).zfill(3999), "2" + str(i).zfill(3999)], "color": "green"}
            for i in range(1000)
        ],
    }
    path = write_config(tmp_path, "wide.json", doc)
    start = time.perf_counter()
    assert run_cli(["analyze", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: point 0: a coordinate needs ")
    assert f"the limit is {MAX_KEY_BITS}" in err


def test_key_bits_limit_is_exact():
    # A component of MAX_KEY_BITS bits is accepted and one of a bit more
    # rejected, both directly and as a coordinate of a parsed config.
    edge = 2**MAX_KEY_BITS
    assert check_key_bits([3, -(edge - 1)]) == edge - 1
    message = f"needs {MAX_KEY_BITS + 1} bits; the limit is {MAX_KEY_BITS}"
    for row in ([edge], [1, -edge]):
        with pytest.raises(ConfigError, match=message):
            check_key_bits(row)

    def doc(x):
        return dump_json({"d": 5, "points": [{"coords": [str(x), "0"], "color": "green"},
                                             {"coords": ["0", "0"], "color": "red"}]})

    assert parse_config(doc(edge - 1)).points[0].row == (edge - 1, 0, 0, 0, 1, 0)
    with pytest.raises(ConfigError, match=f"^point 0: a coordinate {message}$"):
        parse_config(doc(edge))


@pytest.mark.parametrize(
    "coordinate", ["1" * 5000, "1/" + "1" * 5000, "1+" + "1" * 5000 + "*sqrt(5)"],
    ids=["numerator", "denominator", "sqrt-coefficient"],
)
def test_cli_rejects_5000_digit_coordinates_quickly(tmp_path, coordinate, capsys):
    doc = {
        "d": 5,
        "points": [{"coords": [coordinate, "0"], "color": "green"},
                   {"coords": ["0", "0"], "color": "red"}],
    }
    path = write_config(tmp_path, "digits.json", doc)
    start = time.perf_counter()
    assert run_cli(["analyze", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: point 0: ")
    assert "4300" in err and "set_int_max_str_digits" not in err
    assert len(err) - len(path) < 200


def test_cli_rejects_config_above_point_limit_quickly(tmp_path, capsys):
    # Valid distinct points, so only the count can reject the document.
    doc = {
        "d": 5,
        "points": [
            {"coords": [str(x), str(x * x)], "color": "green"} for x in range(MAX_POINTS + 1)
        ],
    }
    path = write_config(tmp_path, "big.json", doc)
    start = time.perf_counter()
    assert run_cli(["analyze", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"limit of {MAX_POINTS}" in capsys.readouterr().err


def test_cli_runs_as_module():
    env = {**os.environ, "PYTHONPATH": str(Path(equilines.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "equilines.cli", "generate", "--name", "grid(2)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_config(proc.stdout).points == generate("grid(2)")


# Starts the CLI with argv[2:] and writes its exit code, wall time and
# ru_maxrss to argv[1].  A child's ru_maxrss counts the memory of the
# process it was forked from (the kernel folds it in at exec), so the CLI
# is started from this small launcher and not from the test process.
LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "equilines.cli", *sys.argv[2:]])
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as f:
    f.write(f"{os.waitstatus_to_exitcode(status)} {wall} {usage.ru_maxrss}")
"""


def cli_process(tmp_path, argv):
    """Run `equilines argv` in its own process: (report, wall time in s,
    peak RSS in MB); the run must exit 0."""
    out_path, err_path, usage_path = tmp_path / "out", tmp_path / "err", tmp_path / "usage"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        subprocess.run([sys.executable, "-c", LAUNCHER, str(usage_path), *argv],
                       stdout=out, stderr=err, env=cli_env(), check=True, timeout=120)
    code, wall, peak_kb = usage_path.read_text().split()
    assert code == "0", err_path.read_text()
    return out_path.read_text(), float(wall), int(peak_kb) / 1024  # kilobytes on Linux


def test_cli_exhaustive_search_stays_small_at_400_points(tmp_path):
    # 400 colorings of a 400-point base set with about 60,000 lines: the scan
    # must not hold a lines-by-points matrix, nor one per coloring chunk.
    argv = ["search", "--generator", "random_rational(400,0,9)", "--k", "398",
            "--theorem", "equisix", "--format", "json"]
    report, _, peak_mb = cli_process(tmp_path, argv)
    assert json.loads(report)["search"]["colorings_examined"] == "400"
    assert peak_mb < 400, f"peak RSS {peak_mb:.0f} MB"


@pytest.mark.parametrize(
    "generator, k, budget, limit_mb",
    [
        # The moves are drawn in blocks, never as budget-long arrays (51.6 MB
        # when they were), save the green slots' 2 bytes a move; with
        # numpy.random loaded it peaked at 36.4 MB, without it at 33.1 MB.
        ("grid(5)", "1", 1_000_000, 35),
        # 381,767 lines: the replay's Python state is built once from the
        # line CSR, with no transpose and no list of the whole CSR (192 MB
        # when it kept them).
        ("random_rational(1000,0,9)", "0", 10, 140),
    ],
    ids=["grid5-budget-1000000", "n1000-budget-10"],
)
def test_cli_local_search_stays_small(tmp_path, generator, k, budget, limit_mb):
    argv = ["search", "--generator", generator, "--k", k, "--theorem", "equisix",
            "--mode", "local", "--budget", str(budget), "--format", "json"]
    report, _, peak_mb = cli_process(tmp_path, argv)
    assert json.loads(report)["search"]["colorings_examined"] == str(budget + 1)
    assert peak_mb < limit_mb, f"peak RSS {peak_mb:.1f} MB"


def run_cli_loading(argv, code):
    """Lines that run the CLI on argv in-process and check its exit code."""
    return [
        "from equilines.cli import run_cli",
        "try:",
        f"    code = run_cli({argv!r})",
        "except SystemExit as exc:",
        "    code = exc.code",
        f"assert code == {code}, code",
    ]


SQUARE = "square.json"  # written into the subprocess's working directory
# The modules that import no numpy: none may load it.
EXACT_MODULES = ("errors quadfield points tables bounds inequalities proofcheck generators reports "
                 "geometry pencil profiles")


@pytest.mark.parametrize(
    "lines, unloaded",
    [
        (["import equilines"], {"numpy"}),
        (["import equilines.cli"], {"numpy"}),
        (["import equilines." + m for m in EXACT_MODULES.split()], {"numpy"}),
        (run_cli_loading(["--help"], 0), {"numpy"}),
        (run_cli_loading(["bounds", "x.json", "--theorem", "nonsense"], 2), {"numpy"}),
        (run_cli_loading(["proofcheck", "--theorem", "equisix"], 0), {"numpy"}),
        (run_cli_loading(["proofcheck", "--theorem", "equifour"], 0), {"numpy"}),
        (run_cli_loading(["generate", "--name", "grid(3)"], 0), {"numpy"}),
        # At or below the crossover the lines are enumerated by pencils and
        # tallied in Python ints.
        (run_cli_loading(["analyze", SQUARE], 0),
         {"numpy", "equilines.sort", "equilines.kernels", "equilines.search",
          "equilines.pcg64", "equilines.proofcheck"}),
        (run_cli_loading(["verify", SQUARE, "--inequality", "langer"], 0),
         {"numpy", "equilines.sort", "equilines.kernels", "equilines.search",
          "equilines.pcg64", "equilines.proofcheck"}),
        (run_cli_loading(["bounds", SQUARE, "--theorem", "equisix"], 0),
         {"numpy", "equilines.sort", "equilines.kernels", "equilines.search",
          "equilines.pcg64", "equilines.proofcheck"}),
        # A search loads numpy anyway, so it enumerates by sorting; the local
        # search's moves come from equilines.pcg64, not numpy.random.
        (run_cli_loading(["search", "--generator", "grid(3)", "--k", "1", "--theorem",
                          "equisix"], 0),
         {"equilines.proofcheck", "equilines.pencil", "numpy.random"}),
        (run_cli_loading(["search", "--generator", "grid(3)", "--k", "1", "--theorem",
                          "equisix", "--mode", "local", "--budget", "5000"], 0),
         {"equilines.proofcheck", "equilines.pencil", "numpy.random"}),
    ],
    ids=["import-package", "import-cli", "import-exact-modules", "help", "usage-error",
         "proofcheck-equisix", "proofcheck-equifour", "generate", "analyze", "verify", "bounds",
         "search", "search-local"],
)
def test_each_subcommand_imports_only_what_it_runs(tmp_path, lines, unloaded):
    write_config(tmp_path, SQUARE, square_doc())
    code = "\n".join(["import sys", *lines, "print(*sorted(sys.modules))"])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(), cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "equilines" in loaded
    assert not unloaded & loaded


@pytest.mark.parametrize(
    "argv",
    [["proofcheck", "--theorem", "equisix"], ["generate", "--name", "grid(5)"]],
    ids=["proofcheck", "generate"],
)
def test_cli_exact_subcommands_start_small(tmp_path, argv):
    # Without numpy these processes peak near 15 MB; with it, about 29 MB.
    _, _, peak_mb = cli_process(tmp_path, argv)
    assert peak_mb < 22, f"peak RSS {peak_mb:.1f} MB"


def test_cli_analyze_below_the_crossover_starts_small(tmp_path):
    # 200 points take the pencil path and load no numpy: about 18 MB here,
    # against 31 MB when the sort path and its arrays ran.
    pts = generate("random_rational(200,0,9)")
    colors = tuple(GREEN if i % 3 else RED for i in range(200))
    path = write_config(tmp_path, "n200.json", config_document(pts, colors, pts[0].d))
    report, _, peak_mb = cli_process(tmp_path, ["analyze", path, "--format", "json"])
    assert json.loads(report)["summary"]["total_points"] == "200"
    assert peak_mb < 24, f"peak RSS {peak_mb:.1f} MB"


def test_cli_analyze_and_local_search_leave_numpy_ma_unimported(tmp_path):
    # Plain np.unique imports numpy.ma, which costs each process memory and time.
    pts = generate("grid(4)")
    path = write_config(tmp_path, "grid.json", config_document(pts, (GREEN,) * 16, pts[0].d))
    code = "\n".join([
        "import sys",
        "from equilines.cli import run_cli",
        f"assert run_cli(['analyze', {path!r}]) == 0",
        "assert run_cli(['search', '--generator', 'grid(4)', '--k', '0', '--theorem',"
        " 'equisix', '--mode', 'local', '--budget', '500']) == 0",
        "assert run_cli(['search', '--generator', 'grid(4)', '--k', '2', '--theorem',"
        " 'equisix']) == 0",
        "print('numpy.ma' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_analyze_at_the_point_limit_is_fast_and_small(tmp_path):
    # 1000 points and 381,767 lines: one int64 key a point pair, int32
    # line arrays, and no per-line Python object.
    pts = generate("random_rational(1000,0,9)")
    path = write_config(tmp_path, "n1000.json", config_document(pts, (GREEN,) * 1000, pts[0].d))
    report, wall, peak_mb = cli_process(tmp_path, ["analyze", path])
    assert "total lines 381767" in report
    assert wall < 3.0, f"wall time {wall:.2f} s"
    assert peak_mb < 75, f"peak RSS {peak_mb:.0f} MB"


def test_cli_analyze_wide_coordinates_is_fast(tmp_path):
    # 1000 points over Q(sqrt(5)) whose coordinates have 5-digit numerators
    # and denominators: the keys are residues mod a prime whatever the size.
    rng = random.Random(7)
    coords = set()
    while len(coords) < 1000:
        coords.add(tuple(
            f"{rng.choice((-1, 1)) * rng.randint(10000, 99999)}/{rng.randint(10000, 99999)}"
            for _ in range(2)
        ))
    doc = {"d": 5, "points": [{"coords": list(c), "color": "green"} for c in sorted(coords)]}
    report, wall, peak_mb = cli_process(tmp_path, ["analyze", write_config(tmp_path, "wide.json", doc)])
    assert "N=1000" in report
    assert wall < 2.0, f"wall time {wall:.2f} s"
    assert peak_mb < 75, f"peak RSS {peak_mb:.0f} MB"


def primes_below(limit, count):
    """The `count` largest primes below `limit`, descending."""
    primes = []
    n = limit - 1
    while len(primes) < count:
        if _is_prime(n):
            primes.append(n)
        n -= 1
    return primes


def test_cli_analyze_in_bounded_time_when_lines_merge_mod_many_primes(tmp_path):
    # Vertical lines x = c_k through two points each, where c_k - c_0 is a
    # product of six of the 500 largest primes below 2^30: modulo each of
    # those primes some of the lines merge, while the points, whose y are
    # distinct and small, stay apart, so no cheap check of the points
    # rejects the prime.  Tried in that fixed order, each prime would cost
    # a full pass; drawn at random, they are almost never met.
    primes = primes_below(2**30, 500)
    offsets = [0] + [math.prod(primes[(7 * k + s) % 500] for s in range(6)) for k in range(1, 500)]
    assert all(c.bit_length() <= MAX_KEY_BITS for c in offsets)
    assert {q for q in primes if any(c % q == 0 for c in offsets[1:])} == set(primes)
    doc = {
        "d": 5,
        "points": [
            {"coords": [str(c), str(2 * k + dy)], "color": "green"}
            for k, c in enumerate(offsets) for dy in (1, 2)
        ],
    }
    report, wall, _ = cli_process(tmp_path, ["analyze", write_config(tmp_path, "pencil.json", doc)])
    assert "max collinear 2, total lines 499500" in report
    assert wall < 3.0, f"wall time {wall:.2f} s"


def test_cli_generate_round_trip(capsys):
    assert run_cli(["generate", "--name", "hesse"]) == 0
    out = capsys.readouterr().out
    config = parse_config(out)
    assert config.points == hesse()
    assert config.total == 9


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bounds", "x.json", "--theorem", "nonsense"])
    assert exc.value.code == 2


def test_cli_exit_one_on_failed_check(tmp_path, monkeypatch, capsys):
    import equilines.cli as cli_mod

    path = write_config(tmp_path, "square.json", square_doc())
    real = cli_mod.analysis_document
    monkeypatch.setattr(cli_mod, "analysis_document", lambda cfg: (real(cfg)[0], False))
    assert run_cli(["analyze", path]) == 1


def test_cli_decimal_flag(tmp_path, capsys):
    path = write_config(tmp_path, "square.json", square_doc())
    assert run_cli(["bounds", path, "--theorem", "equifour", "--decimal"]) == 0
    out = capsys.readouterr().out
    assert "approx" in out and "10/3" in out


def test_cli_analyze_with_point_at_infinity(tmp_path, capsys):
    doc = {
        "d": 2,
        "points": [
            {"coords": ["0", "0"], "color": "green"},
            {"coords": ["1", "1"], "color": "green"},
            {"coords": ["1", "1", "0"], "color": "red"},  # direction of y = x
            {"coords": ["2", "sqrt(2)"], "color": "red"},
        ],
    }
    path = write_config(tmp_path, "inf.json", doc)
    assert run_cli(["analyze", path, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(c["passed"] for c in out["identities"])
    # (0,0), (1,1) and the infinite point of slope 1 are collinear
    assert out["summary"]["max_collinear"] == "3"
    assert out["summary"]["all_real"] is True
