"""Untrusted configs and CLI arguments end in exit 0, 1 or 2 with a message,
within a time bound, and never in a traceback."""

import json
import time

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from equilines.cli import run_cli
from equilines.errors import EquilinesError
from equilines.points import ColoredConfiguration
from equilines.reports import parse_config

SECONDS = 5.0

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
element_text = st.sampled_from(
    ["0", "1", "-3", "1/2", "2/0", "sqrt(5)", "1+sqrt(5)", "-1/3*sqrt(5)", "sqrt(-3)", "x", "", "1e5",
     # Past the key-size limit, past int()'s digit limit, and a wide
     # numeral that cancels to 1.
     "9" * 59, "1" * 60, "1" * 5000, "1" + "0" * 59 + "/" + "1" + "0" * 59]
) | st.text(alphabet="0123456789/+-*sqrt() ", max_size=10)
rational = st.integers(-6, 6) | st.integers(-6, 6).map(str) | st.sampled_from(["1/2", "-2/3"])
coordinate = rational | element_text | json_scalars
valid_points = st.lists(
    st.fixed_dictionaries(
        {"coords": st.lists(rational, min_size=2, max_size=2), "color": st.sampled_from(["green", "red"])}
    ),
    min_size=2,
    max_size=8,
)
points = valid_points | st.lists(
    st.fixed_dictionaries(
        {
            "coords": st.lists(coordinate, min_size=1, max_size=4),
            "color": st.sampled_from(["green", "red", "blue"]) | json_scalars,
        }
    ),
    max_size=7,
)
documents = st.fixed_dictionaries(
    {"d": st.sampled_from([5, -3, -1, 2, 4, 0, 1, 10**13]) | json_scalars, "points": points}
)
documents = documents | st.fixed_dictionaries({"d": st.sampled_from([5, -1]), "points": valid_points}
)
config_texts = (
    documents.map(json.dumps)
    | json_values.map(json.dumps)
    | st.text(max_size=30)
)


@given(config_texts)
@example("[" * 100_000)
@example('{"d": 5, "points": [' + "1" * 5000 + "]}")
@settings(max_examples=300, deadline=None)
def test_parse_config_fuzz(text):
    start = time.perf_counter()
    try:
        config = parse_config(text)
    except EquilinesError as exc:
        event("rejected")
        assert str(exc)
    else:
        event("parsed")
        assert isinstance(config, ColoredConfiguration)
    assert time.perf_counter() - start < SECONDS


generator_specs = st.one_of(
    st.tuples(st.just("grid"), st.integers(-1, 40)).map(lambda a: f"{a[0]}({a[1]})"),
    st.tuples(st.just("near_pencil"), st.integers(-1, 1200)).map(lambda a: f"{a[0]}({a[1]})"),
    st.tuples(st.integers(-1, 1200), st.integers(-2, 5), st.integers(-1, 20)).map(
        lambda a: f"random_rational({a[0]},{a[1]},{a[2]})"
    ),
    st.sampled_from(["hesse", "hesse(1)", "grid", "warp(3)", "grid(a)", ""]),
)
search_specs = st.one_of(
    st.integers(1, 4).map(lambda m: f"grid({m})"),
    st.integers(2, 8).map(lambda n: f"near_pencil({n})"),
    st.tuples(st.integers(1, 10), st.integers(0, 3), st.integers(1, 5)).map(
        lambda a: f"random_rational({a[0]},{a[1]},{a[2]})"
    ),
    st.just("hesse"),
)
theorems = st.sampled_from(["ps1", "ps2", "ps3", "ps4", "equisix", "equifour", "bogus"])
formats = st.sampled_from([[], ["--format", "json"], ["--decimal"], ["--format", "xml"]])


@st.composite
def argvs(draw, path):
    command = draw(st.sampled_from(["analyze", "verify", "bounds", "search", "proofcheck", "generate"]))
    if command == "analyze":
        argv = ["analyze", path]
    elif command == "verify":
        argv = ["verify", path, "--inequality", draw(st.sampled_from(["melchior", "langer", "hirzebruch-quadratic", "bogus"]))]
    elif command == "bounds":
        argv = ["bounds", path, "--theorem", draw(theorems)]
    elif command == "generate":
        argv = ["generate", "--name", draw(generator_specs)]
    elif command == "proofcheck":
        # --window is gone, so a stray one must be a usage error (exit 2).
        window = draw(st.none() | st.integers(-5, 60))
        argv = ["proofcheck", "--theorem", draw(theorems)]
        argv += [] if window is None else ["--window", str(window)]
    else:
        argv = [
            "search",
            "--generator", draw(search_specs),
            "--k", draw(st.sampled_from(["-1", "0", "1", "2", "3", "4", "13"])),
            "--theorem", draw(theorems),
            "--mode", draw(st.sampled_from(["exhaustive", "local", "bogus"])),
            "--seed", draw(st.sampled_from(["-1", "0", "7"])),
            "--budget", draw(st.sampled_from(["-1", "0", "1", "300", "2000", "10000000", str(10**15)])),
        ]
    return argv + draw(formats)


@given(st.data(), documents.map(json.dumps) | config_texts)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_run_cli_fuzz(tmp_path, capsys, data, text):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    argv = data.draw(argvs(str(path)))
    start = time.perf_counter()
    try:
        code = run_cli(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code)
    if "--window" in argv:
        assert code == 2, (argv, code)
    assert (err if code == 2 else out).strip(), (argv, code)
    assert elapsed < SECONDS, (argv, elapsed)
