"""Command-line surface.

Subcommands: analyze, verify, bounds, search, proofcheck, generate.
``verify`` and ``bounds`` print the summary and one entry of the analysis
that ``analyze`` prints.  Exit codes: 0 = every evaluated check passed or
was inapplicable, 1 = some check came back unsatisfied (or a certified
claim was refuted, or an internal cross-check failed), 2 = input or usage
error (a ConfigError or a ValueError).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ClaimRefutedError, ConfigError, InternalInconsistencyError
from .reports import (
    analysis_document,
    certificate_section,
    config_document,
    dump_json,
    parse_config,
    render_text,
    search_section,
)
from .tables import TEMPLATES, BoundTheorem, InequalityKind


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--decimal",
        action="store_true",
        help="append approximate decimals in text output (display only)",
    )
    parser = argparse.ArgumentParser(
        prog="equilines",
        description="Exact analyzer for two-colored point configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="full report for config files")
    p.add_argument("files", nargs="+", metavar="FILE")

    p = sub.add_parser("verify", parents=[common], help="evaluate one inequality")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--inequality", required=True, choices=sorted(k.value for k in InequalityKind))

    p = sub.add_parser("bounds", parents=[common], help="evaluate one bound theorem")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--theorem", required=True, choices=sorted(th.value for th in BoundTheorem))

    p = sub.add_parser("search", parents=[common], help="search colorings of a base set")
    p.add_argument("--generator", required=True, metavar="SPEC")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--theorem", required=True, choices=sorted(th.value for th in BoundTheorem))
    p.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    p.add_argument("--seed", type=int, help="seed of the moves (local mode only)")
    p.add_argument("--budget", type=int, help="moves to propose (local mode only)")

    p = sub.add_parser("proofcheck", parents=[common], help="certify coefficient claims")
    p.add_argument("--theorem", required=True, choices=[th.value for th in TEMPLATES])

    # generate writes a config document, always JSON.
    p = sub.add_parser("generate", help="emit a config document")
    p.add_argument("--name", required=True, metavar="SPEC")
    return parser


def _emit(doc: dict, fmt: str, decimal: bool) -> None:
    if fmt == "json":
        sys.stdout.write(dump_json(doc))
    else:
        sys.stdout.write(render_text(doc, decimal))


def _shown(path: str) -> str:
    """The path as error lines name it: its first and last 60 characters if long."""
    return path if len(path) <= 160 else f"{path[:60]}...{path[-60:]}"


def _load_config(args, path: str):
    """Parse the config at path; args keeps it for the reproducer."""
    p, shown = Path(path), _shown(path)
    try:
        # Checked first: reading a FIFO would block.
        if not p.is_file():
            raise ConfigError(f"not a file: {shown}" if p.exists() else f"no such file: {shown}")
        text = p.read_text(encoding="utf-8")
    except OSError as exc:  # a name too long, a file we may not read
        raise ConfigError(f"cannot read {shown}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{shown} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        args.in_flight = parse_config(text)
    except ConfigError as exc:  # among several files, name the one at fault
        raise ConfigError(f"{shown}: {exc}") from None
    return args.in_flight


def _cmd_analyze(args) -> int:
    worst = 0
    multi = len(args.files) > 1
    for path in args.files:
        config = _load_config(args, path)
        doc, ok = analysis_document(config)
        if multi:
            doc = {"file": path, **doc}
        _emit(doc, args.format, args.decimal)
        if not ok:
            worst = 1
    return worst


def _print_slice(args, section: str, key: str, name: str) -> int:
    """Print the summary and the entry of section whose key is name, both
    taken from the file's analysis; exit 1 iff that entry is unsatisfied."""
    doc, _ = analysis_document(_load_config(args, args.file))
    entry = next(e for e in doc[section] if e[key] == name)
    _emit({"summary": doc["summary"], section: [entry]}, args.format, args.decimal)
    return 1 if entry["satisfied"] is False else 0


def _cmd_verify(args) -> int:
    return _print_slice(args, "inequalities", "kind", args.inequality)


def _cmd_bounds(args) -> int:
    return _print_slice(args, "bounds", "theorem", args.theorem)


def _cmd_search(args) -> int:
    # The options given, else SearchSpec's defaults: they steer only the moves.
    local = {k: v for k, v in (("seed", args.seed), ("budget", args.budget)) if v is not None}
    if local and args.mode != "local":
        raise ConfigError(f"--{next(iter(local))} applies only to --mode local")
    from .search import SearchSpec, run_search
    from .generators import generate

    spec = SearchSpec(
        points=generate(args.generator),
        k=args.k,
        theorem=BoundTheorem(args.theorem),
        mode=args.mode,
        **local,
    )
    result = run_search(spec)
    _emit({"search": search_section(result)}, args.format, args.decimal)
    return 1 if result.bound_violated else 0


def _cmd_proofcheck(args) -> int:
    from .proofcheck import verify_sign_claim

    try:
        cert = verify_sign_claim(BoundTheorem(args.theorem))
    except ClaimRefutedError as exc:
        sys.stdout.write(f"claim refuted: {exc}\n")
        return 1
    _emit({"certificates": [certificate_section(cert)]}, args.format, args.decimal)
    return 0


def _cmd_generate(args) -> int:
    from .generators import generate
    from .points import GREEN

    points = generate(args.name)
    colors = tuple(GREEN for _ in points)
    doc = config_document(points, colors, points[0].d)
    sys.stdout.write(dump_json(doc))
    return 0


def _reproducer(args, argv: list[str]) -> str:
    """The config in flight as one JSON line, else (search) the command."""
    config = getattr(args, "in_flight", None)
    if config is None:
        import shlex

        return shlex.join(["equilines", *argv])
    return json.dumps(config_document(config.points, config.colors, config.discriminant.d))


_COMMANDS = {
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
    "proofcheck": _cmd_proofcheck,
    "generate": _cmd_generate,
}


def run_cli(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"error: internal inconsistency: {exc}\n")
        sys.stderr.write(f"reproduce: {_reproducer(args, argv)}\n")
        return 1
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
