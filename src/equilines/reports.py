"""Configuration documents and report documents.

Configuration documents are JSON: {"d": int, "points": [{"coords":
[..2 or 3 elements..], "color": "green"|"red"}, ...]}.  Each element is
a string such as "1/2+sqrt(5)" or an integer.  Affine pairs are lifted
with z = 1.

Report documents are JSON with top-level sections "summary", "profile",
"identities", "inequalities", "bounds", "certificates", "search";
absent sections are omitted.  Every numeric value is an exact fraction
string; no floating point appears anywhere.  Key order and formatting
are fixed, so identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ConfigError

# Each function imports the modules it runs, so rendering a certificate
# loads neither the points nor numpy.
if TYPE_CHECKING:
    from .bounds import BoundReport
    from .geometry import Incidence
    from .inequalities import InequalityReport
    from .points import ColoredConfiguration, ProjPoint
    from .profiles import IdentityCheck
    from .proofcheck import SignCertificate
    from .search import SearchResult
    from .tables import LineProfile


def num(value: int | Fraction) -> str:
    """Exact decimal-free rendering: integers bare, fractions as p/q."""
    return str(value)


def _approx(value: int | Fraction) -> str:
    return f"{float(value):.6g}"


# ---------------------------------------------------------------------------
# configuration documents


def parse_config(text: str) -> ColoredConfiguration:
    """Parse and validate a configuration document."""
    from .points import COLORS, ColoredConfiguration, ProjPoint, check_key_bits, check_point_count
    from .quadfield import Discriminant, parse_element

    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too-deep nesting, huge ints
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("configuration document must be a JSON object")
    if "d" not in raw or "points" not in raw:
        raise ConfigError("configuration document needs fields 'd' and 'points'")
    if not isinstance(raw["d"], int) or isinstance(raw["d"], bool):
        raise ConfigError("field 'd' must be an integer")
    try:
        disc = Discriminant(raw["d"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    pts_raw = raw["points"]
    if not isinstance(pts_raw, list) or len(pts_raw) < 2:
        raise ConfigError("field 'points' must be a list of at least 2 points")
    check_point_count(len(pts_raw))
    points: list[ProjPoint] = []
    colors: list[str] = []
    for idx, entry in enumerate(pts_raw):
        coords = _coords(entry, idx)
        try:
            parsed = [parse_element(str(c), disc.d) for c in coords]
            if len(parsed) == 2:
                parsed.append(parse_element("1", disc.d))
            points.append(ProjPoint(*parsed))
            check_key_bits(points[-1].row)
        except (ConfigError, ValueError) as exc:  # ValueError: zero triple
            raise ConfigError(f"point {idx}: {exc}") from None
        colors.append(entry.get("color"))
        if colors[-1] not in COLORS:
            raise ConfigError(f"point {idx}: 'color' must be 'green' or 'red'")
    return ColoredConfiguration(disc, tuple(points), tuple(colors))


_JSON_TYPES = {bool: "boolean", float: "number", list: "array", dict: "object", type(None): "null"}


def _coords(entry, idx: int) -> list[str | int]:
    """The coordinates of one point entry, checked to be 2 or 3 strings or integers."""
    if not isinstance(entry, dict) or "coords" not in entry:
        raise ConfigError(f"point {idx}: expected an object with 'coords'")
    coords = entry["coords"]
    if not isinstance(coords, list) or len(coords) not in (2, 3):
        raise ConfigError(f"point {idx}: 'coords' must hold 2 or 3 elements")
    for c in coords:
        if type(c) not in (str, int):
            kind = _JSON_TYPES[type(c)]
            raise ConfigError(
                f"point {idx}: a coordinate is a JSON {kind}, not a string or an integer"
            )
    return coords


def config_document(
    points: tuple[ProjPoint, ...], colors: tuple[str, ...], d: int
) -> dict:
    """Emit a configuration document with canonical homogeneous coords."""
    from .quadfield import format_element

    return {
        "d": d,
        "points": [
            {
                "coords": [format_element(c) for c in p.coords],
                "color": color,
            }
            for p, color in zip(points, colors)
        ],
    }


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# report sections


def summary_section(config: ColoredConfiguration, incidence: Incidence) -> dict:
    return {
        "d": num(config.discriminant.d),
        "total_points": num(config.total),
        "green_points": num(config.n),
        "red_points": num(config.total - config.n),
        "k": num(config.k),
        "max_collinear": num(incidence.max_collinear),
        "total_lines": num(len(incidence)),
        "all_real": incidence.all_real,
        "colors_swapped": config.colors_swapped,
    }


def profile_section(incidence: Incidence, profile: LineProfile) -> dict:
    return {
        "cells": [
            {"greens": num(i), "reds": num(j), "lines": num(c)}
            for (i, j), c in profile.counts
        ],
        "size_marginals": [
            {"points": num(m), "lines": num(c)}
            for m, c in incidence.size_counts.items()
        ],
    }


def identities_section(checks: tuple[IdentityCheck, ...]) -> list[dict]:
    return [
        {"name": c.name, "lhs": num(c.lhs), "rhs": num(c.rhs), "passed": c.passed}
        for c in checks
    ]


def inequality_section(report: InequalityReport) -> dict:
    return {
        "kind": report.kind.value,
        "applicable": report.applicable,
        "precondition": report.precondition_detail,
        "lhs": num(report.lhs),
        "rhs": num(report.rhs),
        "slack": num(report.slack),
        "satisfied": report.satisfied,
    }


def bound_section(report: BoundReport) -> dict:
    doc = {
        "theorem": report.theorem.value,
        "applicable": report.applicable,
        "precondition": report.precondition_detail,
        "bound": num(report.bound),
        "bound_ceiling": num(report.bound_ceiling),
        "actual": num(report.actual),
        "slack": num(report.slack),
        "satisfied": report.satisfied,
    }
    if report.support_actual is not None:
        doc["support_actual"] = num(report.support_actual)
    return doc


def certificate_section(cert: SignCertificate) -> dict:
    return {
        "template": cert.template_name,
        "cells_checked": num(cert.cells_checked),
        "exceptional_cells": [
            {"greens": num(i), "reds": num(j), "coefficient": num(v)}
            for (i, j), v in cert.exceptional_cells
        ],
        "extreme_coefficient": num(cert.extreme_coefficient),
        "tail_threshold": num(cert.tail_threshold),
        "tail_certificate": cert.tail_certificate,
        "verified": True,
    }


def search_section(result: SearchResult) -> dict:
    from .kernels import resolve_backend

    doc = {
        "mode": result.spec.mode,
        "theorem": result.spec.theorem.value,
        "total_points": num(result.spec.total),
        "k": num(result.spec.k),
        "n_green": num(result.spec.n_green),
        "seed": num(result.spec.seed),
        "backend": resolve_backend(),
        "colorings_examined": num(result.colorings_examined),
        "violations": num(result.violations),
        "all_inapplicable": result.all_inapplicable,
        "precondition": result.precondition_detail,
    }
    if result.best_colors is not None:
        doc["best_coloring"] = result.best_bits
        doc["best_report"] = bound_section(result.best_report)
    return doc


# ---------------------------------------------------------------------------
# whole documents


def analysis_document(config: ColoredConfiguration) -> tuple[dict, bool]:
    """Full report for one configuration plus an all-checks-passed flag: its
    lines are enumerated once, and every section reads that incidence."""
    from .bounds import evaluate_all_bounds
    from .geometry import enumerate_lines
    from .inequalities import evaluate_all
    from .profiles import compute_profile

    incidence = enumerate_lines(config.points)
    profile = compute_profile(incidence, config.colors)
    ineqs = evaluate_all(incidence)
    bnds = evaluate_all_bounds(incidence, profile)
    doc = {
        "summary": summary_section(config, incidence),
        "profile": profile_section(incidence, profile),
        "identities": identities_section(profile.identities),
        "inequalities": [inequality_section(r) for r in ineqs],
        "bounds": [bound_section(r) for r in bnds],
    }
    ok = all(r.satisfied is not False for r in (*ineqs, *bnds))
    return doc, ok


# ---------------------------------------------------------------------------
# text rendering


def render_text(doc: dict, decimal: bool = False) -> str:
    """Human-oriented rendering of a report document (not stability-
    guaranteed; JSON is the stable format)."""
    out = [f"file: {doc['file']}"] if "file" in doc else []
    if "summary" in doc:
        s = doc["summary"]
        out.append(
            f"configuration: N={s['total_points']} "
            f"(green {s['green_points']}, red {s['red_points']}, k={s['k']}) "
            f"over Q(sqrt({s['d']}))"
        )
        out.append(
            f"  max collinear {s['max_collinear']}, total lines {s['total_lines']}, "
            f"all_real={s['all_real']}, colors_swapped={s['colors_swapped']}"
        )
    if "profile" in doc:
        cells = ", ".join(
            f"t[{c['greens']},{c['reds']}]={c['lines']}" for c in doc["profile"]["cells"]
        )
        out.append(f"profile: {cells}")
    if "identities" in doc:
        for c in doc["identities"]:
            mark = "ok" if c["passed"] else "FAIL"
            out.append(f"identity {c['name']}: {c['lhs']} = {c['rhs']} [{mark}]")
    if "inequalities" in doc:
        for r in doc["inequalities"]:
            out.append(_render_check("inequality", r["kind"], r, decimal))
    if "bounds" in doc:
        for r in doc["bounds"]:
            line = _render_check("bound", r["theorem"], r, decimal)
            if "support_actual" in r:
                line += f" (support cells {r['support_actual']})"
            out.append(line)
    if "certificates" in doc:
        for c in doc["certificates"]:
            out.append(
                f"certificate {c['template']}: {c['cells_checked']} cells checked, "
                f"verified={c['verified']}"
            )
            for cell in c["exceptional_cells"]:
                out.append(
                    f"  alpha[{cell['greens']},{cell['reds']}] = {cell['coefficient']}"
                )
            out.append(f"  tail: {c['tail_certificate']}")
    if "search" in doc:
        s = doc["search"]
        out.append(
            f"search {s['mode']} / {s['theorem']}: N={s['total_points']}, k={s['k']}, "
            f"examined {s['colorings_examined']}, violations {s['violations']}, "
            f"backend {s['backend']}"
        )
        if s["all_inapplicable"]:
            out.append(f"  every coloring inapplicable: {s['precondition']}")
        else:
            out.append(f"  best coloring {s['best_coloring']}")
            out.append("  " + _render_check("bound", s["best_report"]["theorem"], s["best_report"], decimal))
    return "\n".join(out) + "\n"


def _render_check(label: str, name: str, r: dict, decimal: bool) -> str:
    if label == "inequality":
        body = f"lhs {r['lhs']} vs rhs {r['rhs']}"
    else:
        body = f"actual {r['actual']} vs bound {_fmt_frac(r['bound'], decimal)}"
    if not r["applicable"]:
        status = f"inapplicable ({r['precondition']})"
    else:
        status = "satisfied" if r["satisfied"] else "VIOLATED"
    slack = _fmt_frac(r["slack"], decimal)
    return f"{label} {name}: {body}, slack {slack} [{status}]"


def _fmt_frac(s: str, decimal: bool) -> str:
    if decimal and "/" in s:
        return f"{s} (approx {_approx(Fraction(s))})"
    return s
