"""Deterministic and seeded generators for base point sets.

All generators return canonical projective points over one quadratic
field.  The rational families use d = 5 (any positive squarefree d
works; rational coordinates are real regardless).  The Hesse
configuration needs a primitive cube root of unity and therefore fixes
d = -3.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import gcd

from .errors import ConfigError
from .geometry import ProjPoint, affine_point
from .quadfield import quad

DEFAULT_RATIONAL_D = 5
HESSE_D = -3
# Analysis and search key every pair of points exactly, so generator
# specs and config files are untrusted input whose size must be bounded
# before any point is built.
MAX_POINTS = 1000


def check_point_count(total: int) -> None:
    if total > MAX_POINTS:
        raise ConfigError(f"{total} points exceed the limit of {MAX_POINTS}")


def grid(m: int, d: int = DEFAULT_RATIONAL_D) -> tuple[ProjPoint, ...]:
    """The m x m affine integer grid."""
    if m < 1:
        raise ValueError("grid size must be >= 1")
    check_point_count(m * m)
    return tuple(
        affine_point(x, y, d=d) for x in range(m) for y in range(m)
    )


def near_pencil(total: int, d: int = DEFAULT_RATIONAL_D) -> tuple[ProjPoint, ...]:
    """total - 1 collinear points on y = 0 plus the single point (0, 1)."""
    if total < 3:
        raise ValueError("a near-pencil needs at least 3 points")
    check_point_count(total)
    pts = [affine_point(x, 0, d=d) for x in range(total - 1)]
    pts.append(affine_point(0, 1, d=d))
    return tuple(pts)


def hesse() -> tuple[ProjPoint, ...]:
    """The nine-point configuration with twelve 3-point lines over Q(sqrt(-3)).

    Realizable over C but not over R; the standard complex-only test case.
    """
    d = HESSE_D
    omega = quad(Fraction(-1, 2), Fraction(1, 2), d=d)  # primitive cube root of 1
    eta_values = (quad(1, d=d), omega, omega * omega)
    z, o = quad(0, d=d), quad(1, d=d)
    pts: list[ProjPoint] = []
    for eta in eta_values:
        pts.append(ProjPoint(z, o, -eta))
    for eta in eta_values:
        pts.append(ProjPoint(o, z, -eta))
    for eta in eta_values:
        pts.append(ProjPoint(o, -eta, z))
    return tuple(pts)


def random_rational(
    total: int, seed: int, bound: int, d: int = DEFAULT_RATIONAL_D
) -> tuple[ProjPoint, ...]:
    """total distinct affine points with rational coordinates whose
    numerators and denominators are bounded by the given bound; seeded."""
    if total < 1:
        raise ValueError("need at least 1 point")
    check_point_count(total)
    if bound < 1:
        raise ValueError("coordinate bound must be >= 1")
    # random.Random folds a negative seed to its absolute value.
    if seed < 0:
        raise ValueError("seed must be >= 0")
    # The integers -bound..bound alone give (2*bound+1)**2 points, so the
    # exact count runs only when total is above that, i.e. for small bounds.
    if total > (2 * bound + 1) ** 2:
        values = 1 + 2 * sum(
            gcd(p, q) == 1 for p in range(1, bound + 1) for q in range(1, bound + 1)
        )
        if total > values**2:
            raise ValueError(
                f"only {values**2} distinct points have coordinates p/q with "
                f"|p| <= {bound} and 1 <= q <= {bound}, fewer than {total}"
            )
    rng = random.Random(seed)

    def coord() -> Fraction:
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    pts: list[ProjPoint] = []
    seen: set[ProjPoint] = set()
    while len(pts) < total:
        p = affine_point(coord(), coord(), d=d)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return tuple(pts)


_SPEC_RE = re.compile(r"^(?P<name>[a-z_]+)(?:\((?P<args>[^)]*)\))?$")


def generate(spec: str) -> tuple[ProjPoint, ...]:
    """Build a point set from a spec string.

    Accepted forms: "grid(m)", "near_pencil(N)", "hesse",
    "random_rational(N,seed,B)".
    """
    m = _SPEC_RE.match(spec.strip().replace(" ", ""))
    if not m:
        raise ConfigError(f"cannot parse generator spec {spec!r}")
    name = m.group("name")
    raw_args = m.group("args")
    try:
        args = [int(a) for a in raw_args.split(",")] if raw_args else []
    except ValueError:
        raise ConfigError(f"generator arguments must be integers: {spec!r}") from None
    try:
        if name == "grid":
            (size,) = args
            return grid(size)
        if name == "near_pencil":
            (total,) = args
            return near_pencil(total)
        if name == "hesse":
            if args:
                raise ConfigError("hesse takes no arguments")
            return hesse()
        if name == "random_rational":
            total, seed, bound = args
            return random_rational(total, seed, bound)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad arguments in generator spec {spec!r}: {exc}") from None
    raise ConfigError(f"unknown generator {name!r}")
