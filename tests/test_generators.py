import pytest

from support import line_tuples

from equilines.cli import run_cli
from equilines.errors import ConfigError
from equilines.generators import generate, grid, hesse, near_pencil, random_rational
from equilines.geometry import enumerate_lines
from equilines.points import GREEN, MAX_POINTS, configuration


def test_grid():
    pts = grid(2)
    assert len(pts) == 4
    config = configuration(pts, (GREEN,) * 4, 5)
    assert config.incidence.max_collinear == 2
    assert len(grid(3)) == 9


def test_near_pencil():
    pts = near_pencil(5)
    config = configuration(pts, (GREEN,) * 5, 5)
    assert config.incidence.max_collinear == 4
    assert len(enumerate_lines(pts)) == 5  # one long line + 4 two-point lines


def test_hesse():
    pts = hesse()
    assert len(pts) == 9
    lines = enumerate_lines(pts)
    assert len(lines) == 12
    assert all(len(line) == 3 for line in line_tuples(lines))
    assert pts[0].d == -3


def test_random_rational():
    pts = random_rational(8, seed=3, bound=5)
    assert len(pts) == len(set(pts)) == 8
    for p in pts:
        x, y, z = p.coords
        assert not z.is_zero  # affine by construction
        for c in (x / z, y / z):  # original coords, pre-canonicalization
            assert c.b == 0
            assert abs(c.a.numerator) <= 5 and c.a.denominator <= 5
    assert random_rational(8, seed=3, bound=5) == pts  # deterministic
    assert random_rational(8, seed=4, bound=5) != pts


def test_generate_specs():
    assert generate("grid(3)") == grid(3)
    assert generate("near_pencil(6)") == near_pencil(6)
    assert generate("hesse") == hesse()
    assert generate("random_rational(8, 3, 5)") == random_rational(8, 3, 5)


def test_generate_rejects_bad_specs():
    for bad in ("", "grid", "grid(a)", "grid(2,3)", "hesse(1)", "warp(3)", "grid(0)"):
        with pytest.raises(ConfigError):
            generate(bad)


def test_generate_rejects_a_wrong_number_of_arguments(capsys):
    # The builders take only the spec's arguments: no spec chooses the field.
    for spec, message in (
        ("grid(4,4)", "grid() takes 1 positional argument but 2 were given"),
        ("random_rational(8,3,5,7)", "random_rational() takes 3 positional arguments but 4 were given"),
        ("hesse(1)", "hesse() takes 0 positional arguments but 1 was given"),
        ("near_pencil", "near_pencil() missing 1 required positional argument: 'total'"),
    ):
        with pytest.raises(ConfigError) as exc:
            generate(spec)
        assert str(exc.value) == f"bad arguments in generator spec {spec!r}: {message}"
    assert run_cli(["generate", "--name", "grid(4,4)"]) == 2
    assert capsys.readouterr().err.startswith("error: bad arguments in generator spec 'grid(4,4)'")


def test_generate_refuses_fewer_than_two_points(capsys):
    # Every other subcommand refuses a one-point set, so generate must not
    # write one: the builders accept grid(1) and random_rational(1, ...).
    for spec in ("grid(1)", "random_rational(1,0,9)"):
        with pytest.raises(ConfigError, match="needs at least 2$"):
            generate(spec)
        assert run_cli(["generate", "--name", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: generator spec {spec!r} gives 1 point(s), "
                       "but a point set needs at least 2\n")
    assert len(generate("grid(2)")) == 4


def test_generators_reject_more_points_than_the_limit():
    assert len(near_pencil(MAX_POINTS)) == MAX_POINTS
    limit = f"limit of {MAX_POINTS}"
    for make in (
        lambda: grid(32),
        lambda: near_pencil(MAX_POINTS + 1),
        lambda: random_rational(MAX_POINTS + 1, seed=0, bound=9),
        lambda: generate("grid(400)"),
    ):
        with pytest.raises(ConfigError, match=limit):
            make()


def test_random_rational_rejects_more_points_than_exist():
    # Bound 1 allows the values -1, 0, 1 and bound 2 adds -2, 2, -1/2, 1/2.
    for bound, values in ((1, 3), (2, 7)):
        pts = random_rational(values**2, seed=0, bound=bound)
        assert len(set(pts)) == values**2
        with pytest.raises(ValueError, match="distinct points"):
            random_rational(values**2 + 1, seed=0, bound=bound)


def test_random_rational_rejects_a_negative_seed(capsys):
    # random.Random would fold the seed -1 to 1 and repeat its points.
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_rational(5, seed=-1, bound=9)
    assert run_cli(["generate", "--name", "random_rational(5,-1,9)"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
