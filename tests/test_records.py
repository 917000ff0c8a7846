"""The value semantics of the package's record types: equality, hashing,
immutability, validation on construction, the fields that equality
ignores, and the attributes an instance stores."""

from fractions import Fraction

import pytest

from support import incidence_of

from equilines.errors import ConfigError
from equilines.generators import grid
from equilines.geometry import enumerate_lines
from equilines.points import GREEN, RED, ColoredConfiguration, ProjPoint
from equilines.profiles import compute_profile
from equilines.quadfield import Discriminant, QuadElement, quad
from equilines.search import LOCAL, MAX_LOCAL_BUDGET, SearchSpec
from equilines.tables import BoundTheorem, EquichromaticQuery, LineProfile


def _point(x, y, z, d=2):
    return ProjPoint(quad(x, d=d), quad(y, d=d), quad(z, d=d))


def _values():
    """Each hashed value type, built twice from equal inputs, with the
    tuple of its fields."""
    half = Fraction(1, 2)
    return [
        (QuadElement(half, Fraction(3), 5), QuadElement(Fraction(2, 4), Fraction(3), 5),
         (half, Fraction(3), 5)),
        (_point(1, 2, 3), _point(2, 4, 6), (2, _point(1, 2, 3).row)),
        (Discriminant(-3), Discriminant(-3), (-3,)),
    ]


@pytest.mark.parametrize("first, second, fields", _values(),
                         ids=["QuadElement", "ProjPoint", "Discriminant"])
def test_equal_inputs_give_equal_values_that_are_not_tuples(first, second, fields):
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != fields and fields != first
    assert len({first, second}) == 1


def test_values_with_other_fields_differ():
    assert QuadElement(Fraction(1), Fraction(0), 2) != QuadElement(Fraction(1), Fraction(0), 3)
    assert _point(1, 2, 3) != _point(1, 2, 4)
    assert Discriminant(2) != Discriminant(-1)


@pytest.mark.parametrize(
    "value, name",
    [
        (QuadElement(Fraction(1), Fraction(2), 2), "a"),
        (_point(1, 2, 3), "row"),
        (SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX), "budget"),
    ],
    ids=["QuadElement", "ProjPoint", "SearchSpec"],
)
def test_fields_cannot_be_assigned(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    assert getattr(value, name) == before


def test_construction_validates():
    with pytest.raises(ValueError, match="squarefree"):
        Discriminant(4)
    with pytest.raises(ValueError, match="r must be >= 0"):
        EquichromaticQuery(-1)
    with pytest.raises(ConfigError, match=f"cap of {MAX_LOCAL_BUDGET} moves"):
        SearchSpec(points=grid(3), k=1, theorem=BoundTheorem.EQUI_SIX, mode=LOCAL,
                   budget=MAX_LOCAL_BUDGET + 1)


def test_line_profile_equality_ignores_its_identities():
    pts = grid(3)
    config = ColoredConfiguration(Discriminant(pts[0].d), pts, (GREEN,) * 5 + (RED,) * 4)
    checked = compute_profile(incidence_of(config), config.colors)
    assert checked.identities is not None
    bare = LineProfile(checked.counts, checked.n, checked.k)
    assert bare.identities is None
    assert checked == bare and not checked != bare
    assert hash(checked) == hash(bare)
    assert bare != LineProfile(checked.counts, checked.n + 1, checked.k)


def test_colored_configuration_equality_ignores_the_swap():
    pts = (_point(0, 0, 1), _point(1, 0, 1), _point(0, 1, 1))
    swapped = ColoredConfiguration(Discriminant(2), pts, (RED, RED, GREEN))
    direct = ColoredConfiguration(Discriminant(2), pts, (GREEN, GREEN, RED))
    assert swapped.colors_swapped and not direct.colors_swapped
    assert swapped.colors == direct.colors
    assert swapped == direct and hash(swapped) == hash(direct)
    assert direct != ColoredConfiguration(Discriminant(2), pts, (GREEN, RED, GREEN))


def test_incidence_stores_exactly_its_fields():
    incidence = enumerate_lines(grid(3))
    assert vars(incidence).keys() == {
        "total_points", "indptr", "points", "size_counts", "all_real"
    }


def test_query_repr_names_its_fields():
    # proofcheck names a query in the message of a refuted claim.
    assert repr(EquichromaticQuery(1, 5)) == "EquichromaticQuery(r=1, max_points=5)"
