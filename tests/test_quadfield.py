from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equilines.errors import ElementParseError, FieldMismatchError
from equilines.quadfield import (
    Discriminant,
    QuadElement,
    format_element,
    is_squarefree,
    one,
    parse_element,
    quad,
    sqrt_d,
    zero,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
discs = st.sampled_from([-3, -1, 2, 5])


def elements(d: int):
    return st.builds(lambda a, b: quad(a, b, d=d), rationals, rationals)


def test_discriminant_validation():
    for d in (-3, -1, 2, 5, -6, 10, 15):
        assert Discriminant(d).d == d
    for d in (0, 1, 4, 8, 12, 18, -4, -12, 10**14 + 31):
        with pytest.raises(ValueError):
            Discriminant(d)


def test_is_squarefree():
    assert is_squarefree(-3) and is_squarefree(30) and is_squarefree(-1)
    assert not is_squarefree(0) and not is_squarefree(49) and not is_squarefree(-50)


def test_add_examples():
    assert quad(Fraction(1, 2), d=5) + quad(Fraction(1, 2), d=5) == one(5)
    assert sqrt_d(5) + (-sqrt_d(5)) == zero(5)
    lhs = quad(Fraction(1, 3), Fraction(1, 6), d=5) + quad(Fraction(1, 6), Fraction(1, 3), d=5)
    assert lhs == quad(Fraction(1, 2), Fraction(1, 2), d=5)


def test_mul_examples():
    assert sqrt_d(-3) * sqrt_d(-3) == quad(-3, d=-3)
    x = quad(Fraction(2, 7), Fraction(-5, 3), d=2)
    assert x * one(2) == x
    omega = quad(Fraction(-1, 2), Fraction(1, 2), d=-3)
    assert omega * omega * omega == one(-3)


def test_invert_examples():
    assert quad(2, d=5).invert() == quad(Fraction(1, 2), d=5)
    assert sqrt_d(5).invert() == quad(0, Fraction(1, 5), d=5)
    assert sqrt_d(-3).invert() == quad(0, Fraction(1, -3), d=-3)
    assert quad(1, 1, d=2).invert() == quad(-1, 1, d=2)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        zero(5).invert()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        one(5) + one(2)
    with pytest.raises(FieldMismatchError):
        one(5) * one(-1)


def test_is_real():
    assert quad(Fraction(3, 4), 0, d=-1).is_real
    assert not sqrt_d(-1).is_real
    assert quad(1, 1, d=5).is_real


def test_canonical_equality():
    assert quad(Fraction(2, 4), Fraction(-3, -6), d=5) == quad(
        Fraction(1, 2), Fraction(1, 2), d=5
    )
    assert hash(quad(Fraction(2, 4), d=5)) == hash(quad(Fraction(1, 2), d=5))


@given(discs, st.data())
@settings(max_examples=200)
def test_field_axioms(d, data):
    x = data.draw(elements(d))
    y = data.draw(elements(d))
    z = data.draw(elements(d))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero(d) == x
    assert x * one(d) == x
    assert x + (-x) == zero(d)
    if not x.is_zero:
        assert x * x.invert() == one(d)


@given(discs, st.data())
@settings(max_examples=200)
def test_invert_is_multiplicative(d, data):
    x = data.draw(elements(d).filter(bool))
    y = data.draw(elements(d).filter(bool))
    assert (x * y).invert() == x.invert() * y.invert()


def test_parse_basic_forms():
    assert parse_element("3", 5) == quad(3, d=5)
    assert parse_element("-2/5", 5) == quad(Fraction(-2, 5), d=5)
    assert parse_element("sqrt(-3)", -3) == sqrt_d(-3)
    assert parse_element("-sqrt(2)", 2) == -sqrt_d(2)
    assert parse_element("1/2+1/2*sqrt(-3)", -3) == quad(
        Fraction(1, 2), Fraction(1, 2), d=-3
    )
    assert parse_element("1/2-sqrt(2)", 2) == quad(Fraction(1, 2), -1, d=2)
    assert parse_element("0-1*sqrt(5)", 5) == -sqrt_d(5)
    assert parse_element(" 1 + 2*sqrt(5) ", 5) == quad(1, 2, d=5)


def test_parse_rejects_garbage():
    for bad in (
        "",
        "x",
        "1/",
        "1//2",
        "2*",
        "sqrt()",
        "1+sqrt(2)+sqrt(2)",
        "1sqrt(2)",
        "1/0",
        "1/0*sqrt(2)",
    ):
        with pytest.raises(ElementParseError):
            parse_element(bad, 2)


def test_parse_rejects_wrong_discriminant():
    with pytest.raises(ElementParseError):
        parse_element("sqrt(3)", 2)


def test_parse_coefficient_without_rational_part():
    assert parse_element("10*sqrt(-3)", -3) == quad(0, 10, d=-3)
    assert parse_element("-3/2*sqrt(-3)", -3) == quad(0, Fraction(-3, 2), d=-3)


@given(discs, st.data())
@settings(max_examples=200)
def test_format_parse_round_trip(d, data):
    x = data.draw(elements(d))
    assert parse_element(format_element(x), d) == x


def test_format_examples():
    assert format_element(quad(3, d=5)) == "3"
    assert format_element(sqrt_d(-3)) == "sqrt(-3)"
    assert format_element(-sqrt_d(2)) == "-sqrt(2)"
    assert format_element(quad(Fraction(1, 2), Fraction(-1, 3), d=2)) == "1/2-1/3*sqrt(2)"
    assert format_element(QuadElement(Fraction(0), Fraction(-2), 5)) == "-2*sqrt(5)"
