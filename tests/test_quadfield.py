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
    parse_element,
    quad,
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
    assert quad(Fraction(1, 2), d=5) + quad(Fraction(1, 2), d=5) == quad(1, d=5)
    assert quad(0, 1, d=5) + (-quad(0, 1, d=5)) == quad(0, d=5)
    lhs = quad(Fraction(1, 3), Fraction(1, 6), d=5) + quad(Fraction(1, 6), Fraction(1, 3), d=5)
    assert lhs == quad(Fraction(1, 2), Fraction(1, 2), d=5)


def test_mul_examples():
    assert quad(0, 1, d=-3) * quad(0, 1, d=-3) == quad(-3, d=-3)
    x = quad(Fraction(2, 7), Fraction(-5, 3), d=2)
    assert x * quad(1, d=2) == x
    omega = quad(Fraction(-1, 2), Fraction(1, 2), d=-3)
    assert omega * omega * omega == quad(1, d=-3)


def test_invert_examples():
    assert quad(2, d=5).invert() == quad(Fraction(1, 2), d=5)
    assert quad(0, 1, d=5).invert() == quad(0, Fraction(1, 5), d=5)
    assert quad(0, 1, d=-3).invert() == quad(0, Fraction(1, -3), d=-3)
    assert quad(1, 1, d=2).invert() == quad(-1, 1, d=2)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        quad(0, d=5).invert()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        quad(1, d=5) + quad(1, d=2)
    with pytest.raises(FieldMismatchError):
        quad(1, d=5) * quad(1, d=-1)


def test_is_real():
    assert quad(Fraction(3, 4), 0, d=-1).is_real
    assert not quad(0, 1, d=-1).is_real
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
    assert x + quad(0, d=d) == x
    assert x * quad(1, d=d) == x
    assert x + (-x) == quad(0, d=d)
    if not x.is_zero:
        assert x * x.invert() == quad(1, d=d)


@given(discs, st.data())
@settings(max_examples=200)
def test_invert_is_multiplicative(d, data):
    x = data.draw(elements(d).filter(bool))
    y = data.draw(elements(d).filter(bool))
    assert (x * y).invert() == x.invert() * y.invert()


def test_parse_basic_forms():
    assert parse_element("3", 5) == quad(3, d=5)
    assert parse_element("-2/5", 5) == quad(Fraction(-2, 5), d=5)
    assert parse_element("sqrt(-3)", -3) == quad(0, 1, d=-3)
    assert parse_element("-sqrt(2)", 2) == -quad(0, 1, d=2)
    assert parse_element("1/2+1/2*sqrt(-3)", -3) == quad(
        Fraction(1, 2), Fraction(1, 2), d=-3
    )
    assert parse_element("1/2-sqrt(2)", 2) == quad(Fraction(1, 2), -1, d=2)
    assert parse_element("0-1*sqrt(5)", 5) == -quad(0, 1, d=5)
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


digits = st.text(alphabet="0123456789", min_size=1, max_size=8)
rational_text = st.tuples(st.sampled_from(["", "-"]), digits, st.none() | digits).map(
    lambda t: t[0] + t[1] + ("" if t[2] is None else "/" + t[2])
)
coefficient_text = st.tuples(digits, st.none() | digits).map(
    lambda t: t[0] + ("" if t[1] is None else "/" + t[1])
)


def fraction_parse(rat, sign, coef, d):
    """The element that Fraction(str) makes of the README grammar's parts."""
    b = Fraction(0)
    if sign is not None:
        b = Fraction(coef) if coef is not None else Fraction(1)
        b = -b if sign == "-" else b
    return QuadElement(Fraction(rat) if rat is not None else Fraction(0), b, d)


@given(discs, st.data())
@settings(max_examples=300)
def test_parse_matches_fraction_parse(d, data):
    # "a/b", "a/b+c/e*sqrt(d)" and their shortened forms, with leading
    # zeros, "-0", zero denominators and whitespace anywhere.
    rat = data.draw(st.none() | rational_text)
    signs = st.sampled_from("+-")
    sign = data.draw(signs if rat is None else st.none() | signs)
    coef = data.draw(st.none() | coefficient_text) if sign is not None else None
    text = (rat or "") + (sign or "")
    if sign is not None:
        text += ("" if coef is None else coef + "*") + f"sqrt({d})"
    if sign == "+" and rat is None:
        text = text[1:]  # a leading "+" is not in the grammar
    gaps = st.lists(st.sampled_from(["", " ", "\t"]), min_size=len(text) + 1, max_size=len(text) + 1)
    spaces = data.draw(gaps)
    spaced = "".join(w + c for w, c in zip(spaces, text)) + spaces[-1]
    try:
        expected = fraction_parse(rat, sign, coef, d)
    except ZeroDivisionError:
        with pytest.raises(ElementParseError, match="zero denominator"):
            parse_element(spaced, d)
    else:
        assert parse_element(spaced, d) == expected


@pytest.mark.parametrize("text", ["1/0", "1+1/0*sqrt(5)"])
def test_parse_rejects_zero_denominator(text):
    with pytest.raises(ElementParseError, match="zero denominator"):
        parse_element(text, 5)


def test_parse_sign_zeros_and_whitespace():
    assert parse_element("-0", 5) == quad(0, d=5)
    assert parse_element("-0/7", 5) == quad(0, d=5)
    assert parse_element("007/0010", 5) == quad(Fraction(7, 10), d=5)
    assert parse_element("1 / 2 - 0 3 * sqrt ( 5 )", 5) == quad(Fraction(1, 2), -3, d=5)


@given(discs, st.data())
@settings(max_examples=200)
def test_format_parse_round_trip(d, data):
    x = data.draw(elements(d))
    assert parse_element(format_element(x), d) == x


def test_format_examples():
    assert format_element(quad(3, d=5)) == "3"
    assert format_element(quad(0, 1, d=-3)) == "sqrt(-3)"
    assert format_element(-quad(0, 1, d=2)) == "-sqrt(2)"
    assert format_element(quad(Fraction(1, 2), Fraction(-1, 3), d=2)) == "1/2-1/3*sqrt(2)"
    assert format_element(QuadElement(Fraction(0), Fraction(-2), 5)) == "-2*sqrt(5)"
