import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crnkit.numbers import (
    DECIMAL,
    MAX_EXPONENT,
    Lexer,
    exceeds_literal_bound,
    format_rational,
    parse_rational,
    read_literal,
)

from .support import leading_sign_normalized, primitive_integer_vector


def test_parse_integer():
    assert parse_rational("7") == 7
    assert parse_rational("-3") == -3


def test_parse_ratio():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("-10/4") == Fraction(-5, 2)


def test_parse_decimal_is_exact():
    assert parse_rational("0.1") == Fraction(1, 10)
    assert parse_rational("2.50") == Fraction(5, 2)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1/2/3", "2.5.1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_scientific_notation_is_exact():
    assert parse_rational("1e3") == 1000
    assert parse_rational("2.5e-2") == Fraction(1, 40)


def test_parse_admits_exponents_up_to_the_limit():
    assert parse_rational(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert parse_rational(f"-2.5e-{MAX_EXPONENT}") == Fraction(-25, 10 ** (MAX_EXPONENT + 1))


@pytest.mark.parametrize("bad", ["inf", "-Infinity", "nan", "sNaN"])
def test_parse_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="invalid rational literal"):
        parse_rational(bad)


@pytest.mark.parametrize(
    "big", [f"1e{MAX_EXPONENT + 1}", f"1e-{MAX_EXPONENT + 1}", "10e1000", "1e1000000", "1e1000000000"]
)
def test_parse_refuses_exponent_beyond_limit(big):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"outside \\+-MAX_EXPONENT = {MAX_EXPONENT}"):
        parse_rational(big)
    assert time.perf_counter() - start < 0.1


TOP = 10 ** (MAX_EXPONENT + 1)  # the least integer the literal bound refuses
NINES = "9" * (MAX_EXPONENT + 1)


@pytest.mark.parametrize(
    "text",
    [f"{TOP}/1", f"1/{TOP}", f"-{TOP}/7", f"{TOP}/{TOP}", f" {TOP} / 3 ",
     "1." + "0" * MAX_EXPONENT + "1", "9.99e-1000", f"{NINES}.5"],
    ids=["numerator", "denominator", "negative", "both", "spaced", "long-decimal", "small",
         "nines-and-a-half"],
)
def test_parse_refuses_parts_outside_the_literal_bound(text):
    """Either integer of "p/q" as written, or a part of a decimal's exact value."""
    with pytest.raises(ValueError) as info:
        parse_rational(text)
    assert str(info.value) == (
        f"rational literal {text!r} has a numerator or denominator of more than "
        f"{MAX_EXPONENT + 1} digits, outside +-MAX_EXPONENT = {MAX_EXPONENT}"
    )


def test_parse_admits_parts_up_to_the_literal_bound():
    assert parse_rational(f"{NINES}/{NINES}") == 1
    assert parse_rational(f"-{NINES}/7") == Fraction(1 - TOP, 7)
    assert parse_rational(f"1/{NINES}") == Fraction(1, TOP - 1)
    assert parse_rational(NINES) == TOP - 1
    assert parse_rational(f"{NINES[:-1]}.5") == Fraction(2 * (TOP // 10 - 1) + 1, 2)
    assert parse_rational("9.9e-999") == Fraction(99, 10**1000)


def _reading(read, text):
    """read(text) as a value, or the text of the error it raises."""
    try:
        return read(text)
    except ValueError as exc:
        return f"error: {exc}"


# Digit strings on both sides of MAX_EXPONENT digits, with and without
# leading zeros, and decimals and ratios built from them.
LONG_TOKENS = [
    "0", "0" * (MAX_EXPONENT + 5), "0" * (MAX_EXPONENT + 5) + "7",
    *("9" * n for n in (MAX_EXPONENT - 1, MAX_EXPONENT, MAX_EXPONENT + 1, MAX_EXPONENT + 2)),
    "1" + "0" * MAX_EXPONENT + ".5",
    "0." + "0" * MAX_EXPONENT + "1", "0." + "0" * (MAX_EXPONENT - 2) + "1",
    "1/" + "3" * (MAX_EXPONENT + 2), "9" * (MAX_EXPONENT + 2) + "/2", "5/0", "0/0",
]


@pytest.mark.parametrize("text", LONG_TOKENS, ids=range(len(LONG_TOKENS)))
def test_read_literal_agrees_with_parse_rational_on_long_tokens(text):
    assert _reading(read_literal, text) == _reading(parse_rational, text)


@settings(max_examples=300, deadline=None)
@given(text=st.from_regex(rf"{DECIMAL}(?:/\d+)?", fullmatch=True))
def test_read_literal_agrees_with_parse_rational_on_number_tokens(text):
    # every token either tokenizer reads as a number, Unicode digits included
    assert _reading(read_literal, text) == _reading(parse_rational, text)


def test_format_round_trip():
    for value in (Fraction(3), Fraction(-5, 2), Fraction(0), Fraction(7, 13)):
        assert parse_rational(format_rational(value)) == value


def test_format_style():
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_primitive_integer_vector():
    vec = [Fraction(1, 2), Fraction(3, 4), Fraction(-2)]
    assert primitive_integer_vector(vec) == (Fraction(2), Fraction(3), Fraction(-8))


def test_primitive_integer_vector_divides_gcd():
    vec = [Fraction(4), Fraction(6), Fraction(0)]
    assert primitive_integer_vector(vec) == (Fraction(2), Fraction(3), Fraction(0))


def test_leading_sign_flips_when_needed():
    vec = [Fraction(0), Fraction(-1, 3), Fraction(1, 6)]
    assert leading_sign_normalized(vec) == (Fraction(0), Fraction(2), Fraction(-1))


def test_leading_sign_zero_vector_unchanged():
    assert leading_sign_normalized([Fraction(0), Fraction(0)]) == (Fraction(0), Fraction(0))


@pytest.mark.parametrize(
    "value, exceeds",
    [
        (TOP - 1, False),
        (TOP, True),
        (1 - TOP, False),
        (-TOP, True),
        (Fraction(-TOP, 7), True),
        (Fraction(1 - TOP, 7), False),
        (Fraction(1, TOP - 1), False),
        (Fraction(-1, TOP), True),
    ],
    ids=["top-1", "top", "-(top-1)", "-top", "-top/7", "-(top-1)/7", "1/(top-1)", "-1/top"],
)
def test_exceeds_literal_bound_at_the_bound(value, exceeds):
    # |numerator| and the denominator are tested, so a negative value is bounded too
    assert exceeds_literal_bound(value) is exceeds


def test_column_refuses_a_token_past_the_end():
    lexer = Lexer(DECIMAL)
    assert lexer.column(" 1 2", 1) == 4
    with pytest.raises(IndexError, match="^no token 2 in the text$"):
        lexer.column(" 1 2", 2)
