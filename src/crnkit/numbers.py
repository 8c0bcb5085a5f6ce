"""Small helpers for exact rational arithmetic shared across the toolkit.

`parse_rational` reads the rational literals of CLI options and JSON
numbers.  The network and polynomial text formats spell a number with
`DECIMAL` (the network format adds an optional "/digits"), and
`read_literal` is the one reader of such a token and of the literal parts
of a rate.  Both formats read their text with one `Lexer`.  Every value
these read has a numerator and a denominator below LITERAL_BOUND, and so
does every rate and coefficient a network stores, so whatever a network
holds is written with literals the text format reads.  `exceeds_literal_bound`
is the one test of that bound, as `poly.as_fraction` is the one conversion
of a caller's number to a stored Fraction.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction


# Bound on the decimal exponent of a literal: "1e1000000" would otherwise
# expand to a 3.3-million-bit integer.
MAX_EXPONENT = 1000

# A rational literal's numerator and denominator, and those of every rate and
# coefficient a network stores, are below this: at most MAX_EXPONENT + 1 digits.
LITERAL_BOUND = 10 ** (MAX_EXPONENT + 1)


def exceeds_literal_bound(value) -> bool:
    """Whether an int's or a Fraction's |numerator| or denominator is not below LITERAL_BOUND."""
    return abs(value.numerator) >= LITERAL_BOUND or value.denominator >= LITERAL_BOUND


def outside_literal_bound(what: str) -> str:
    """The message for a value whose numerator or denominator is not below LITERAL_BOUND."""
    return (
        f"{what} has a numerator or denominator of more than {MAX_EXPONENT + 1} digits, "
        f"outside +-MAX_EXPONENT = {MAX_EXPONENT}"
    )


# The unsigned decimal number of the text formats' tokenizers.
DECIMAL = r"\d+(?:\.\d+)?"


class Lexer:
    r"""A text format's tokens: its alternatives, which hold no capturing group, then `\S`.

    So only whitespace falls between tokens, and a character no token starts
    with is a token of its own, which the format's parser refuses.  Columns
    are not kept; `column` and `first_unexpected` read the text again.

    `starts`, a character-class body, may list characters at each of which
    some alternative matches; a text of only those and whitespace then has
    no unexpected character, and `first_unexpected` says so without
    tokenizing it.
    """

    def __init__(self, *alternatives: str, starts: str = ""):
        body = "|".join(alternatives)
        self._token = re.compile(rf"{body}|\S")
        # the same tokens, with only a character no alternative reads captured
        self._unexpected = re.compile(rf"(?:{body})|(\S)")
        self._plain = re.compile(rf"[\s{starts}]*")

    def split(self, text: str, start: int = 0, end: int = sys.maxsize) -> list[str]:
        """The texts of the tokens of text[start:end]."""
        return self._token.findall(text, start, end)

    def first_unexpected(self, text: str, start: int = 0, end: int = sys.maxsize) -> int | None:
        """The index in `text` of the first character of text[start:end] that
        starts no token of the format, or None if there is none."""
        if self._plain.fullmatch(text, start, end):
            return None
        if any(self._unexpected.findall(text, start, end)):
            for match in self._unexpected.finditer(text, start, end):
                if match.group(1):
                    return match.start()
        return None

    def column(self, text: str, index: int, start: int = 0, end: int = sys.maxsize) -> int:
        """The 1-based column, counted from the start of `text`, of
        split(text, start, end)[index]."""
        for number, match in enumerate(self._token.finditer(text, start, end)):
            if number == index:
                return match.start() + 1
        raise IndexError(f"no token {index} in the text")


def parse_rational(text: str) -> Fraction:
    """Parse "3", "-5/3", "0.25" or "2.5e-2" into an exact Fraction.

    Decimal literals are converted exactly (0.1 becomes 1/10, not the nearest
    binary float).  Infinities and NaNs are invalid, and so are literals
    whose decimal exponent (the power of ten of the leading digit) lies
    outside +-MAX_EXPONENT, and literals with a numerator or denominator
    (either integer of "p/q" as written, else those of the exact value)
    whose size is not below LITERAL_BOUND.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            p, q = int(num.strip()), int(den.strip())
            value = Fraction(p, q)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {text!r}") from exc
        if not (-LITERAL_BOUND < p < LITERAL_BOUND and -LITERAL_BOUND < q < LITERAL_BOUND):
            raise ValueError(outside_literal_bound(f"rational literal {text!r}"))
        return value
    try:
        value = Decimal(s)
    except (InvalidOperation, ValueError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc
    if not value.is_finite():
        raise ValueError(f"invalid rational literal {text!r}")
    if abs(value.adjusted()) > MAX_EXPONENT:
        raise ValueError(
            f"rational literal {text!r} has decimal exponent {value.adjusted()}, "
            f"outside +-MAX_EXPONENT = {MAX_EXPONENT}"
        )
    result = Fraction(value)
    if exceeds_literal_bound(result):
        raise ValueError(outside_literal_bound(f"rational literal {text!r}"))
    return result


def read_literal(text: str) -> int | Fraction:
    """A number token's value: an int for plain digits, else parse_rational's.

    Digit strings longer than MAX_EXPONENT go through parse_rational too,
    which refuses those whose decimal exponent is above the bound.
    """
    if text.isdecimal() and len(text) <= MAX_EXPONENT:
        return int(text)
    return parse_rational(text)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q"."""
    return str(Fraction(value))
