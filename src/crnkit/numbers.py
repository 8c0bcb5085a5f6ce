"""Small helpers for exact rational arithmetic shared across the toolkit.

`parse_rational` reads the rational literals of CLI options and JSON
numbers.  The network and polynomial text formats spell a number with
`DECIMAL` (the network format adds an optional "/digits"), and
`read_literal` is the one reader of such a token and of the literal parts
of a rate.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction


# Bound on the decimal exponent of a literal: "1e1000000" would otherwise
# expand to a 3.3-million-bit integer.
MAX_EXPONENT = 1000

# The unsigned decimal number of the text formats' tokenizers.
DECIMAL = r"\d+(?:\.\d+)?"


def parse_rational(text: str) -> Fraction:
    """Parse "3", "-5/3", "0.25" or "2.5e-2" into an exact Fraction.

    Decimal literals are converted exactly (0.1 becomes 1/10, not the nearest
    binary float).  Infinities and NaNs are invalid, and so are literals
    whose decimal exponent (the power of ten of the leading digit) lies
    outside +-MAX_EXPONENT.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num.strip()), int(den.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {text!r}") from exc
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
    return Fraction(value)


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
