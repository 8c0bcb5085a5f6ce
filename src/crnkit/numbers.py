"""Small helpers for exact rational arithmetic shared across the toolkit."""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


# Bound on the decimal exponent of a literal: "1e1000000" would otherwise
# expand to a 3.3-million-bit integer.
MAX_EXPONENT = 1000


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


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p" or "p/q"."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def primitive_integer_vector(values: Iterable[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational vector to coprime integers, preserving direction.

    The zero vector maps to itself.  Entries come back as integer-valued
    Fractions so downstream exact arithmetic needs no conversion.
    """
    fracs = [Fraction(v) for v in values]
    if not fracs or all(v == 0 for v in fracs):
        return tuple(Fraction(0) for _ in fracs)
    den = lcm(*(v.denominator for v in fracs))
    ints = [int(v * den) for v in fracs]
    g = gcd(*ints)
    return tuple(Fraction(i // g) for i in ints)


def leading_sign_normalized(values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Primitive integer form with the first nonzero entry made positive."""
    ints = primitive_integer_vector(values)
    for v in ints:
        if v != 0:
            if v < 0:
                ints = tuple(-x for x in ints)
            break
    return ints
