"""Small helpers for exact rational arithmetic shared across the toolkit."""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction


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
