"""Exact multivariate polynomials over the rationals.

A polynomial in M variables is stored as a mapping from exponent tuples of
length M to nonzero Fraction coefficients.  Printing, hashing and iteration
use descending graded-lexicographic term order, so rendered forms are stable
and parse(render(p)) == p.

`Polynomial(dim, terms)` is the validating constructor for terms that come
from outside: it checks every exponent tuple and converts every coefficient
with `as_fraction`, the one conversion of a caller's number to the Fraction
crnkit stores (`numbers.exceeds_literal_bound` is the one literal-bound test).
Arithmetic and the exact pipeline build their results with the trusted
`Polynomial._from_clean(dim, terms)` instead, which stores the dict it is
given as is.  Its contract: the dict is not shared with anyone else, every
key is a tuple of `dim` non-negative ints, and every value is a nonzero
`Fraction`.

`PolynomialSystem.coded_terms` is the integer form of a system's right-hand
side that the exact searches read, built on first use and cached on the
instance (a `functools.cached_property`, so `==`, `hash` and `repr` still
see only the fields).  A system is immutable and the table is derived from
its fields alone, so it never goes stale.  A system of degree above
`MAX_DEGREE` caches nothing: every read raises the same ValueError.

The parser bounds exact expansion: before each `*` and `**` it checks the
degree, a bound on the term count and a bound on the coefficient height
(`_height`) of the result against `MAX_DEGREE`, `MAX_TERMS` and
`MAX_COEFFICIENT_BITS`, and the sum of the term-count bounds above 1 of
every expansion so far against `MAX_PARSE_TERMS`, so no expansion starts
that could exceed them.  That sum runs over one input: an expression, or
every component of a system, which one parser reads in turn.  It also
refuses parentheses nested deeper than `MAX_NESTING`.  Numbers and variable
powers multiply as one term, a coefficient and exponents, with the checks
that a product of two one-term polynomials gets and nothing charged to the
budget; a product becomes a `Polynomial` only at its first parenthesized
factor, and from there each factor is multiplied in turn.

The parser reads an expression's tokens with the `numbers.Lexer` both text
formats share, one `findall` per expression, after one pass that refuses a
character no token starts with, so such a text is refused before it
charges anything to the budget.  Columns are not kept: a refusal that
names one finds it by reading the expression again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .numbers import DECIMAL, Lexer, format_rational, read_literal

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]

# Caps on what the parser may expand: the total degree of any product or
# power (and any exponent), a bound on its number of terms, and the sum of
# those bounds above 1 over one input (an expression or a whole system).
MAX_DEGREE = 100
MAX_TERMS = 2_000
MAX_PARSE_TERMS = 5_000
# Cap on parenthesis nesting, which the recursive-descent parser recurses on.
MAX_NESTING = 100
# Cap on the coefficient height (`_height`) of every product and power.
# Nested constant powers would multiply it by up to MAX_DEGREE per level, a
# chain like 3*3*...*3 grows it in time quadratic in its length, and a power
# of a sum multiplies the heights of its terms.  It admits every literal
# parse_rational accepts (10^1000 has 3,322 bits).
MAX_COEFFICIENT_BITS = 10_000


# Fraction(i) for every coefficient a realization can store (0..MAX_DEGREE + 1),
# shared so that building a complex or reading a small number creates no Fraction.
SMALL_FRACTIONS = tuple(Fraction(i) for i in range(MAX_DEGREE + 2))


def as_fraction(value) -> Fraction:
    """`value` as a stored Fraction, the one conversion of a caller's number: a Fraction
    as it is, an int in 0..MAX_DEGREE + 1 from SMALL_FRACTIONS, else Fraction(value)."""
    if type(value) is Fraction:
        return value
    if type(value) is int and 0 <= value <= MAX_DEGREE + 1:
        return SMALL_FRACTIONS[value]
    return Fraction(value)


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key for graded-lexicographic order (degree first, then lex)."""
    return (sum(exponents), exponents)


def accumulate_terms(
    sums: dict[Exponents, Scalar],
    terms: Mapping[Exponents, Scalar],
    scale: Scalar | None = None,
    shift: int | None = None,
) -> None:
    """Add scale * x_shift * f to the term sums, for f given by its terms.

    scale None means 1 and shift None means no factor x_shift.  Multiplying
    by x_shift (raising that exponent by one, the shift rule of Lie
    derivatives) maps distinct terms to distinct keys, so a term only merges
    with what `sums` already held.  Sums that reach zero stay in `sums`;
    drop them before passing `sums` to `Polynomial._from_clean`.
    """
    for expts, coeff in terms.items():
        if shift is not None:
            expts = expts[:shift] + (expts[shift] + 1,) + expts[shift + 1 :]
        if scale is not None:
            coeff = coeff * scale
        old = sums.get(expts)
        sums[expts] = coeff if old is None else old + coeff


def default_variable_names(dim: int) -> tuple[str, ...]:
    """Conventional names: x / x,y / x,y,z / x,y,z,w, then x1..xM."""
    if 1 <= dim <= 4:
        return tuple("xyzw"[:dim])
    return tuple(f"x{i + 1}" for i in range(dim))


def _checked_exponents(dim: int, raw) -> Exponents:
    """`raw` as a tuple of ints, or ValueError naming what is wrong with it."""
    expts = tuple(int(e) for e in raw)
    if expts != tuple(raw):
        raise ValueError(f"non-integral exponent in {tuple(raw)}")
    if len(expts) != dim:
        raise ValueError(f"exponent tuple {expts} does not match dimension {dim}")
    if any(e < 0 for e in expts):
        raise ValueError(f"negative exponent in {expts}")
    return expts


class Polynomial:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("dim", "_terms", "_hash")

    def __init__(self, dim: int, terms: Mapping[Exponents, Scalar] | None = None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        cleaned: dict[Exponents, Fraction] = {}
        for raw, coeff in (terms or {}).items():
            # a tuple of dim non-negative ints (not bools) is already clean
            if not (
                type(raw) is tuple
                and len(raw) == dim
                and all(type(e) is int and e >= 0 for e in raw)
            ):
                raw = _checked_exponents(dim, raw)
            c = as_fraction(coeff)
            if c:
                cleaned[raw] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_clean(cls, dim: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Trusted constructor: store `terms` as is (see the module docstring)."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "dim", dim)
        object.__setattr__(poly, "_terms", terms)
        object.__setattr__(poly, "_hash", None)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: Scalar) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        expts = tuple(1 if i == index else 0 for i in range(dim))
        return cls(dim, {expts: 1})

    @classmethod
    def monomial(cls, dim: int, exponents: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(dim, {tuple(exponents): coeff})

    # -- term access ------------------------------------------------------

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def terms(self) -> Mapping[Exponents, Fraction]:
        """Read-only view of the nonzero terms, in no particular order."""
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def monomials(self) -> set[Exponents]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError(
                    f"dimension mismatch: {self.dim} vs {other.dim}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.dim, other)
        return None

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        terms = dict(self._terms)
        accumulate_terms(terms, rhs._terms)
        return Polynomial._from_clean(self.dim, {e: c for e, c in terms.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_clean(self.dim, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial._from_clean(self.dim, {})
            c = as_fraction(other)
            return Polynomial._from_clean(self.dim, {e: v * c for e, v in self._terms.items()})
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
            terms: dict[Exponents, Fraction] = {}
            rhs = other._terms.items()
            for e1, c1 in self._terms.items():
                for e2, c2 in rhs:
                    key = tuple(map(add, e1, e2))
                    old = terms.get(key)
                    terms[key] = c1 * c2 if old is None else old + c1 * c2
            return Polynomial._from_clean(
                self.dim, {e: c for e, c in terms.items() if c}
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.dim, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable `index`."""
        if not 0 <= index < self.dim:
            raise ValueError(f"variable index {index} out of range for dim {self.dim}")
        # lowering one exponent maps distinct terms to distinct terms
        terms: dict[Exponents, Fraction] = {}
        for expts, coeff in self._terms.items():
            e = expts[index]
            if e:
                terms[expts[:index] + (e - 1,) + expts[index + 1 :]] = coeff * e
        return Polynomial._from_clean(self.dim, terms)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.dim:
            raise ValueError(f"point has length {len(point)}, expected {self.dim}")
        values = [as_fraction(p) for p in point]
        total = Fraction(0)
        for expts, coeff in self._terms.items():
            v = coeff
            for x, e in zip(values, expts):
                if e:
                    v *= x ** e
            total += v
        return total

    # -- equality and rendering -------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal to a Polynomial of the same dim with the same terms, and to nothing else.

        A constant polynomial is unequal to the number it holds, although
        `+`, `-` and `*` take that number as it.  Equality with numbers
        would break `__hash__` (`hash(Polynomial.constant(1, 2))` is not
        `hash(2)`) and transitivity: `Polynomial.constant(1, 2) == 2 ==
        Polynomial.constant(2, 2)`, yet polynomials of different dims are
        unequal.
        """
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((self.dim, tuple(self.sorted_terms())))
            )
        return self._hash

    def render(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form, e.g. "5/3*x1^2*x3" or "-3*x*y + 2*y^2"."""
        if names is None:
            names = default_variable_names(self.dim)
        if len(names) != self.dim:
            raise ValueError(f"{len(names)} names for dimension {self.dim}")
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for pos, (expts, coeff) in enumerate(self.sorted_terms()):
            factors = []
            for name, e in zip(names, expts):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = format_rational(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([format_rational(mag)] + factors)
            if pos == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.dim}, {self.render()!r})"


# -- parsing ---------------------------------------------------------------

# A variable name, matched only with fullmatch; the tokens read the same pattern.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# An ASCII digit, letter, "_" or operator starts a token.  "." is left out,
# since a lone "." starts none; a text with it is checked token by token.
_POLY_LEXER = Lexer(DECIMAL, _IDENT_RE.pattern, r"[-+*/^()]", starts=r"0-9A-Za-z_+*/^()\-")
# the parser's token after the last one: whitespace is never a token
_END = " "


def _is_ident(token: str) -> bool:
    """Is `token` a name token?  Only a name starts with an ASCII letter or '_'."""
    return (token[0].isalpha() or token[0] == "_") and token.isascii()


class PolynomialParseError(ValueError):
    """Raised for malformed polynomial expressions."""


def _height(poly: Polynomial) -> int:
    """Bit length of the largest of D and every |c*D|, D the lcm of the denominators."""
    den = 1
    for c in poly._terms.values():
        den = lcm(den, c.denominator)
    top = den
    for c in poly._terms.values():
        scaled = abs(c.numerator) * (den // c.denominator)
        if scaled > top:
            top = scaled
    return top.bit_length()


_ONE = SMALL_FRACTIONS[1]


def _term_height(coeff: Fraction) -> int:
    """`_height` of a one-term polynomial with coefficient `coeff`: the bit length of its
    numerator's absolute value or of its denominator, whichever is larger."""
    return max(abs(coeff.numerator), coeff.denominator).bit_length()


class _PolyParser:
    """Reads expressions over `variables`, all charged to one MAX_PARSE_TERMS budget."""

    def __init__(self, variables: Sequence[str]):
        self.index = {name: i for i, name in enumerate(variables)}
        self.dim = len(variables)
        self.depth = 0
        self.expanded = 0  # summed term-count bounds of the expansions so far

    def take(self) -> str:
        tok = self.tokens[self.pos]
        if tok is _END:
            raise PolynomialParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def column(self, index: int) -> int:
        """The 1-based column of the token with this index."""
        return _POLY_LEXER.column(self.text, index)

    def admit(self, kind: str, degree: int, terms: int, bits: int):
        """Refuse a result of this kind above a cap; charge a term bound above 1."""
        if degree > MAX_DEGREE:
            raise PolynomialParseError(
                f"expansion would reach degree {degree}, above MAX_DEGREE = {MAX_DEGREE}"
            )
        if terms > MAX_TERMS:
            raise PolynomialParseError(
                f"expansion could reach {terms} terms, above MAX_TERMS = {MAX_TERMS}"
            )
        if terms > 1:
            self.expanded += terms
            if self.expanded > MAX_PARSE_TERMS:
                raise PolynomialParseError(
                    f"expansions could reach {self.expanded} terms in total, above "
                    f"MAX_PARSE_TERMS = {MAX_PARSE_TERMS}"
                )
        if bits > MAX_COEFFICIENT_BITS:
            raise PolynomialParseError(
                f"{kind} could reach {bits} bits, above "
                f"MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS}"
            )

    def product(self, left: Polynomial, right: Polynomial) -> Polynomial:
        if not left.is_zero() and not right.is_zero():
            degree = left.degree() + right.degree()
            t_left, t_right = len(left._terms), len(right._terms)
            count = t_left * t_right
            # over D_left*D_right, a coefficient sums min(t_left, t_right) products at most
            self.admit(
                "single-term product" if count == 1 else "product",
                degree,
                min(count, comb(degree + self.dim, self.dim)),
                _height(left) + _height(right) + (min(t_left, t_right) - 1).bit_length(),
            )
        return left * right

    def power(self, base: Polynomial, exponent: int) -> Polynomial:
        """base**exponent, for an exponent `parse_exponent` has read."""
        terms = len(base.terms())
        if terms:
            degree = exponent * base.degree()
            kind = "power" if terms > 1 else "single-term power" if base.degree() else "constant power"
            # a^n has at most one term per multiset of n of a's terms, and its
            # numerators over D^n are at most (terms * max |c*D|)^n
            self.admit(
                kind,
                degree,
                min(comb(exponent + terms - 1, terms - 1), comb(degree + self.dim, self.dim)),
                exponent * (_height(base) + (terms - 1).bit_length()),
            )
        return base**exponent

    def parse_exponent(self) -> int | None:
        """The integer after a `^`, or None when no `^` follows; none above MAX_DEGREE."""
        if self.tokens[self.pos] != "^":
            return None
        self.pos += 1
        exp_tok = self.take()
        if not exp_tok[0].isdecimal() or "." in exp_tok:
            raise PolynomialParseError(
                f"expected integer exponent at column {self.column(self.pos - 1)}"
            )
        exponent = int(read_literal(exp_tok))
        if exponent > MAX_DEGREE:
            raise PolynomialParseError(
                f"exponent {exponent} is above MAX_DEGREE = {MAX_DEGREE}"
            )
        return exponent

    def parse(self, text: str) -> Polynomial:
        # a character no token starts with is refused before anything is parsed
        bad = _POLY_LEXER.first_unexpected(text)
        if bad is not None:
            raise PolynomialParseError(
                f"unexpected character {text[bad]!r} at column {bad + 1}"
            )
        self.text = text
        self.tokens = _POLY_LEXER.split(text)
        if not self.tokens:
            raise PolynomialParseError("empty polynomial expression")
        self.tokens.append(_END)
        self.pos = 0
        result = self.parse_sum()
        tok = self.tokens[self.pos]
        if tok is not _END:
            raise PolynomialParseError(
                f"unexpected token {tok!r} at column {self.column(self.pos)}"
            )
        return result

    def parse_sum(self) -> Polynomial:
        scale = None
        tok = self.tokens[self.pos]
        if tok == "+" or tok == "-":
            self.pos += 1
            scale = -1 if tok == "-" else None
        sums: dict[Exponents, Fraction] = {}
        while True:
            accumulate_terms(sums, self.parse_product(), scale)
            tok = self.tokens[self.pos]
            if tok != "+" and tok != "-":
                break
            self.pos += 1
            scale = -1 if tok == "-" else None
        return Polynomial._from_clean(self.dim, {e: c for e, c in sums.items() if c})

    def parse_product(self) -> dict[Exponents, Fraction]:
        """The terms of a product, its factors multiplied left to right.

        Up to the first parenthesized factor the product is one term, and
        each number or variable power multiplies its coefficient or its
        exponents, with the checks `product` makes on two one-term operands;
        from that factor on, `product` multiplies Polynomials.
        """
        # the product so far as one term (coeff None before the first factor),
        # or as `poly` once a parenthesized factor has joined it
        coeff, expts, degree, poly = None, [0] * self.dim, 0, None
        while True:
            factor = self.parse_factor()
            if poly is None and type(factor) is not Polynomial:
                if type(factor) is tuple:  # x_index^e
                    index, e = factor
                    if coeff is None:
                        coeff = _ONE
                    elif coeff:  # x^e has height 1
                        self.admit("single-term product", degree + e, 1, _term_height(coeff) + 1)
                    expts[index] += e
                    degree += e
                elif coeff is None:
                    coeff = factor
                else:
                    if coeff and factor:
                        self.admit(
                            "single-term product",
                            degree,
                            1,
                            _term_height(coeff) + _term_height(factor),
                        )
                    coeff *= factor
            else:
                if type(factor) is not Polynomial:
                    factor = self.factor_polynomial(factor)
                if poly is None and coeff is not None:
                    poly = Polynomial._from_clean(self.dim, {tuple(expts): coeff} if coeff else {})
                poly = factor if poly is None else self.product(poly, factor)
            tok = self.tokens[self.pos]
            if tok == "*":
                self.pos += 1
            elif not (tok == "(" or tok[0].isdecimal() or _is_ident(tok)):
                # anything else ends the product; a number, a name or "(" is
                # an implicit multiplication, e.g. "2x", "x y" or "x(x + y)"
                break
        if poly is not None:
            return poly._terms
        return {tuple(expts): coeff} if coeff else {}

    def factor_polynomial(self, factor: Fraction | tuple[int, int]) -> Polynomial:
        """A number or variable-power factor of `parse_factor` as a Polynomial."""
        if type(factor) is tuple:
            index, exponent = factor
            expts = [0] * self.dim
            expts[index] = exponent
            return Polynomial._from_clean(self.dim, {tuple(expts): _ONE})
        return Polynomial._from_clean(self.dim, {(0,) * self.dim: factor} if factor else {})

    def parse_factor(self) -> Polynomial | Fraction | tuple[int, int]:
        """A parenthesized sum and its power, a number, or (index, exponent) of a variable power."""
        tok = self.take()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise PolynomialParseError(
                    f"parentheses at column {self.column(self.pos - 1)} nest deeper than "
                    f"MAX_NESTING = {MAX_NESTING}"
                )
            self.depth += 1
            inner = self.parse_sum()
            self.depth -= 1
            closing = self.take()
            if closing != ")":
                raise PolynomialParseError(
                    f"expected ')' at column {self.column(self.pos - 1)}"
                )
            exponent = self.parse_exponent()
            return inner if exponent is None else self.power(inner, exponent)
        if tok[0].isdecimal():
            value = read_literal(tok)
            if self.tokens[self.pos] == "/":
                self.pos += 1
                den_tok = self.take()
                if not den_tok[0].isdecimal():
                    raise PolynomialParseError(
                        f"expected denominator at column {self.column(self.pos - 1)}"
                    )
                den = read_literal(den_tok)
                if den == 0:
                    raise PolynomialParseError("division by zero in coefficient")
                return Fraction(value, den)
            return as_fraction(value)
        if _is_ident(tok):
            name = tok
            if name not in self.index:
                known = ", ".join(self.index) or "(none)"
                raise PolynomialParseError(
                    f"unknown variable {name!r} (known: {known})"
                )
            exponent = self.parse_exponent()
            if exponent is None:
                exponent = 1
            else:
                self.admit("single-term power", exponent, 1, exponent)
            return self.index[name], exponent
        raise PolynomialParseError(
            f"unexpected token {tok!r} at column {self.column(self.pos - 1)}"
        )


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression like "2*y^2 - 3*x*y" over the given variables."""
    return _PolyParser(variables).parse(text)


# -- systems ---------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialSystem:
    """An autonomous ODE right-hand side: one polynomial per variable."""

    variables: tuple[str, ...]
    components: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.variables) != len(self.components):
            raise ValueError(
                f"{len(self.components)} components for {len(self.variables)} variables"
            )
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        for comp in self.components:
            if comp.dim != len(self.variables):
                raise ValueError(
                    f"component dimension {comp.dim} does not match {len(self.variables)} variables"
                )

    @property
    def dim(self) -> int:
        return len(self.variables)

    @cached_property
    def coded_terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per component, its (monomial code, int coefficient) pairs (see the module docstring).

        A monomial's code holds x_k's exponent in byte k; the coefficients are
        scaled by the lcm of all the system's denominators.  A system of total
        degree above MAX_DEGREE raises ValueError on every read.
        """
        den = 1
        coded = []
        for component in self.components:
            terms = []
            for expts, coeff in component._terms.items():
                if sum(expts) > MAX_DEGREE:
                    degree = max(c.degree() for c in self.components)
                    raise ValueError(f"system of degree {degree} is above MAX_DEGREE = {MAX_DEGREE}")
                d = coeff.denominator
                if den % d:
                    den = lcm(den, d)
                terms.append((int.from_bytes(expts, "little"), coeff.numerator, d))
            coded.append(terms)
        return tuple(tuple((code, num * (den // d)) for code, num, d in terms) for terms in coded)

    @classmethod
    def from_strings(cls, variables: Sequence[str], exprs: Sequence[str]) -> "PolynomialSystem":
        """Parse each expression over `variables` (identifiers) on one MAX_PARSE_TERMS budget."""
        vars_t = tuple(variables)
        for name in vars_t:
            # an identifier is what the expression tokenizer reads as one
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(
                    f"invalid variable name {name!r}: expected a letter or '_', "
                    "then letters, digits or '_'"
                )
        parser = _PolyParser(vars_t)
        return cls(vars_t, tuple(parser.parse(e) for e in exprs))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def render(self) -> str:
        return "{" + ", ".join(c.render(self.variables) for c in self.components) + "}"

    def to_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "components": [c.render(self.variables) for c in self.components],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolynomialSystem":
        try:
            variables = data["variables"]
            components = data["components"]
        except (KeyError, TypeError) as exc:
            raise ValueError("system JSON needs 'variables' and 'components'") from exc
        for name, value in (("variables", variables), ("components", components)):
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ValueError(f"system JSON {name!r} must be a list of strings")
        return cls.from_strings(variables, components)


def parse_system(text: str) -> PolynomialSystem:
    """Parse the plain-text system format.

    The first meaningful line is "vars x y ..."; each following line is one
    polynomial component.  Lines starting with '#' are comments.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines:
        raise ValueError("empty system description")
    header = lines[0].split()
    if header[0] != "vars" or len(header) < 2:
        raise ValueError('system must start with a "vars x y ..." line')
    variables = tuple(header[1:])
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names in vars line")
    body = lines[1:]
    if len(body) != len(variables):
        raise ValueError(
            f"expected {len(variables)} component lines, found {len(body)}"
        )
    return PolynomialSystem.from_strings(variables, body)
