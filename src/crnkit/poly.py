"""Exact multivariate polynomials over the rationals.

A polynomial in M variables is stored as a mapping from exponent tuples of
length M to nonzero Fraction coefficients.  Printing, hashing and iteration
use descending graded-lexicographic term order, so rendered forms are stable
and parse(render(p)) == p.

`Polynomial(dim, terms)` is the validating constructor for terms that come
from outside: it checks every exponent tuple and converts every coefficient.
Arithmetic and the exact pipeline build their results with the trusted
`Polynomial._from_clean(dim, terms)` instead, which stores the dict it is
given as is.  Its contract: the dict is not shared with anyone else, every
key is a tuple of `dim` non-negative ints, and every value is a nonzero
`Fraction`.

The parser bounds exact expansion: before each `*` and `**` it checks the
degree and a bound on the term count of the result against `MAX_DEGREE`
and `MAX_TERMS`, and the sum of the term-count bounds above 1 of every
expansion so far against `MAX_PARSE_TERMS`, so no expansion starts that
could exceed them.  A product or power of single terms expands nothing and
is not charged; instead the numerator and denominator of its coefficient
are bounded by `MAX_COEFFICIENT_BITS`.  It also refuses parentheses nested
deeper than `MAX_NESTING`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence, Union

from .numbers import format_rational, parse_rational

Exponents = tuple[int, ...]
Scalar = Union[Fraction, int]

# Caps on what the parser may expand: the total degree of any product or
# power (and any exponent), a bound on its number of terms, and the sum of
# those bounds above 1 over one parse.
MAX_DEGREE = 100
MAX_TERMS = 2_000
MAX_PARSE_TERMS = 5_000
# Cap on parenthesis nesting, which the recursive-descent parser recurses on.
MAX_NESTING = 100
# Cap on the bit length of the numerator and denominator of the coefficient
# of a product or power of single terms, which nothing else charges: nested
# constant powers would multiply it by up to MAX_DEGREE per level, and a
# chain like 3*3*...*3 grows it in time quadratic in its length.  It admits
# every literal parse_rational accepts (10^1000 has 3,322 bits).
MAX_COEFFICIENT_BITS = 10_000


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key for graded-lexicographic order (degree first, then lex)."""
    return (sum(exponents), exponents)


def accumulate_terms(
    sums: dict[Exponents, Fraction],
    terms: Mapping[Exponents, Fraction],
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
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
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

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self.sorted_terms())

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
            c = other if type(other) is Fraction else Fraction(other)
            return Polynomial._from_clean(
                self.dim, {e: v * c for e, v in self._terms.items()}
            )
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
        values = [Fraction(p) for p in point]
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

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


class PolynomialParseError(ValueError):
    """Raised for malformed polynomial expressions."""


def _tokenize_poly(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise PolynomialParseError(
                f"unexpected character {text[pos]!r} at column {pos + 1}"
            )
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    return tokens


def _bits(value: Fraction) -> int:
    """Bit length of the larger of the numerator and denominator of `value`."""
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class _PolyParser:
    def __init__(self, tokens: list[tuple[str, str, int]], variables: Sequence[str]):
        self.tokens = tokens
        self.index = {name: i for i, name in enumerate(variables)}
        self.dim = len(variables)
        self.pos = 0
        self.depth = 0
        self.expanded = 0  # summed term-count bounds of the expansions so far

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise PolynomialParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def check_expansion(self, degree: int, terms: int):
        """Refuse an expansion of this degree or term-count bound; charge a bound above 1."""
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

    @staticmethod
    def check_coefficient(kind: str, bits: int):
        """Refuse a coefficient whose bit-length bound exceeds MAX_COEFFICIENT_BITS."""
        if bits > MAX_COEFFICIENT_BITS:
            raise PolynomialParseError(
                f"{kind} could reach {bits} bits, above "
                f"MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS}"
            )

    def product(self, left: Polynomial, right: Polynomial) -> Polynomial:
        if not left.is_zero() and not right.is_zero():
            degree = left.degree() + right.degree()
            count = len(left.terms()) * len(right.terms())
            self.check_expansion(degree, min(count, comb(degree + self.dim, self.dim)))
            if count == 1:
                (a,) = left.terms().values()
                (b,) = right.terms().values()
                self.check_coefficient("single-term product", _bits(a) + _bits(b))
        return left * right

    def power(self, base: Polynomial, exponent: int) -> Polynomial:
        if exponent > MAX_DEGREE:
            raise PolynomialParseError(
                f"exponent {exponent} is above MAX_DEGREE = {MAX_DEGREE}"
            )
        terms = len(base.terms())
        if terms == 1:
            (value,) = base.terms().values()
            kind = "constant power" if base.degree() == 0 else "single-term power"
            self.check_coefficient(kind, exponent * _bits(value))
        if terms:
            degree = exponent * base.degree()
            # a^n has at most one term per multiset of n of a's terms
            self.check_expansion(
                degree,
                min(comb(exponent + terms - 1, terms - 1), comb(degree + self.dim, self.dim)),
            )
        return base**exponent

    def parse_power(self, base: Polynomial) -> Polynomial:
        """`base`, raised to the exponent if `^ integer` follows."""
        nxt = self.peek()
        if nxt and nxt[0] == "op" and nxt[1] == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok[0] != "number" or "." in exp_tok[1]:
                raise PolynomialParseError(
                    f"expected integer exponent at column {exp_tok[2] + 1}"
                )
            return self.power(base, int(exp_tok[1]))
        return base

    def parse(self) -> Polynomial:
        result = self.parse_sum()
        tok = self.peek()
        if tok is not None:
            raise PolynomialParseError(
                f"unexpected token {tok[1]!r} at column {tok[2] + 1}"
            )
        return result

    def parse_sum(self) -> Polynomial:
        scale = None
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.take()
            scale = -1 if tok[1] == "-" else None
        sums: dict[Exponents, Fraction] = {}
        while True:
            accumulate_terms(sums, self.parse_product()._terms, scale)
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            self.take()
            scale = -1 if tok[1] == "-" else None
        return Polynomial._from_clean(self.dim, {e: c for e, c in sums.items() if c})

    def parse_product(self) -> Polynomial:
        result = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok[0] == "op" and tok[1] == "*":
                self.take()
                result = self.product(result, self.parse_factor())
            elif tok[0] in ("number", "ident") or (tok[0] == "op" and tok[1] == "("):
                # implicit multiplication, e.g. "2x", "x y" or "x(x + y)"
                result = self.product(result, self.parse_factor())
            else:
                break
        return result

    def parse_factor(self) -> Polynomial:
        tok = self.take()
        if tok[0] == "op" and tok[1] == "(":
            if self.depth == MAX_NESTING:
                raise PolynomialParseError(
                    f"parentheses at column {tok[2] + 1} nest deeper than "
                    f"MAX_NESTING = {MAX_NESTING}"
                )
            self.depth += 1
            inner = self.parse_sum()
            self.depth -= 1
            closing = self.take()
            if closing[0] != "op" or closing[1] != ")":
                raise PolynomialParseError(
                    f"expected ')' at column {closing[2] + 1}"
                )
            return self.parse_power(inner)
        if tok[0] == "number":
            value = parse_rational(tok[1])
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den_tok = self.take()
                if den_tok[0] != "number":
                    raise PolynomialParseError(
                        f"expected denominator at column {den_tok[2] + 1}"
                    )
                den = parse_rational(den_tok[1])
                if den == 0:
                    raise PolynomialParseError("division by zero in coefficient")
                value = value / den
            return Polynomial.constant(self.dim, value)
        if tok[0] == "ident":
            name = tok[1]
            if name not in self.index:
                known = ", ".join(self.index) or "(none)"
                raise PolynomialParseError(
                    f"unknown variable {name!r} (known: {known})"
                )
            return self.parse_power(Polynomial.variable(self.dim, self.index[name]))
        raise PolynomialParseError(
            f"unexpected token {tok[1]!r} at column {tok[2] + 1}"
        )


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse an expression like "2*y^2 - 3*x*y" over the given variables."""
    tokens = _tokenize_poly(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial expression")
    return _PolyParser(tokens, variables).parse()


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

    @classmethod
    def from_strings(cls, variables: Sequence[str], exprs: Sequence[str]) -> "PolynomialSystem":
        """Parse each expression over `variables`, each of which must be an identifier."""
        vars_t = tuple(variables)
        for name in vars_t:
            # an identifier is what the expression tokenizer reads as one
            match = _TOKEN_RE.fullmatch(name)
            if match is None or match.lastgroup != "ident":
                raise ValueError(
                    f"invalid variable name {name!r}: expected a letter or '_', "
                    "then letters, digits or '_'"
                )
        return cls(vars_t, tuple(parse_polynomial(e, vars_t) for e in exprs))

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
