"""Reaction networks and the text format that describes them.

A network is a list of species and a list of irreversible steps, each with a
reactant complex, a product complex and a rate that is either an exact
rational or a named parameter bound later.  The text format, one chain per
line:

    chain   := complex (arrow complex)+
    arrow   := "->[" rate "]" | "<-[" rate "]" | "<=>[" rate "," rate "]"
    complex := "0" | term ("+" term)*
    term    := [coefficient] species
    rate    := part ("+" part)*          # parts are numbers or parameter names

"<-" reverses the step, "<=>" expands to a forward and a backward step, and
longer chains contribute one step per arrow.  Stoichiometric coefficients
are positive rationals; reactant-side coefficients must be integers so the
mass-action monomials stay polynomial.  Duplicate (reactant, product) pairs
are merged by summing rates, with a warning, since they are indistinguishable
in the induced dynamics.

A species name and a rate parameter name match `_NAME_RE` whole, so a
trailing newline is refused; the text tokenizer reads the same pattern.  A
str rate, in a `ReactionStep` or in JSON, is read by `_read_rate` alone:
each "+"-separated part is a literal greater than 0 or a parameter name,
and a literal is read by `numbers.read_literal`, as a number token is.
`ReactionStep` alone decides a rate's stored form (see its docstring), so
a rendered network always parses back to itself.
A JSON rate is a string or a number, read as its decimal text.

`Complex`, `ReactionStep` and `ReactionNetwork` check every value they are
given: each number is stored as `poly.as_fraction` converts it, and its
bound is tested by `numbers.exceeds_literal_bound`.  Code that builds values valid by construction (the text parser, the
canonical realization) uses their private `_from_clean` constructors
instead, which store what they are given as is; each states its contract.

The text parser reads each chain's tokens with the `numbers.Lexer` both
text formats share, one `findall` per chain, and walks them by index.
Columns are not kept: a refusal finds its token's column by reading the
chain again, and a character no token starts with is refused before any
other fault of its chain.  Each step passes `_checked_step`, the one owner
of the checks `ReactionStep` makes, before `_from_clean` builds it.  Steps
with the same reactant and product are merged by `_merged`, the one merge
routine, which `ReactionNetwork.__init__` calls too, and the network is
built with `_from_clean`.

`json_text` is crnkit's one JSON writer: `ReactionNetwork.to_json` and every
CLI report and --out file go through it.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import inf
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .numbers import (
    DECIMAL,
    Lexer,
    exceeds_literal_bound,
    format_rational,
    outside_literal_bound,
    parse_rational,
    read_literal,
)
from .poly import MAX_DEGREE, SMALL_FRACTIONS, as_fraction

Rate = Fraction | str
Matrix = list[list[Fraction]]

# A species name or a rate parameter name, matched only with fullmatch.
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SPACED_PLUS_RE = re.compile(r"\s*\+\s*")

class NetworkSyntaxError(ValueError):
    """Malformed network text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NetworkValidationError(ValueError):
    """Structurally invalid network (bad coefficients, self-loops, ...)."""


class UnboundParameterError(ValueError):
    """A symbolic rate was used without a numeric binding."""

    def __init__(self, name: str):
        super().__init__(f"rate parameter {name!r} is not bound")
        self.name = name


@dataclass(frozen=True)
class Complex:
    """A formal linear combination of species with positive coefficients.

    An int (or bool) coefficient is stored as a Fraction, so every entry and
    every net change built from it holds Fractions only.
    """

    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        seen = set()
        entries = []
        for index, coeff in self.entries:
            if index in seen:
                raise NetworkValidationError(f"species index {index} repeated in complex")
            seen.add(index)
            if not isinstance(coeff, (int, Fraction)):
                raise NetworkValidationError(
                    f"stoichiometric coefficient must be a Fraction or an int, "
                    f"got {type(coeff).__name__}"
                )
            if coeff <= 0:
                raise NetworkValidationError(
                    f"stoichiometric coefficient must be positive, got {coeff}"
                )
            if exceeds_literal_bound(coeff):
                raise NetworkValidationError(outside_literal_bound("stoichiometric coefficient"))
            entries.append((index, as_fraction(coeff)))
        object.__setattr__(self, "entries", tuple(sorted(entries, key=lambda e: e[0])))

    @classmethod
    def _from_clean(cls, entries: tuple[tuple[int, Fraction], ...]) -> "Complex":
        """Trusted constructor: `entries` sorted by distinct index, each a positive Fraction."""
        cpx = object.__new__(cls)
        object.__setattr__(cpx, "entries", entries)
        return cpx

    @classmethod
    def from_mapping(cls, coeffs: Mapping[int, Fraction | int]) -> "Complex":
        """The complex of {species index: coefficient}; the constructor checks each nonzero one."""
        return cls(tuple((i, c) for i, c in coeffs.items() if c != 0))

    def coefficient(self, index: int) -> Fraction:
        for i, c in self.entries:
            if i == index:
                return c
        return Fraction(0)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def max_index(self) -> int:
        return max((i for i, _ in self.entries), default=-1)

    def render(self, species: Sequence[str]) -> str:
        if self.is_empty:
            return "0"
        parts = []
        for index, coeff in self.entries:
            name = species[index]
            parts.append(name if coeff == 1 else f"{format_rational(coeff)}{name}")
        return " + ".join(parts)


def format_rate(rate: Rate) -> str:
    return format_rational(rate) if isinstance(rate, Fraction) else rate


def resolve_rate(rate: Rate, binding: Mapping[str, Fraction] | None = None) -> Fraction:
    """Resolve a literal or parameter (or '+'-joined sum) to a Fraction."""
    if isinstance(rate, Fraction):
        return rate
    total = Fraction(0)
    for part in _read_rate(rate):
        if isinstance(part, str):
            if binding is None or part not in binding:
                raise UnboundParameterError(part)
            part = as_fraction(binding[part])
        total += part
    return total


def _read_rate(rate: str) -> list[int | Fraction | str]:
    """Per '+'-separated part of `rate`: a literal's value, or a parameter's name.

    A part that starts with a digit is a literal, which read_literal must
    read as greater than 0; any other part must be a parameter name.
    Raises NetworkValidationError for any other part.
    """
    parts: list[int | Fraction | str] = []
    for part in rate.split("+"):
        if not part:
            raise NetworkValidationError(f"invalid rate {rate!r}")
        if not part[:1].isdigit():
            if not _NAME_RE.fullmatch(part):
                raise NetworkValidationError(f"invalid rate parameter {part!r}")
            parts.append(part)
            continue
        try:
            value = read_literal(part)
        except ValueError as exc:
            raise NetworkValidationError(str(exc)) from None
        if value <= 0:
            raise NetworkValidationError(f"rate must be positive, got {part}")
        parts.append(value)
    return parts


@dataclass(frozen=True)
class ReactionStep:
    """One irreversible reaction: reactant complex -> product complex.

    The rate is a Fraction greater than 0 (an int is stored as one) or a str
    of parts joined by '+', each a parameter name or a literal that
    read_literal reads as greater than 0.  A str rate is stored as the sum
    of its parts, a Fraction, when every part is a literal, and otherwise
    as its parts in their order with each literal written by
    format_rational.  A Fraction rate, given or summed, must have a
    numerator and a denominator below LITERAL_BOUND, as every coefficient
    of a `Complex` must, so `render()` writes a rate the text format reads.
    """

    reactant: Complex
    product: Complex
    rate: Rate

    def __post_init__(self):
        rate, net_change = _checked_step(self.reactant, self.product, self.rate)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "_net_change", net_change)

    @classmethod
    def _from_clean(
        cls, reactant: Complex, product: Complex, rate: Rate, net_change: dict[int, Fraction]
    ) -> "ReactionStep":
        """Trusted constructor for a step that passes every check of `__post_init__`.

        `rate` must be the stored form and `net_change` the unshared dict that
        `_checked_step` returns for the step.
        """
        step = object.__new__(cls)
        object.__setattr__(step, "reactant", reactant)
        object.__setattr__(step, "product", product)
        object.__setattr__(step, "rate", rate)
        object.__setattr__(step, "_net_change", net_change)
        return step

    @property
    def net_change(self) -> Mapping[int, Fraction]:
        """Product minus reactant as a read-only sparse row, built with the step.

        Maps each species index the step changes to its nonzero Fraction
        change; a catalyst has no entry.  The exact searches read it as one
        row of gamma^T.
        """
        return MappingProxyType(self._net_change)

    def render(self, species: Sequence[str]) -> str:
        return (
            f"{self.reactant.render(species)} ->[{format_rate(self.rate)}] "
            f"{self.product.render(species)}"
        )


# -Fraction(k) for every reactant coefficient k a step may have (up to MAX_DEGREE)
_NEGATED_SMALL_FRACTIONS = tuple(-f for f in SMALL_FRACTIONS)


def _checked_step(reactant: Complex, product: Complex, rate) -> tuple[Rate, dict[int, Fraction]]:
    """A step's stored rate and net change, after every check `ReactionStep` makes.

    The one owner of those checks, in their order: `__post_init__` calls it,
    and so does the text parser before it builds a step with `_from_clean`.
    Raises NetworkValidationError.
    """
    if reactant == product:
        raise NetworkValidationError("step has identical reactant and product")
    if type(rate) is int:
        rate = as_fraction(rate)
    elif isinstance(rate, str):
        parts = _read_rate(rate)
        if any(isinstance(part, str) for part in parts):
            rate = "+".join(
                part if isinstance(part, str) else format_rational(part) for part in parts
            )
        else:
            rate = sum(parts, Fraction(0))
    elif not isinstance(rate, Fraction):
        raise NetworkValidationError(
            f"rate must be a Fraction, an int or a str, got {type(rate).__name__}"
        )
    if isinstance(rate, Fraction):
        if rate.numerator <= 0:
            raise NetworkValidationError(f"rate must be positive, got {rate}")
        # a sum of parts, or a value built in Python, may need longer literals
        if exceeds_literal_bound(rate):
            raise NetworkValidationError(outside_literal_bound("rate"))
    # reactant coefficients become the exponents of the rate monomial
    degree = 0
    for _, coeff in reactant.entries:
        if coeff.denominator != 1:
            raise NetworkValidationError("reactant-side coefficients must be nonnegative integers")
        degree += coeff.numerator
    check_reactant_degree(degree)
    # each reactant coefficient is now an integer of at most MAX_DEGREE
    change = dict(product.entries)
    for index, coeff in reactant.entries:
        if index in change:
            change[index] = change[index] - coeff
        else:
            change[index] = _NEGATED_SMALL_FRACTIONS[coeff.numerator]
    return rate, {i: c for i, c in change.items() if c}


def check_reactant_degree(degree: int) -> None:
    """Raise NetworkValidationError for a reactant complex of degree above MAX_DEGREE."""
    if degree > MAX_DEGREE:
        raise NetworkValidationError(
            f"reactant complex of degree {degree} is above MAX_DEGREE = {MAX_DEGREE}"
        )


def check_species_names(species: Iterable[str]) -> None:
    """Raise NetworkValidationError for the first name that is not a species name."""
    for name in species:
        if not _NAME_RE.fullmatch(name):
            raise NetworkValidationError(f"invalid species name {name!r}")


def json_text(value) -> str:
    """The text `json.dumps(value, indent=2, sort_keys=True)` gives.

    The one writer of crnkit's JSON text: every --json report, every --out
    file and manifest, and `ReactionNetwork.to_json`.  With an indent,
    `json.dumps` runs its pure-Python encoder; this joins strings instead,
    about twice as fast on CPython 3.11, and quotes with the string quoter
    `json` itself uses.  Dicts are written with their items sorted, tuples
    as lists, and a float by its repr or as NaN, Infinity or -Infinity.  Any
    other type raises the TypeError `json.dumps` raises.  A dict key must be
    a str: crnkit writes no other, and where `json.dumps` would convert an
    int, float, bool or None key, this raises TypeError.  A value that
    contains itself exceeds the recursion limit.
    """
    return _json(value, "\n")


def _json(value, newline: str) -> str:
    """`value`'s JSON text, each nested line indented two spaces past `newline`."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        # a str item, the most common one, is quoted without a call
        items = [_quote(v) if type(v) is str else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            _quote(k) + ": " + (_quote(v) if type(v) is str else _json(v, inner))
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == inf:
            return "Infinity"
        if value == -inf:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _merged(species: tuple[str, ...], steps: Sequence[ReactionStep]) -> tuple[ReactionStep, ...]:
    """`steps` with each (reactant, product) pair once: the one merge of duplicate steps.

    A later duplicate warns at the caller of `ReactionNetwork(...)` or
    `parse_network`, and its rate is joined to the kept step's with '+'.
    """
    merged: dict[tuple[Complex, Complex], ReactionStep] = {}
    for step in steps:
        # one hash of the key; it is reassigned only for a duplicate
        key = (step.reactant, step.product)
        size = len(merged)
        kept = merged.setdefault(key, step)
        if len(merged) == size:
            warnings.warn(
                f"duplicate step {step.render(species)} merged by summing rates",
                stacklevel=3,
            )
            rate = f"{format_rate(kept.rate)}+{format_rate(step.rate)}"
            merged[key] = ReactionStep(step.reactant, step.product, rate)
    return tuple(merged.values())


class ReactionNetwork:
    """Ordered species plus reaction steps; duplicates merged on build by `_merged`."""

    def __init__(self, species: Sequence[str], steps: Iterable[ReactionStep]):
        species = tuple(species)
        if len(set(species)) != len(species):
            raise NetworkValidationError("duplicate species names")
        check_species_names(species)
        steps = tuple(steps)
        for step in steps:
            hi = max(step.reactant.max_index(), step.product.max_index())
            if hi >= len(species):
                raise NetworkValidationError(
                    f"species index {hi} out of range for {len(species)} species"
                )
        self.species = species
        self.steps = _merged(species, steps)

    @classmethod
    def _from_clean(
        cls, species: tuple[str, ...], steps: tuple[ReactionStep, ...]
    ) -> "ReactionNetwork":
        """Trusted constructor: distinct valid species names, and distinct steps
        (no two with the same reactant and product) over their indices."""
        network = object.__new__(cls)
        network.species = species
        network.steps = steps
        return network

    # -- structure ---------------------------------------------------------

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def unused_species(self) -> tuple[str, ...]:
        used = set()
        for step in self.steps:
            for index, _ in step.reactant.entries:
                used.add(index)
            for index, _ in step.product.entries:
                used.add(index)
        return tuple(s for i, s in enumerate(self.species) if i not in used)

    @property
    def is_proper(self) -> bool:
        """True when nonempty and every species occurs in some step."""
        return bool(self.steps) and not self.unused_species()

    def rate_parameters(self) -> tuple[str, ...]:
        names: list[str] = []
        for step in self.steps:
            if isinstance(step.rate, str):
                for part in _read_rate(step.rate):
                    if isinstance(part, str) and part not in names:
                        names.append(part)
        return tuple(names)

    def stoichiometric_matrices(self) -> tuple[Matrix, Matrix, Matrix]:
        """Reactant, product and net matrices (species x steps)."""
        m, r = self.num_species, self.num_steps
        alpha = [[Fraction(0)] * r for _ in range(m)]
        beta = [[Fraction(0)] * r for _ in range(m)]
        for col, step in enumerate(self.steps):
            for index, coeff in step.reactant.entries:
                alpha[index][col] = coeff
            for index, coeff in step.product.entries:
                beta[index][col] = coeff
        gamma = [
            [beta[i][j] - alpha[i][j] for j in range(r)] for i in range(m)
        ]
        return alpha, beta, gamma

    # -- equality and rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReactionNetwork):
            return NotImplemented
        return self.species == other.species and self.steps == other.steps

    def __hash__(self) -> int:
        return hash((self.species, self.steps))

    def render(self) -> str:
        return "\n".join(step.render(self.species) for step in self.steps)

    def __repr__(self) -> str:
        return f"ReactionNetwork(species={self.species!r}, steps={len(self.steps)})"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        def complex_dict(cpx: Complex) -> dict[str, str]:
            return {
                self.species[i]: format_rational(c) for i, c in cpx.entries
            }

        return {
            "species": list(self.species),
            "steps": [
                {
                    "reactant": complex_dict(step.reactant),
                    "product": complex_dict(step.product),
                    "rate": format_rate(step.rate),
                }
                for step in self.steps
            ],
        }

    def to_json(self) -> str:
        """`to_dict()` as JSON text, written by `json_text` like every CLI report."""
        return json_text(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping) -> "ReactionNetwork":
        try:
            species = data["species"]
            raw_steps = data["steps"]
        except (KeyError, TypeError) as exc:
            raise ValueError("network JSON needs 'species' and 'steps'") from exc
        if not isinstance(species, list) or not all(isinstance(s, str) for s in species):
            raise ValueError("network JSON 'species' must be a list of names")
        if not isinstance(raw_steps, list):
            raise ValueError("network JSON 'steps' must be a list of steps")
        index = {name: i for i, name in enumerate(species)}

        def read_complex(entry: Mapping) -> Complex:
            coeffs = {}
            for name, value in entry.items():
                if name not in index:
                    raise ValueError(f"unknown species {name!r} in complex")
                coeffs[index[name]] = parse_rational(str(value))
            # unlike from_mapping, keeps a zero for Complex to reject
            return Complex(tuple(coeffs.items()))

        steps = []
        for number, raw in enumerate(raw_steps, start=1):
            where = f"network JSON step {number}"
            if not isinstance(raw, Mapping):
                raise ValueError(f"{where} must be an object")
            for key in ("rate", "reactant", "product"):
                if key not in raw:
                    raise ValueError(f"{where} has no {key!r}")
            for key in ("reactant", "product"):
                if not isinstance(raw[key], Mapping):
                    raise ValueError(f"{where} {key!r} must map species names to coefficients")
            value = raw["rate"]
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(
                    f"{where} 'rate' must be a string or a number, got {type(value).__name__}"
                )
            try:
                reactant = read_complex(raw["reactant"])
                product = read_complex(raw["product"])
                if isinstance(value, str):
                    # whitespace around the parts is dropped
                    rate = _SPACED_PLUS_RE.sub("+", value.strip())
                else:
                    # a number is one literal, read from its decimal text
                    try:
                        rate = parse_rational(str(value))
                    except ValueError as exc:
                        raise NetworkValidationError(str(exc)) from None
                steps.append(ReactionStep(reactant, product, rate))
            except ValueError as exc:
                # the step's own faults keep their type and gain its number
                raise type(exc)(f"{where}: {exc}") from None
        return cls(species, steps)


# -- text parsing -----------------------------------------------------------

_NET_LEXER = Lexer(
    r"<=>\[", r"<-\[", r"->\[", rf"{DECIMAL}(?:/\d+)?", _NAME_RE.pattern, r"[+,\]]"
)
_ARROWS = ("->[", "<-[", "<=>[")


def _is_name(token: str) -> bool:
    """Is `token` a name token?  Only a name starts with an ASCII letter."""
    return token[0].isalpha() and token.isascii()


class _ChainError(Exception):
    """A refusal inside one chain; its args are the message and the index of its token."""


def _number(token: str, index: int) -> int | Fraction:
    """A number token's value by read_literal; a literal it refuses is refused at the token."""
    try:
        return read_literal(token)
    except ValueError as exc:
        raise _ChainError(str(exc), index) from None


def _parse_complex(
    tokens: list[str], pos: int, species_index: dict[str, int], species_order: list[str]
) -> tuple[Complex, int]:
    """The complex from tokens[pos] on and the position after it."""
    count = len(tokens)
    coeffs: dict[int, int | Fraction] = {}
    first = True
    while True:
        if pos == count:
            raise _ChainError("expected a complex", count - 1)
        at = pos
        token = tokens[pos]
        pos += 1
        if token[0].isdecimal():
            value = _number(token, at)
            if pos < count and _is_name(tokens[pos]):
                if value <= 0:
                    raise _ChainError(
                        f"stoichiometric coefficient must be positive, got {token}", at
                    )
                name = tokens[pos]
                pos += 1
            elif value == 0 and first:
                # bare "0" is the empty complex
                return Complex._from_clean(()), pos
            else:
                raise _ChainError(f"unexpected number {token!r}", at)
        elif _is_name(token):
            value, name = 1, token
        else:
            raise _ChainError(f"expected species term, found {token!r}", at)
        index = species_index.get(name)
        if index is None:
            index = species_index[name] = len(species_order)
            species_order.append(name)
        old = coeffs.get(index)
        if old is not None:
            # one literal keeps the bound; a sum of several may not
            value += old
            if exceeds_literal_bound(value):
                raise _ChainError(outside_literal_bound("stoichiometric coefficient"), at)
        coeffs[index] = value
        first = False
        if pos < count and tokens[pos] == "+":
            pos += 1
            continue
        # merged per species, every sum positive
        return Complex._from_clean(tuple((i, as_fraction(c)) for i, c in sorted(coeffs.items()))), pos


def _parse_rate(tokens: list[str], pos: int) -> tuple[Rate, int]:
    """The rate from tokens[pos] on and the position after it: a Fraction when
    every part is a number, else the parts joined by '+'."""
    count = len(tokens)
    parts: list[str] = []
    total: int | Fraction = 0
    numeric = True
    while True:
        if pos == count:
            raise _ChainError("unexpected end of line", count - 1)
        token = tokens[pos]
        if token[0].isdecimal():
            value = _number(token, pos)
            if value <= 0:
                raise _ChainError(f"rate must be positive, got {token}", pos)
            total += value
        elif _is_name(token):
            numeric = False
        else:
            raise _ChainError(f"expected rate, found {token!r}", pos)
        parts.append(token)
        pos += 1
        if pos == count or tokens[pos] != "+":
            return (as_fraction(total) if numeric else "+".join(parts)), pos
        pos += 1


def _expect(tokens: list[str], pos: int, symbol: str, kind: str) -> int:
    """The position after tokens[pos], which must be `symbol`."""
    if pos == len(tokens):
        raise _ChainError("unexpected end of line", pos - 1)
    if tokens[pos] != symbol:
        raise _ChainError(f"expected {kind}, found {tokens[pos]!r}", pos)
    return pos + 1


def _step(reactant: Complex, product: Complex, rate: Rate, arrow: int) -> ReactionStep:
    """A step checked by `_checked_step`, refused at the token of its arrow."""
    try:
        rate, net_change = _checked_step(reactant, product, rate)
    except NetworkValidationError as exc:
        raise _ChainError(str(exc), arrow) from None
    return ReactionStep._from_clean(reactant, product, rate, net_change)


def _parse_chain(
    tokens: list[str],
    species_index: dict[str, int],
    species_order: list[str],
    steps: list[ReactionStep],
) -> None:
    """Append the steps of the chain `tokens` to `steps`."""
    count = len(tokens)
    left, pos = _parse_complex(tokens, 0, species_index, species_order)
    if pos == count:
        raise _ChainError("chain needs at least one arrow", count - 1)
    while pos < count:
        arrow_at = pos
        arrow = tokens[pos]
        if arrow not in _ARROWS:
            raise _ChainError(f"expected an arrow, found {arrow!r}", pos)
        forward, pos = _parse_rate(tokens, pos + 1)
        if arrow == "<=>[":
            backward, pos = _parse_rate(tokens, _expect(tokens, pos, ",", "comma"))
        pos = _expect(tokens, pos, "]", "rbracket")
        right, pos = _parse_complex(tokens, pos, species_index, species_order)
        if arrow == "<-[":
            steps.append(_step(right, left, forward, arrow_at))
        else:
            steps.append(_step(left, right, forward, arrow_at))
            if arrow == "<=>[":
                steps.append(_step(right, left, backward, arrow_at))
        left = right


def _syntax_error(
    line: str, start: int, end: int, line_no: int, message: str, index: int
) -> NetworkSyntaxError:
    """The refusal of the chain line[start:end] at its token `index`.

    A character no token starts with is refused before any other fault of
    its chain, as a tokenizer that reads the whole chain first refuses it.
    """
    bad = _NET_LEXER.first_unexpected(line, start, end)
    if bad is not None:
        return NetworkSyntaxError(f"unexpected character {line[bad]!r}", line_no, bad + 1)
    return NetworkSyntaxError(message, line_no, _NET_LEXER.column(line, index, start, end))


def parse_network(text: str) -> ReactionNetwork:
    """Parse the reaction text format into a ReactionNetwork.

    Species are numbered in order of first appearance.  '#' starts a comment;
    ';' separates chains on one line.  `_merged` merges duplicate steps, as
    it does for the public constructor.
    """
    species_index: dict[str, int] = {}
    species_order: list[str] = []
    steps: list[ReactionStep] = []
    any_content = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        start = 0
        for piece in line.split(";"):
            end = start + len(piece)
            tokens = _NET_LEXER.split(line, start, end)
            if tokens:
                any_content = True
                try:
                    _parse_chain(tokens, species_index, species_order, steps)
                except _ChainError as exc:
                    raise _syntax_error(line, start, end, line_no, *exc.args) from None
            start = end + 1
    if not any_content:
        raise NetworkSyntaxError("no reactions found", 1, 1)
    species = tuple(species_order)
    return ReactionNetwork._from_clean(species, _merged(species, steps))
