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

`Complex`, `ReactionStep` and `ReactionNetwork` check every value they are
given.  Code that builds values valid by construction (the text parser's
complexes, the canonical realization) uses their private `_from_clean`
constructors instead, which store what they are given as is; each states
its contract.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .numbers import MAX_EXPONENT, format_rational, parse_rational
from .poly import MAX_DEGREE

Rate = Fraction | str
Matrix = list[list[Fraction]]

_SPECIES_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

# Fraction(i) for every coefficient a realization can store (0..MAX_DEGREE + 1),
# shared so that building a complex creates no Fraction for a small integer.
SMALL_FRACTIONS = tuple(Fraction(i) for i in range(MAX_DEGREE + 2))


def _as_fraction(value: int | Fraction) -> Fraction:
    """A non-negative int or a Fraction as a Fraction, small ints from the table."""
    if type(value) is int:
        return SMALL_FRACTIONS[value] if value < len(SMALL_FRACTIONS) else Fraction(value)
    return value


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
    """A formal linear combination of species with positive coefficients."""

    entries: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        seen = set()
        for index, coeff in self.entries:
            if index in seen:
                raise NetworkValidationError(f"species index {index} repeated in complex")
            seen.add(index)
            if coeff <= 0:
                raise NetworkValidationError(
                    f"stoichiometric coefficient must be positive, got {coeff}"
                )
        object.__setattr__(
            self, "entries", tuple(sorted(self.entries, key=lambda e: e[0]))
        )

    @classmethod
    def _from_clean(cls, entries: tuple[tuple[int, Fraction], ...]) -> "Complex":
        """Trusted constructor: `entries` sorted by distinct index, each a positive Fraction."""
        cpx = object.__new__(cls)
        object.__setattr__(cpx, "entries", entries)
        return cpx

    @classmethod
    def from_mapping(cls, coeffs: Mapping[int, Fraction | int]) -> "Complex":
        return cls(tuple((i, Fraction(c)) for i, c in coeffs.items() if c != 0))

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

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.entries)

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


def _rate_parts(rate: Rate) -> list[str]:
    if isinstance(rate, Fraction):
        return [format_rational(rate)]
    return rate.split("+")


def _merge_rates(a: Rate, b: Rate) -> Rate:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return "+".join(_rate_parts(a) + _rate_parts(b))


def format_rate(rate: Rate) -> str:
    return format_rational(rate) if isinstance(rate, Fraction) else rate


def resolve_rate(rate: Rate, binding: Mapping[str, Fraction] | None = None) -> Fraction:
    """Resolve a literal or parameter (or '+'-joined sum) to a Fraction."""
    if isinstance(rate, Fraction):
        return rate
    total = Fraction(0)
    for part in _rate_parts(rate):
        if part[:1].isdigit():
            total += parse_rational(part)
        else:
            if binding is None or part not in binding:
                raise UnboundParameterError(part)
            total += Fraction(binding[part])
    return total


def _parse_rate_text(text: str) -> Rate:
    parts = [p.strip() for p in text.split("+")]
    if any(not p for p in parts):
        raise ValueError(f"invalid rate {text!r}")
    numeric = all(p[:1].isdigit() for p in parts)
    if numeric:
        total = sum((parse_rational(p) for p in parts), Fraction(0))
        if total <= 0:
            raise ValueError(f"rate must be positive, got {text!r}")
        return total
    for p in parts:
        if not p[:1].isdigit() and not _SPECIES_RE.match(p):
            raise ValueError(f"invalid rate parameter {p!r}")
    return "+".join(parts)


@dataclass(frozen=True)
class ReactionStep:
    """One irreversible reaction: reactant complex -> product complex."""

    reactant: Complex
    product: Complex
    rate: Rate

    def __post_init__(self):
        if self.reactant == self.product:
            raise NetworkValidationError("step has identical reactant and product")
        if isinstance(self.rate, Fraction) and self.rate <= 0:
            raise NetworkValidationError(f"rate must be positive, got {self.rate}")
        if not self.reactant.is_integral():
            raise NetworkValidationError(
                "reactant-side coefficients must be nonnegative integers"
            )
        # reactant coefficients become the exponents of the rate monomial
        degree = sum(c.numerator for _, c in self.reactant.entries)
        if degree > MAX_DEGREE:
            raise NetworkValidationError(
                f"reactant complex of degree {degree} is above MAX_DEGREE = {MAX_DEGREE}"
            )
        change = dict(self.product.entries)
        for index, coeff in self.reactant.entries:
            change[index] = change[index] - coeff if index in change else -coeff
        object.__setattr__(self, "_net_change", {i: c for i, c in change.items() if c})

    @classmethod
    def _from_clean(
        cls, reactant: Complex, product: Complex, rate: Fraction, net_change: dict[int, Fraction]
    ) -> "ReactionStep":
        """Trusted constructor for a step that passes every check of `__post_init__`.

        `net_change` must be the unshared dict `__post_init__` would build.
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


def check_species_names(species: Iterable[str]) -> None:
    """Raise NetworkValidationError for the first name that is not a species name."""
    for name in species:
        if not _SPECIES_RE.match(name):
            raise NetworkValidationError(f"invalid species name {name!r}")


class ReactionNetwork:
    """Ordered species plus reaction steps; duplicates merged on build."""

    def __init__(self, species: Sequence[str], steps: Iterable[ReactionStep]):
        species = tuple(species)
        if len(set(species)) != len(species):
            raise NetworkValidationError("duplicate species names")
        check_species_names(species)
        merged: dict[tuple[Complex, Complex], ReactionStep] = {}
        for step in steps:
            hi = max(step.reactant.max_index(), step.product.max_index())
            if hi >= len(species):
                raise NetworkValidationError(
                    f"species index {hi} out of range for {len(species)} species"
                )
            key = (step.reactant, step.product)
            if key in merged:
                warnings.warn(
                    f"duplicate step {step.render(species)} merged by summing rates",
                    stacklevel=2,
                )
                step = ReactionStep(
                    step.reactant, step.product, _merge_rates(merged[key].rate, step.rate)
                )
            merged[key] = step
        self.species = species
        self.steps = tuple(merged.values())

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
                for part in _rate_parts(step.rate):
                    if not part[:1].isdigit() and part not in names:
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

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

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
            try:
                rate = _parse_rate_text(str(raw["rate"]))
                steps.append(
                    ReactionStep(read_complex(raw["reactant"]), read_complex(raw["product"]), rate)
                )
            except ValueError as exc:
                # the step's own faults keep their type and gain its number
                raise type(exc)(f"{where}: {exc}") from None
        return cls(species, steps)


# -- text parsing -----------------------------------------------------------

_NET_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<both>\<\=\>\[)
      | (?P<bwd>\<\-\[)
      | (?P<fwd>\-\>\[)
      | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<plus>\+)
      | (?P<comma>,)
      | (?P<rbracket>\])
    """,
    re.VERBOSE,
)


def _tokenize_line(line: str, line_no: int, start: int, end: int) -> list[tuple[str, str, int]]:
    """Tokens of line[start:end], with 1-based columns counted from the line start."""
    tokens = []
    pos = start
    while pos < end:
        m = _NET_TOKEN_RE.match(line, pos, end)
        if m is None:
            raise NetworkSyntaxError(
                f"unexpected character {line[pos]!r}", line_no, pos + 1
            )
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start() + 1))
    return tokens


class _LineParser:
    def __init__(self, tokens, line_no, species_index, species_order):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0
        self.species_index = species_index
        self.species_order = species_order

    def error(self, message, column=None):
        if column is None:
            column = self.tokens[-1][2] if self.tokens else 1
        raise NetworkSyntaxError(message, self.line_no, column)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of line")
        if kind is not None and tok[0] != kind:
            self.error(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def species_id(self, name: str) -> int:
        if name not in self.species_index:
            self.species_index[name] = len(self.species_order)
            self.species_order.append(name)
        return self.species_index[name]

    def number(self, tok) -> int | Fraction:
        """A number token's value: an int for plain digits, else parse_rational's.

        Digit strings longer than MAX_EXPONENT go through parse_rational too,
        which refuses those whose decimal exponent is above the bound.
        """
        text = tok[1]
        if text.isdecimal() and len(text) <= MAX_EXPONENT:
            return int(text)
        return parse_rational(text)

    def parse_complex(self) -> Complex:
        coeffs: dict[int, int | Fraction] = {}
        first = True
        while True:
            tok = self.peek()
            if tok is None:
                self.error("expected a complex")
            if tok[0] == "number":
                self.take()
                value = self.number(tok)
                nxt = self.peek()
                if nxt is not None and nxt[0] == "ident":
                    if value <= 0:
                        self.error(
                            f"stoichiometric coefficient must be positive, got {tok[1]}",
                            tok[2],
                        )
                    name_tok = self.take()
                    idx = self.species_id(name_tok[1])
                    coeffs[idx] = coeffs.get(idx, 0) + value
                elif value == 0 and first and not coeffs:
                    # bare "0" is the empty complex
                    return Complex._from_clean(())
                else:
                    self.error(f"unexpected number {tok[1]!r}", tok[2])
            elif tok[0] == "ident":
                self.take()
                idx = self.species_id(tok[1])
                coeffs[idx] = coeffs.get(idx, 0) + 1
            else:
                self.error(f"expected species term, found {tok[1]!r}", tok[2])
            first = False
            nxt = self.peek()
            if nxt is not None and nxt[0] == "plus":
                self.take()
                continue
            # merged per species, every sum positive
            return Complex._from_clean(
                tuple((i, _as_fraction(c)) for i, c in sorted(coeffs.items()))
            )

    def parse_rate(self) -> Rate:
        """A Fraction when every part is a number, else the parts joined by '+'."""
        parts: list[str] = []
        total: int | Fraction = 0
        numeric = True
        while True:
            tok = self.take()
            if tok[0] == "number":
                value = self.number(tok)
                if value <= 0:
                    self.error(f"rate must be positive, got {tok[1]}", tok[2])
                total += value
                parts.append(tok[1])
            elif tok[0] == "ident":
                numeric = False
                parts.append(tok[1])
            else:
                self.error(f"expected rate, found {tok[1]!r}", tok[2])
            nxt = self.peek()
            if nxt is None or nxt[0] != "plus":
                return _as_fraction(total) if numeric else "+".join(parts)
            self.take()

    def parse_chain(self) -> list[ReactionStep]:
        steps = []
        left = self.parse_complex()
        saw_arrow = False
        while self.peek() is not None:
            arrow = self.take()
            if arrow[0] not in ("fwd", "bwd", "both"):
                self.error(f"expected an arrow, found {arrow[1]!r}", arrow[2])
            saw_arrow = True
            if arrow[0] == "both":
                kf = self.parse_rate()
                self.take("comma")
                kb = self.parse_rate()
            else:
                kf = self.parse_rate()
                kb = None
            self.take("rbracket")
            right = self.parse_complex()
            try:
                if arrow[0] == "fwd":
                    steps.append(ReactionStep(left, right, kf))
                elif arrow[0] == "bwd":
                    steps.append(ReactionStep(right, left, kf))
                else:
                    steps.append(ReactionStep(left, right, kf))
                    steps.append(ReactionStep(right, left, kb))
            except NetworkValidationError as exc:
                self.error(str(exc), arrow[2])
            left = right
        if not saw_arrow:
            self.error("chain needs at least one arrow")
        return steps


def parse_network(text: str) -> ReactionNetwork:
    """Parse the reaction text format into a ReactionNetwork.

    Species are numbered in order of first appearance.  '#' starts a comment;
    ';' separates chains on one line.
    """
    species_index: dict[str, int] = {}
    species_order: list[str] = []
    steps: list[ReactionStep] = []
    any_content = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        start = 0
        for piece in stripped.split(";"):
            end = start + len(piece)
            if piece.strip():
                any_content = True
                tokens = _tokenize_line(stripped, line_no, start, end)
                parser = _LineParser(tokens, line_no, species_index, species_order)
                steps.extend(parser.parse_chain())
            start = end + 1
    if not any_content:
        raise NetworkSyntaxError("no reactions found", 1, 1)
    return ReactionNetwork(species_order, steps)
