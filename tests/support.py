"""Shared helpers for randomized tests: generators and independent oracles."""

from __future__ import annotations

import math
import random
import re
import warnings
from fractions import Fraction
from itertools import product
from typing import Sequence

from crnkit import (
    Polynomial,
    PolynomialSystem,
    QuadraticCandidate,
    ReactionNetwork,
    SimConfig,
    SimulationError,
    Trajectory,
    compile_rhs,
)
from crnkit.linalg import (
    PositivityResult,
    SparseRow,
    _back_substitute,
    _reduce,
    check_proof,
    positive_vector_in_span,
)
from crnkit.kinetics import (
    NotKineticError,
    negative_cross_effect,
    ode_variable_names,
    species_names_for_variables,
)
from crnkit.numbers import LITERAL_BOUND, MAX_EXPONENT, outside_literal_bound, read_literal
from crnkit.poly import (
    MAX_COEFFICIENT_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_PARSE_TERMS,
    MAX_TERMS,
    SMALL_FRACTIONS as NETWORK_SMALL_FRACTIONS,
    PolynomialParseError,
    accumulate_terms,
)
from crnkit.sim import CLAMP_TOLERANCE
from crnkit.network import (
    Complex,
    NetworkSyntaxError,
    NetworkValidationError,
    ReactionStep,
    resolve_rate,
)

SMALL_FRACTIONS = [
    Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3) if Fraction(n, d) != 0
]
SMALL_POSITIVE = [f for f in SMALL_FRACTIONS if f > 0]
SMALL_NONNEGATIVE = [Fraction(0)] + SMALL_POSITIVE


def random_polynomial(rng: random.Random, dim: int, max_degree: int = 3,
                      max_terms: int = 5) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = rng.choice(SMALL_FRACTIONS)
    poly = Polynomial.zero(dim)
    for exps, coeff in terms.items():
        poly = poly + Polynomial.monomial(dim, exps, coeff)
    return poly


def random_complex(rng: random.Random, num_species: int,
                   allow_empty: bool = True) -> dict[int, Fraction]:
    entries: dict[int, Fraction] = {}
    size = rng.randint(0 if allow_empty else 1, 2)
    for _ in range(size):
        entries[rng.randrange(num_species)] = Fraction(rng.randint(1, 2))
    return entries


def random_network(rng: random.Random, conserving: bool = False) -> ReactionNetwork:
    """Random proper network; with conserving=True every step preserves a
    hidden positive integer mass, so a stoichiometric witness exists."""
    num_species = rng.randint(2, 5)
    species = tuple(chr(ord("A") + i) for i in range(num_species))
    # species 0 has mass 1 so any integer mass is reachable greedily
    masses = [1] + [rng.randint(1, 3) for _ in range(num_species - 1)]
    steps = []
    for _ in range(rng.randint(2, 6)):
        reactant = random_complex(rng, num_species, allow_empty=not conserving)
        product_ = random_complex(rng, num_species)
        if conserving:
            target = sum(masses[i] * int(c) for i, c in reactant.items())
            product_ = {}
            remaining = target
            for _ in range(rng.randint(0, 2)):
                idx = rng.randrange(num_species)
                if masses[idx] <= remaining:
                    product_[idx] = product_.get(idx, Fraction(0)) + 1
                    remaining -= masses[idx]
            if remaining:
                product_[0] = product_.get(0, Fraction(0)) + remaining
        if reactant == product_:
            continue
        rate = Fraction(rng.randint(1, 4), rng.choice((1, 1, 2)))
        steps.append(
            ReactionStep(Complex.from_mapping(reactant), Complex.from_mapping(product_), rate)
        )
    if not steps:
        # A -> B keeps unit masses balanced, so it is safe in both modes
        steps.append(
            ReactionStep(
                Complex.from_mapping({0: Fraction(1)}),
                Complex.from_mapping({1: Fraction(1)}),
                Fraction(1),
            )
        )
        masses[1] = 1
    # dedupe (reactant, product) pairs to keep construction warning-free
    seen = {}
    for step in steps:
        seen[(step.reactant, step.product)] = step
    return ReactionNetwork(species, tuple(seen.values()))


def reference_induced_ode(network: ReactionNetwork, params=None) -> PolynomialSystem:
    """Oracle for `induced_kinetic_ode`: f_m = sum_r (beta[m,r] - alpha[m,r]) k_r x^alpha_r,
    read species by species off each step's two complexes."""
    m = network.num_species
    terms = [dict() for _ in range(m)]
    for step in network.steps:
        k = resolve_rate(step.rate, params)
        exponents = [0] * m
        for index, coeff in step.reactant.entries:
            exponents[index] = int(coeff)
        mono = tuple(exponents)
        for index in range(m):
            gamma = step.product.coefficient(index) - step.reactant.coefficient(index)
            if gamma != 0:
                bucket = terms[index]
                bucket[mono] = bucket.get(mono, Fraction(0)) + gamma * k
    components = tuple(Polynomial(m, t) for t in terms)
    return PolynomialSystem(ode_variable_names(network.species), components)


def reference_realization(system: PolynomialSystem) -> ReactionNetwork:
    """Oracle for `canonical_realization`: the same one-step-per-term network,
    built from mappings through the checking public constructors."""
    report = negative_cross_effect(system)
    if not report.is_kinetic:
        raise NotKineticError(report)
    species = species_names_for_variables(system.variables)
    steps: list[ReactionStep] = []
    for index, component in enumerate(system.components):
        for expts, coeff in component.sorted_terms():
            reactant = {i: Fraction(e) for i, e in enumerate(expts) if e}
            product_ = dict(reactant)
            product_[index] = product_.get(index, 0) + (1 if coeff > 0 else -1)
            steps.append(
                ReactionStep(
                    Complex.from_mapping(reactant), Complex.from_mapping(product_), abs(coeff)
                )
            )
    return ReactionNetwork(species, steps)


def random_kinetic_system(rng: random.Random) -> PolynomialSystem:
    """Kinetic by construction: induced ODE of a random network."""
    from crnkit import induced_kinetic_ode

    return induced_kinetic_ode(random_network(rng))


def plant_cross_effect_violation(
    rng: random.Random, system: PolynomialSystem
) -> tuple[PolynomialSystem, int, tuple[int, ...]]:
    """Add one negative term without its own-variable factor to a component.

    The planted monomial is chosen off the support of the existing component
    slice so the violation is guaranteed to be reported.
    """
    dim = system.dim
    m = rng.randrange(dim)
    exps = [0] * dim
    for _ in range(rng.randint(0, 2)):
        p = rng.randrange(dim)
        if p != m:
            exps[p] += 1
    components = list(system.components)
    # clear any same-monomial term first so the final coefficient is negative
    old = components[m].coefficient(tuple(exps))
    bad = Polynomial.monomial(dim, tuple(exps), -old - Fraction(rng.randint(1, 3)))
    components[m] = components[m] + bad
    return PolynomialSystem(system.variables, tuple(components)), m, tuple(exps)


def signed_homogeneous_quadratics_2d():
    """All kinetic homogeneous quadratic 2D systems over the signed grid.

    Slots that may carry negative coefficients (the own-variable appears in
    the monomial) range over {0, +-1/2, +-1, +-2}; the two cross slots are
    restricted to nonnegative values, which makes every enumerated system
    kinetic by construction.
    """
    free = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2),
            Fraction(-1, 2), Fraction(-1), Fraction(-2)]
    nonneg = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for a1, b1, c1, a2, b2, c2 in product(free, free, nonneg, nonneg, free, free):
        yield (a1, b1, c1, a2, b2, c2)


def quadratic_system_2d(coeffs) -> PolynomialSystem:
    a1, b1, c1, a2, b2, c2 = coeffs
    f1 = (
        Polynomial.monomial(2, (2, 0), a1)
        + Polynomial.monomial(2, (1, 1), b1)
        + Polynomial.monomial(2, (0, 2), c1)
    )
    f2 = (
        Polynomial.monomial(2, (2, 0), a2)
        + Polynomial.monomial(2, (1, 1), b2)
        + Polynomial.monomial(2, (0, 2), c2)
    )
    return PolynomialSystem(("x", "y"), (f1, f2))


def diagonal_representable_2d(system: PolynomialSystem) -> bool:
    """Closed-form test: does the 2D system match the coupled template

        f1 = w2*K12*y^2 - w2*K21*x*y,   f2 = w1*K21*x^2 - w1*K12*x*y

    for some weights w1,w2 > 0 and couplings K12,K21 >= 0?  Any linear or
    constant part, or an own-square term, rules it out.  When both coupling
    products are active the cross products must agree exactly.
    """
    f1, f2 = system.components
    for poly in (f1, f2):
        for exps, _ in poly.sorted_terms():
            if sum(exps) != 2:
                return False
    a1 = f1.coefficient((2, 0))
    b1 = f1.coefficient((1, 1))
    c1 = f1.coefficient((0, 2))
    a2 = f2.coefficient((2, 0))
    b2 = f2.coefficient((1, 1))
    c2 = f2.coefficient((0, 2))
    if a1 != 0 or c2 != 0:
        return False
    if c1 < 0 or a2 < 0 or b1 > 0 or b2 > 0:
        return False
    # K12 = 0 forces both c1 and b2 to vanish, K21 = 0 both a2 and b1
    if (c1 == 0) != (b2 == 0) or (a2 == 0) != (b1 == 0):
        return False
    return b1 * b2 == c1 * a2


def unit_candidates(dim: int, diagonal_only: bool) -> list[QuadraticCandidate]:
    """Basis of the quadratic-plus-linear candidates, `coefficient_vector` order."""
    zero = tuple(Fraction(0) for _ in range(dim))
    out = []
    for i in range(dim):
        for j in range(i, dim):
            if diagonal_only and i != j:
                continue
            q = [list(zero) for _ in range(dim)]
            q[i][j] = q[j][i] = Fraction(1)
            out.append(QuadraticCandidate(q, zero))
    if not diagonal_only:
        for i in range(dim):
            linear = tuple(Fraction(1 if k == i else 0) for k in range(dim))
            out.append(QuadraticCandidate([zero] * dim, linear))
    return out


def gradient(candidate: QuadraticCandidate) -> list[Polynomial]:
    poly = candidate.as_polynomial()
    return [poly.derivative(i) for i in range(candidate.dim)]


def arithmetic_lie_derivative(
    candidate: QuadraticCandidate, system: PolynomialSystem
) -> Polynomial:
    """Oracle for `lie_derivative`: grad(V) . f by Polynomial products and sums."""
    if candidate.dim != system.dim:
        raise ValueError(
            f"candidate dimension {candidate.dim} does not match system dimension {system.dim}"
        )
    total = Polynomial.zero(system.dim)
    for partial, component in zip(gradient(candidate), system.components):
        total = total + partial * component
    return total


def unit_lie_derivative_matrix(
    system: PolynomialSystem, units: list[QuadraticCandidate]
) -> list[list[Fraction]]:
    """Oracle for the first-integral constraint matrix.

    Applies `arithmetic_lie_derivative` to every unit candidate and reads
    the coefficients back, one row per monomial in sorted order.
    """
    lies = [arithmetic_lie_derivative(unit, system) for unit in units]
    monomials = sorted({mono for poly in lies for mono in poly.monomials()})
    return [[poly.coefficient(mono) for poly in lies] for mono in monomials]


def fraction_lie_derivative_columns(system: PolynomialSystem) -> list[dict]:
    """Oracle for `conservation.lie_derivative_rows`: the Lie derivative of
    every unit candidate, in `coefficient_vector` order, as a column keyed by
    exponent tuples, unscaled, in Fraction arithmetic."""
    n = system.dim
    f = [component.terms() for component in system.components]
    twice = [{e: 2 * c for e, c in terms.items()} for terms in f]
    quadratic = []
    for i in range(n):
        for j in range(i, n):
            column: dict = {}
            accumulate_terms(column, twice[i], shift=j)
            if j != i:
                accumulate_terms(column, twice[j], shift=i)
            quadratic.append(column)
    return quadratic + f


def coefficient_matrix(columns: Sequence[dict]) -> list[dict[int, Fraction | int]]:
    """Sparse rows of the matrix whose column j holds the entries of `columns[j]`.

    One row per key occurring in some column (a monomial, any hashable),
    mapping j to that key's value in `columns[j]`, in order of first
    occurrence: the oracle for the rows `lie_derivative_rows` builds, and a
    way to write a constraint matrix column by column.
    """
    rows: dict = {}
    for j, column in enumerate(columns):
        for key, coeff in column.items():
            rows.setdefault(key, {})[j] = coeff
    return list(rows.values())


def _reference_height(poly: Polynomial) -> int:
    """Bit length of the largest of D and every |c*D|, D the lcm of the denominators."""
    den = 1
    for c in poly._terms.values():
        den = math.lcm(den, c.denominator)
    top = den
    for c in poly._terms.values():
        scaled = abs(c.numerator) * (den // c.denominator)
        if scaled > top:
            top = scaled
    return top.bit_length()


# The expression tokenizer the polynomial parser had before it shared a lexer
# with the network format, kept as is so the oracle's tokens stay fixed.
_REFERENCE_POLY_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


def _reference_tokenize_poly(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_POLY_TOKEN_RE.match(text, pos)
        if m is None:
            raise PolynomialParseError(
                f"unexpected character {text[pos]!r} at column {pos + 1}"
            )
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), m.start()))
    return tokens


class ReferencePolyParser:
    """The polynomial parser that builds one Polynomial per factor: the oracle of `_PolyParser`.

    Every factor is a Polynomial and every `*` and `^` goes through `product`
    and `power` with Polynomial arithmetic, so a new way of multiplying
    single-term factors must give the same polynomial, the same refusal and
    the same `expanded` charge.
    """

    def __init__(self, variables: Sequence[str]):
        self.index = {name: i for i, name in enumerate(variables)}
        self.dim = len(variables)
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
                min(count, math.comb(degree + self.dim, self.dim)),
                _reference_height(left)
                + _reference_height(right)
                + (min(t_left, t_right) - 1).bit_length(),
            )
        return left * right

    def power(self, base: Polynomial, exponent: int) -> Polynomial:
        if exponent > MAX_DEGREE:
            raise PolynomialParseError(
                f"exponent {exponent} is above MAX_DEGREE = {MAX_DEGREE}"
            )
        terms = len(base.terms())
        if terms:
            degree = exponent * base.degree()
            kind = "power" if terms > 1 else "single-term power" if base.degree() else "constant power"
            # a^n has at most one term per multiset of n of a's terms, and its
            # numerators over D^n are at most (terms * max |c*D|)^n
            self.admit(
                kind,
                degree,
                min(
                    math.comb(exponent + terms - 1, terms - 1),
                    math.comb(degree + self.dim, self.dim),
                ),
                exponent * (_reference_height(base) + (terms - 1).bit_length()),
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
            return self.power(base, int(read_literal(exp_tok[1])))
        return base

    def parse(self, text: str) -> Polynomial:
        self.tokens = _reference_tokenize_poly(text)
        if not self.tokens:
            raise PolynomialParseError("empty polynomial expression")
        self.pos = 0
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
        sums: dict = {}
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
            value = read_literal(tok[1])
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den_tok = self.take()
                if den_tok[0] != "number":
                    raise PolynomialParseError(
                        f"expected denominator at column {den_tok[2] + 1}"
                    )
                den = read_literal(den_tok[1])
                if den == 0:
                    raise PolynomialParseError("division by zero in coefficient")
                value = Fraction(value, den)
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


# The network text parser as it was before it shared a lexer with the
# polynomial format: the oracle of `parse_network`.  Every step goes through
# the public `ReactionStep` and the network through the public constructor.
_REFERENCE_NET_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<both>\<\=\>\[)
      | (?P<bwd>\<\-\[)
      | (?P<fwd>\-\>\[)
      | (?P<number>\d+(?:\.\d+)?(?:/\d+)?)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<plus>\+)
      | (?P<comma>,)
      | (?P<rbracket>\])
      | (?P<unexpected>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _reference_as_fraction(value: int | Fraction) -> Fraction:
    if type(value) is int:
        small = NETWORK_SMALL_FRACTIONS
        return small[value] if value < len(small) else Fraction(value)
    return value


def _reference_tokenize_line(
    line: str, line_no: int, start: int, end: int
) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _REFERENCE_NET_TOKEN_RE.finditer(line, start, end):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "unexpected":
            raise NetworkSyntaxError(
                f"unexpected character {m.group()!r}", line_no, m.start() + 1
            )
        tokens.append((kind, m.group(), m.start() + 1))
    return tokens


class _ReferenceLineParser:
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
        try:
            return read_literal(tok[1])
        except ValueError as exc:
            self.error(str(exc), tok[2])

    def parse_complex(self) -> Complex:
        tokens, pos, count = self.tokens, self.pos, len(self.tokens)
        coeffs: dict[int, int | Fraction] = {}
        first = True
        while True:
            if pos == count:
                self.error("expected a complex")
            tok = tokens[pos]
            pos += 1
            if tok[0] == "number":
                value = self.number(tok)
                if pos < count and tokens[pos][0] == "ident":
                    if value <= 0:
                        self.error(
                            f"stoichiometric coefficient must be positive, got {tok[1]}",
                            tok[2],
                        )
                    name = tokens[pos][1]
                    pos += 1
                elif value == 0 and first:
                    self.pos = pos
                    return Complex._from_clean(())
                else:
                    self.error(f"unexpected number {tok[1]!r}", tok[2])
            elif tok[0] == "ident":
                value, name = 1, tok[1]
            else:
                self.error(f"expected species term, found {tok[1]!r}", tok[2])
            idx = self.species_id(name)
            old = coeffs.get(idx)
            if old is None:
                coeffs[idx] = value
            else:
                value += old
                if value.numerator >= LITERAL_BOUND or value.denominator >= LITERAL_BOUND:
                    self.error(outside_literal_bound("stoichiometric coefficient"), tok[2])
                coeffs[idx] = value
            first = False
            if pos < count and tokens[pos][0] == "plus":
                pos += 1
                continue
            self.pos = pos
            return Complex._from_clean(
                tuple((i, _reference_as_fraction(c)) for i, c in sorted(coeffs.items()))
            )

    def parse_rate(self):
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
                return _reference_as_fraction(total) if numeric else "+".join(parts)
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


def reference_parse_network(text: str) -> ReactionNetwork:
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
                tokens = _reference_tokenize_line(stripped, line_no, start, end)
                parser = _ReferenceLineParser(tokens, line_no, species_index, species_order)
                steps.extend(parser.parse_chain())
            start = end + 1
    if not any_content:
        raise NetworkSyntaxError("no reactions found", 1, 1)
    return ReactionNetwork(species_order, steps)


# Pieces of the network text format for generated texts: names that are
# species or parameters, and literals that reach the literal bound (a
# 1001-digit integer is below it, and a sum of two is not).
_DSL_NAMES = ("A", "B", "C", "X_1", "k", "a2")
_DSL_WIDE = "9" * (MAX_EXPONENT + 1)
_DSL_LITERALS = ("1", "2", "3", "1/2", "3/2", "0.5", "2.25", "0", _DSL_WIDE, f"1/{_DSL_WIDE}",
                 "0." + "0" * (MAX_EXPONENT - 1) + "1")
_DSL_EDIT_CHARS = "AB k0123456789+-<=>[],;#/._\n\t $é"


def _dsl_complex(rng: random.Random) -> str:
    """"0" now and then, else one to three terms, a species maybe repeated,
    with integer, fractional or wide coefficients."""
    if rng.random() < 0.1:
        return "0"
    terms = []
    for _ in range(rng.randint(1, 3)):
        draw = rng.random()
        coefficient = (
            "" if draw < 0.7 else rng.choice(("2", "3")) if draw < 0.95
            else rng.choice(("1/2", "3/2", "0.5")) if draw < 0.995 else _DSL_WIDE
        )
        species = rng.choice(_DSL_NAMES[:4])
        terms.append(coefficient + rng.choice(("", "", " ")) + species)
    return rng.choice((" + ", "+")).join(terms)


def _dsl_rate(rng: random.Random) -> str:
    """One to three parts, each a literal or a parameter name, joined by '+'."""
    parts = [
        rng.choice(_DSL_NAMES[4:]) if rng.random() < 0.3 else rng.choice(_DSL_LITERALS[:7])
        if rng.random() < 0.97 else rng.choice(_DSL_LITERALS[7:])
        for _ in range(rng.choice((1, 1, 1, 2, 3)))
    ]
    return rng.choice(("+", " + ")).join(parts)


def _dsl_chain(rng: random.Random) -> str:
    text = _dsl_complex(rng)
    for _ in range(rng.choice((1, 1, 2, 3))):
        arrow = rng.choice(("->", "->", "<-", "<=>"))
        rates = f"{_dsl_rate(rng)},{_dsl_rate(rng)}" if arrow == "<=>" else _dsl_rate(rng)
        text += f" {arrow}[{rates}] {_dsl_complex(rng)}"
    return text


def network_dsl_text(rng: random.Random) -> str:
    """A network text of one to five lines: chains joined by ';', comments,
    blank lines, and lines written twice, which make duplicate steps."""
    lines: list[str] = []
    for _ in range(rng.randint(1, 5)):
        draw = rng.random()
        if draw < 0.05:
            lines.append(rng.choice(("", "  ", "# a comment")))
        elif draw < 0.2 and lines:
            lines.append(rng.choice(lines))
        else:
            line = " ; ".join(_dsl_chain(rng) for _ in range(rng.choice((1, 1, 2))))
            lines.append(line + ("  # A ->[1] B; $" if rng.random() < 0.15 else ""))
    return "\n".join(lines)


def edited_dsl_text(rng: random.Random, text: str) -> str:
    """`text` with one to four characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        char = rng.choice(_DSL_EDIT_CHARS)
        edit = rng.random()
        if edit < 0.4 or not text:
            text = text[:at] + char + text[at:]
        else:
            at = min(at, len(text) - 1)
            text = text[:at] + (char if edit < 0.7 else "") + text[at + 1 :]
    return text


def network_parse_outcome(parse, text: str):
    """What `parse` makes of `text`: the species and every step's complexes,
    stored rate and net change, or the exception's type, message, line and
    column; and the texts of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net = parse(text)
        except Exception as exc:  # noqa: BLE001 - every refusal is compared
            outcome = (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
        else:
            outcome = (net.species, [
                (step.reactant, step.product, step.rate, type(step.rate), dict(step.net_change))
                for step in net.steps
            ])
    return outcome, [str(warning.message) for warning in caught]


def combine_units(units: list[QuadraticCandidate], weights) -> QuadraticCandidate:
    dim = units[0].dim
    q = [[Fraction(0)] * dim for _ in range(dim)]
    linear = [Fraction(0)] * dim
    for w, unit in zip(weights, units):
        for i in range(dim):
            for j in range(dim):
                q[i][j] += w * unit.q[i][j]
            linear[i] += w * unit.linear[i]
    return QuadraticCandidate(q, tuple(linear))


def matvec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


def dense_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Oracle for `rref`: dense Gauss-Jordan over Fractions, zero rows last."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots: list[int] = []
    rank = 0
    for col in range(len(mat[0])):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat, pivots


def reference_inertia(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts by dense Fraction Schur complements.

    Checks the shape and symmetry as `linalg.symmetric_inertia` does.  A zero
    diagonal is handled by the congruence row i += row j, column i += column j.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    for i in range(n):
        if len(a[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is None:
            pair = next(
                (
                    (i, j)
                    for idx, i in enumerate(active)
                    for j in active[idx + 1 :]
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            for t in active:
                a[i][t] = a[i][t] + a[j][t]
            for t in active:
                a[t][i] = a[t][i] + a[t][j]
            piv = i
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        col = {i: a[i][piv] for i in active}
        for i in active:
            if col[i] == 0:
                continue
            f = col[i] / d
            for j in active:
                a[i][j] -= f * a[piv][j]
        for i in active:
            for j in active:
                if i < j:
                    a[j][i] = a[i][j]
    return pos, zero, neg


def primitive_integer_vector(values) -> tuple[Fraction, ...]:
    """Scale a rational vector to coprime integers, preserving direction.

    The zero vector maps to itself.  Entries come back as integer-valued
    Fractions.
    """
    fracs = [Fraction(v) for v in values]
    if not fracs or all(v == 0 for v in fracs):
        return tuple(Fraction(0) for _ in fracs)
    den = math.lcm(*(v.denominator for v in fracs))
    ints = [int(v * den) for v in fracs]
    g = math.gcd(*ints)
    return tuple(Fraction(i // g) for i in ints)


def leading_sign_normalized(values) -> tuple[Fraction, ...]:
    """Oracle for the normal form of `nullspace_basis` vectors: the primitive
    integer form with the first nonzero entry made positive."""
    ints = primitive_integer_vector(values)
    for v in ints:
        if v != 0:
            if v < 0:
                ints = tuple(-x for x in ints)
            break
    return ints


def sparse_rows(rows: Sequence[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    """Dense rows as the sparse rows `nullspace_basis` reads, zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


def dense_nullspace_basis(rows, ncols: int) -> list[list[Fraction]]:
    """Oracle for `nullspace_basis`, read off `dense_rref`."""
    reduced, pivots = dense_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, piv_col in enumerate(pivots):
            vec[piv_col] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def dense_positive_kernel_vector(rows, ncols: int) -> tuple[Fraction, ...] | None:
    """Oracle for the witness of `positive_kernel_vector`, on dense rows.

    The kernel comes from `dense_rref` and its span goes to
    `positive_vector_in_span`, which reduces it again, so the witness does
    not depend on how the basis vectors are scaled.
    """
    basis = dense_nullspace_basis(rows, ncols)
    if not basis:
        return None
    return positive_vector_in_span(basis, ncols).vector


def dense_conservation_rows(
    network: ReactionNetwork, system: PolynomialSystem
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Dense constraint rows of both conservation searches.

    The rows of gamma^T (one per step, read off `stoichiometric_matrices`)
    and the coefficient rows of the system (one per monomial, sorted).
    """
    _, _, gamma = network.stoichiometric_matrices()
    gamma_t = [list(column) for column in zip(*gamma)]
    monomials = sorted({e for component in system.components for e in component.terms()})
    coefficients = [
        [component.coefficient(e) for component in system.components] for e in monomials
    ]
    return gamma_t, coefficients


# -- exact linear algebra: test-only helpers and the old positivity solver ---

def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot columns, read off
    `_reduce` followed by `_back_substitute`.

    The reduced matrix has as many rows as the input, zero rows last.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    placed, pivots = _reduce(sparse_rows(rows), ncols)
    _back_substitute(placed, pivots)
    zero = Fraction(0)
    reduced = [
        [Fraction(row[j], row[col]) if j in row else zero for j in range(ncols)]
        for row, col in zip(placed, pivots)
    ]
    reduced.extend([zero] * ncols for _ in range(len(rows) - len(placed)))
    return reduced, pivots


def _fraction_free_step(
    row: dict[int, int], pivot_row: dict[int, int], col: int
) -> dict[int, int]:
    """(p/g) row - (a/g) pivot_row with p, a the entries in `col` and
    g = gcd(p, a), as a new primitive row: the textbook fraction-free step."""
    p, a = pivot_row[col], row[col]
    g = math.gcd(p, a)
    combined = {
        j: (p // g) * row.get(j, 0) - (a // g) * pivot_row.get(j, 0)
        for j in row.keys() | pivot_row.keys()
    }
    combined = {j: v for j, v in combined.items() if v}
    content = math.gcd(*combined.values()) or 1
    return {j: v // content for j, v in combined.items()}


def gauss_jordan_reduce(
    rows: Sequence[SparseRow], ncols: int
) -> tuple[list[dict[int, int]], list[int]]:
    """Oracle for `_reduce` followed by `_back_substitute`: one fraction-free
    Gauss-Jordan pass, in which each new pivot also clears its column from
    every row already placed, with the pivot chosen by a separate scan.

    Every row is primitive at every step, read in by its own lcm scaling
    and updated by its own fraction-free step, independent of the kernel's.
    Returns one primitive integer row per pivot, zero in every other pivot
    column, and the pivot columns, in column order.
    """
    pending = []
    for row in rows:
        entries = {j: Fraction(v) for j, v in row.items() if v}
        if entries:
            den = math.lcm(*(v.denominator for v in entries.values()))
            scaled = {j: v.numerator * (den // v.denominator) for j, v in entries.items()}
            content = math.gcd(*scaled.values())
            pending.append({j: v // content for j, v in scaled.items()})
    placed: list[dict[int, int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        if not pending:
            break
        index = min(
            (i for i, row in enumerate(pending) if col in row),
            key=lambda i: len(pending[i]),
            default=None,
        )
        if index is None:
            continue
        pivot_row = pending.pop(index)
        remaining = []
        for row in pending:
            if col in row:
                row = _fraction_free_step(row, pivot_row, col)
            if row:
                remaining.append(row)
        pending = remaining
        for i, row in enumerate(placed):
            if col in row:
                placed[i] = _fraction_free_step(row, pivot_row, col)
        placed.append(pivot_row)
        pivots.append(col)
    if pending or any(min(row) < 0 or max(row) >= ncols for row in placed):
        raise ValueError(f"column index out of range for {ncols} columns")
    return placed, pivots


def split_positive_vector_in_span(
    vectors: Sequence[Sequence[Fraction]], dim: int
) -> PositivityResult:
    """Oracle for `positive_vector_in_span`: the split-variable rational simplex.

    Decide whether span(vectors) meets the open positive orthant.

    Solved as the phase-1 linear program "find lambda with N lambda >= 1"
    using exact rational pivoting and Bland's rule.  On failure the dual
    solution is returned: y >= 0, y != 0, y orthogonal to every spanning
    vector (so no positive combination can exist).
    """
    if dim <= 0:
        raise ValueError("dimension must be positive")
    for v in vectors:
        if len(v) != dim:
            raise ValueError("spanning vector has wrong length")
    k = len(vectors)
    ncols = 2 * k + 2 * dim  # lambda+, lambda-, surplus, artificial
    art0 = 2 * k + dim
    rows: list[list[Fraction]] = []
    for i in range(dim):
        row = [Fraction(0)] * (ncols + 1)
        for j in range(k):
            row[j] = Fraction(vectors[j][i])
            row[k + j] = -row[j]
        row[2 * k + i] = Fraction(-1)
        row[art0 + i] = Fraction(1)
        row[ncols] = Fraction(1)
        rows.append(row)
    basis = [art0 + i for i in range(dim)]
    # objective row: reduced costs of min(sum of artificials); entry ncols
    # holds minus the current objective value
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        cost = Fraction(1) if j >= art0 else Fraction(0)
        obj[j] = cost - sum(row[j] for row in rows)
    obj[ncols] = -sum(row[ncols] for row in rows)

    while True:
        entering = next((j for j in range(ncols) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for r in range(dim):
            coeff = rows[r][entering]
            if coeff > 0:
                ratio = rows[r][ncols] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leaving])
                ):
                    best = ratio
                    leaving = r
        if leaving is None:  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("unbounded phase-1 objective")
        piv = rows[leaving][entering]
        rows[leaving] = [x / piv for x in rows[leaving]]
        for r in range(dim):
            if r != leaving and rows[r][entering] != 0:
                f = rows[r][entering]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[leaving])]
        if obj[entering] != 0:
            f = obj[entering]
            obj = [a - f * b for a, b in zip(obj, rows[leaving])]
        basis[leaving] = entering

    objective = -obj[ncols]
    if objective == 0:
        lam = [Fraction(0)] * k
        for r, var in enumerate(basis):
            if var < k:
                lam[var] += rows[r][ncols]
            elif var < 2 * k:
                lam[var - k] -= rows[r][ncols]
        result = [Fraction(0)] * dim
        for j, coeff in enumerate(lam):
            if coeff:
                for i in range(dim):
                    result[i] += coeff * Fraction(vectors[j][i])
        check_proof(all(x >= 1 for x in result), "positive witness has an entry below 1")
        return PositivityResult(vector=tuple(result), certificate=None)

    cert = [Fraction(1) - obj[art0 + i] for i in range(dim)]
    nonnegative_nonzero = all(y >= 0 for y in cert) and any(y > 0 for y in cert)
    check_proof(nonnegative_nonzero, "certificate must be nonnegative and nonzero")
    for v in vectors:
        residual = sum((y * Fraction(x) for y, x in zip(cert, v)), Fraction(0))
        check_proof(residual == 0, "certificate must be orthogonal to the span")
    return PositivityResult(vector=None, certificate=tuple(cert))


# -- integrator oracle: the per-component loops the generated steps replace ----

RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def left_sum(values) -> float:
    """sum() of floats as Python 3.11 computes it: from the int 0, left to right.

    From 3.12 on, sum() compensates float rounding, so the oracle spells out
    the plain order the integrator was written against.
    """
    total = 0
    for value in values:
        total += value
    return total


def left_to_right_rhs(system: PolynomialSystem, state: Sequence[float]) -> list[float]:
    """Oracle for `compile_rhs`: each component's terms in `sorted_terms`
    order, each term c * x_i * x_j**e factor by factor, summed left to right."""
    values = []
    for component in system.components:
        total = None
        for expts, coeff in component.sorted_terms():
            term = float(coeff)
            for x, e in zip(state, expts):
                if e == 1:
                    term = term * x
                elif e > 1:
                    term = term * x**e
            total = term if total is None else total + term
        values.append(0.0 if total is None else total)
    return values


def rk4_step(rhs, state, h):
    k1 = rhs(state)
    k2 = rhs([x + 0.5 * h * k for x, k in zip(state, k1)])
    k3 = rhs([x + 0.5 * h * k for x, k in zip(state, k2)])
    k4 = rhs([x + h * k for x, k in zip(state, k3)])
    return [
        x + h / 6.0 * (a + 2 * b + 2 * c + d)
        for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]


def rkf45_step(rhs, state, h):
    ks = [rhs(state)]
    for stage in range(1, 6):
        coeffs = RKF_A[stage]
        probe = [
            x + h * left_sum(c * ks[i][idx] for i, c in enumerate(coeffs))
            for idx, x in enumerate(state)
        ]
        ks.append(rhs(probe))
    fourth = [
        x + h * left_sum(b * ks[i][idx] for i, b in enumerate(RKF_B4))
        for idx, x in enumerate(state)
    ]
    fifth = [
        x + h * left_sum(b * ks[i][idx] for i, b in enumerate(RKF_B5))
        for idx, x in enumerate(state)
    ]
    error = max(abs(a - b) for a, b in zip(fourth, fifth))
    return fifth, error


def dense_invariant(candidate: QuadraticCandidate):
    """Oracle for `compile_invariant`: the dense double loop over Q."""
    q = [[float(v) for v in row] for row in candidate.q]
    linear = [float(v) for v in candidate.linear]
    constant = float(candidate.constant)
    n = candidate.dim

    def value(state: Sequence[float]) -> float:
        total = constant
        for i in range(n):
            xi = state[i]
            total += linear[i] * xi
            for j in range(n):
                total += q[i][j] * xi * state[j]
        return total

    return value


def reference_integrate(
    system: PolynomialSystem,
    x0: Sequence[float],
    config: SimConfig,
    invariant: QuadraticCandidate | None = None,
) -> Trajectory:
    """Oracle for `integrate` on valid input: closures, list copies and the
    per-component steps above, counting rejected RKF45 steps."""
    state = [float(v) for v in x0]
    rhs = compile_rhs(system)
    v_func = dense_invariant(invariant) if invariant is not None else None
    v0 = v_func(state) if v_func is not None else None
    traj = Trajectory(
        variables=system.variables,
        times=[0.0],
        states=[list(state)],
        invariant_values=[v0] if v_func is not None else None,
    )

    def check_state(new_state, t_new, t_old):
        for value in new_state:
            if not math.isfinite(value):
                raise SimulationError("state became nonfinite (blow-up)", t_old)
        adjusted = list(new_state)
        for i, value in enumerate(adjusted):
            if value < 0:
                if value < -CLAMP_TOLERANCE:
                    raise SimulationError(
                        f"component {system.variables[i]} went negative ({value:.3e})",
                        t_old,
                    )
                traj.positivity_events.append((t_new, i, value))
                adjusted[i] = 0.0
        return adjusted

    def project(new_state, t_old):
        if config.projection != "level_set" or v0 is None or v0 <= 0:
            return new_state
        current = v_func(new_state)
        if current <= 0:
            return new_state
        scale = math.sqrt(v0 / current)
        projected = [scale * v for v in new_state]
        if not all(map(math.isfinite, projected)):
            raise SimulationError("state became nonfinite (blow-up)", t_old)
        return projected

    def record(t, accepted_steps, final):
        if final or accepted_steps % config.stride == 0:
            if final and traj.times and traj.times[-1] == t:
                return
            traj.times.append(t)
            traj.states.append(list(state))
            if v_func is not None:
                traj.invariant_values.append(v_func(state))

    t = 0.0
    accepted = 0
    t_end = config.t_end
    eps = 1e-12 * max(1.0, t_end)
    if config.method == "rk4_fixed":
        h = config.step
        while t < t_end - eps:
            step_h = min(h, t_end - t)
            try:
                new_state = rk4_step(rhs, state, step_h)
            except OverflowError:
                raise SimulationError("state became nonfinite (blow-up)", t) from None
            new_t = t + step_h
            state = project(check_state(new_state, new_t, t), t)
            t = new_t
            accepted += 1
            record(t, accepted, final=t >= t_end - eps)
    else:
        h = min(config.step, t_end)
        h_min = 1e-12 * t_end
        while t < t_end - eps:
            step_h = min(h, t_end - t)
            try:
                new_state, error = rkf45_step(rhs, state, step_h)
            except OverflowError:
                raise SimulationError("state became nonfinite (blow-up)", t) from None
            scale = config.tolerance * max(
                1.0, max((abs(v) for v in state), default=1.0)
            )
            if error <= scale or step_h <= h_min:
                new_t = t + step_h
                state = project(check_state(new_state, new_t, t), t)
                t = new_t
                accepted += 1
                record(t, accepted, final=t >= t_end - eps)
            else:
                traj.rejected_steps += 1
            if error != 0:
                factor = 0.9 * (scale / error) ** 0.2
                h = step_h * min(5.0, max(0.2, factor))
            else:
                h = step_h * 5.0
            if h < h_min:
                raise SimulationError("step size underflow", t)
    return traj
