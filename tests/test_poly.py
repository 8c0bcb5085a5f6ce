import importlib.util
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crnkit.poly
from crnkit import Polynomial, PolynomialParseError, PolynomialSystem, parse_polynomial, parse_system
from crnkit.numbers import DECIMAL, Lexer, format_rational
from crnkit.poly import MAX_COEFFICIENT_BITS, MAX_DEGREE, MAX_NESTING, MAX_PARSE_TERMS, _PolyParser
from crnkit.poly import SMALL_FRACTIONS, as_fraction
from crnkit.poly import _IDENT_RE, _POLY_LEXER
from crnkit.poly import _height as poly_height

from .conftest import LIMIT_CYCLE_4D_TEXT, SADDLE_3D_TEXT
from .support import ReferencePolyParser, random_polynomial

ROOT = Path(__file__).resolve().parent.parent

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


NUMBERS = st.one_of(
    st.integers(-3, len(SMALL_FRACTIONS) + 3),
    st.integers(),
    st.booleans(),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(str),
)


@settings(max_examples=400, deadline=None)
@given(NUMBERS)
def test_as_fraction_is_the_fraction_of_its_value(value):
    result = as_fraction(value)
    assert type(result) is Fraction
    assert result == Fraction(value)
    if type(value) is Fraction:
        assert result is value


def test_as_fraction_of_a_negative_int():
    assert as_fraction(-1) == -1
    assert as_fraction(-len(SMALL_FRACTIONS)) == -len(SMALL_FRACTIONS)


def test_constructors_agree():
    assert Polynomial.monomial(2, (1, 0)) == X
    assert Polynomial.constant(2, Fraction(0)) == Polynomial.zero(2)
    assert X + X == Polynomial.monomial(2, (1, 0), 2)


def test_ring_axioms_randomized():
    rng = random.Random(20230817)
    for _ in range(60):
        p = random_polynomial(rng, 3)
        q = random_polynomial(rng, 3)
        r = random_polynomial(rng, 3)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == Polynomial.zero(3)
        assert p * Polynomial.constant(3, 1) == p


def test_power():
    assert (X + Y) ** 2 == X * X + X * Y * 2 + Y * Y
    assert (X + Y) ** 0 == Polynomial.constant(2, 1)


def test_derivative_product_rule_randomized():
    rng = random.Random(5)
    for _ in range(40):
        p = random_polynomial(rng, 2)
        q = random_polynomial(rng, 2)
        i = rng.randrange(2)
        assert (p * q).derivative(i) == p.derivative(i) * q + p * q.derivative(i)


def test_derivative_matches_finite_difference():
    rng = random.Random(99)
    h = 1e-5
    for _ in range(20):
        p = random_polynomial(rng, 2, max_degree=3)
        point = [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]
        for i in range(2):
            exact = float(p.derivative(i).evaluate(point))
            hi = [float(v) for v in point]
            lo = [float(v) for v in point]
            hi[i] += h
            lo[i] -= h
            approx = (_eval_float(p, hi) - _eval_float(p, lo)) / (2 * h)
            assert abs(approx - exact) <= 1e-4 * max(1.0, abs(exact))


def _eval_float(p: Polynomial, point) -> float:
    total = 0.0
    for exps, coeff in p.sorted_terms():
        term = float(coeff)
        for value, e in zip(point, exps):
            term *= value**e
        total += term
    return total


def test_evaluate_exact():
    p = X * X * Fraction(1, 2) + Y
    assert p.evaluate([Fraction(3), Fraction(1, 4)]) == Fraction(19, 4)


def test_render_canonical_order():
    p = Polynomial.monomial(2, (0, 2), 2) + Polynomial.monomial(2, (1, 1), -3)
    assert p.render(("x", "y")) == "-3*x*y + 2*y^2"


def test_render_zero_and_ones():
    assert Polynomial.zero(1).render(("x",)) == "0"
    assert (Polynomial.variable(1, 0) * -1).render(("x",)) == "-x"
    assert Polynomial.monomial(1, (2,), Fraction(5, 3)).render(("x",)) == "5/3*x^2"


def test_parse_round_trip_randomized():
    rng = random.Random(7)
    names = ("x", "y", "z")
    for _ in range(50):
        p = random_polynomial(rng, 3)
        assert parse_polynomial(p.render(names), names) == p


def test_parse_implicit_multiplication_and_powers():
    names = ("x", "y")
    assert parse_polynomial("2x y^2", names) == Polynomial.monomial(2, (1, 2), 2)
    assert parse_polynomial("x(x + y)", names) == X * X + X * Y
    assert parse_polynomial("3/2 x", names) == X * Fraction(3, 2)


@pytest.mark.parametrize(
    "text, coefficient",
    [("1/2*x", Fraction(1, 2)), ("3/6*y", Fraction(1, 2)), ("1/3*x", Fraction(1, 3)),
     ("1.5/2.5", Fraction(3, 5)), ("0.1/3 y", Fraction(1, 30)), ("7", Fraction(7))],
)
def test_parse_coefficients_stay_exact_fractions(text, coefficient):
    # a quotient of two int tokens is a Fraction, not a float
    (value,) = parse_polynomial(text, ("x", "y")).terms().values()
    assert value == coefficient and type(value) is Fraction


def test_parse_reads_exponents_and_coefficients_one_way():
    # a long exponent is refused by the literal bound, not by int()'s digit limit
    long = "1" * 5000
    for text in (f"x^{long}", f"{long}*x"):
        with pytest.raises(ValueError) as info:
            parse_polynomial(text, ("x",))
        assert str(info.value).endswith("has decimal exponent 4999, outside +-MAX_EXPONENT = 1000")
    assert parse_polynomial("x^" + "0" * 3000 + "2", ("x",)) == parse_polynomial("x^2", ("x",))


def test_parse_refuses_a_zero_denominator():
    for text in ("2/0", "2/0*x", "1.5/0.0"):
        with pytest.raises(PolynomialParseError) as info:
            parse_polynomial(text, ("x",))
        assert str(info.value) == "division by zero in coefficient"


def test_parse_unknown_variable():
    with pytest.raises(PolynomialParseError, match="unknown variable"):
        parse_polynomial("x + q", ("x", "y"))


def test_parse_malformed():
    for bad in ("x +", "^2", "(x", "x^-1"):
        with pytest.raises(PolynomialParseError):
            parse_polynomial(bad, ("x", "y"))


def test_parse_caps_admit_expansion_up_to_them():
    names = ("x", "y", "z")
    assert parse_polynomial(f"x^{MAX_DEGREE}", names) == Polynomial.monomial(3, (MAX_DEGREE, 0, 0))
    assert len(parse_polynomial("(x + y + z + 1)^10", names).terms()) == 286


@pytest.mark.parametrize(
    "text, limit",
    [
        ("x^100000000000", "MAX_DEGREE"),
        (f"x^{MAX_DEGREE + 1}", "MAX_DEGREE"),
        (f"(2)^{MAX_DEGREE + 1}", "MAX_DEGREE"),
        (f"x^{MAX_DEGREE} * y", "MAX_DEGREE"),
        (f"x^{MAX_DEGREE} y", "MAX_DEGREE"),
        (f"(x + y)^{MAX_DEGREE // 2} * (x + 1)^{MAX_DEGREE // 2 + 1}", "MAX_DEGREE"),
        ("(x + y + z + 1)^50", "MAX_TERMS"),
        ("(x + y + 1)^62", "MAX_TERMS"),  # at most C(64, 2) = 2016 terms
        ("(x + y + 1)^30 * (x + y + 1)^33", "MAX_TERMS"),
    ],
)
def test_parse_refuses_oversized_expansion(text, limit):
    start = time.perf_counter()
    with pytest.raises(PolynomialParseError, match=f"above {limit} = "):
        parse_polynomial(text, ("x", "y", "z"))
    assert time.perf_counter() - start < 1.0


def test_parse_caps_the_summed_expansion_work():
    # each copy charges its term-count bounds: 6 per square, 15 for the product
    copy, charge = "(x + y + 1)^2 * (x + y + 1)^2", 6 + 6 + 15
    fits = MAX_PARSE_TERMS // charge
    assert parse_polynomial(" + ".join([copy] * fits), ("x", "y")) == Polynomial(
        2, {e: fits * c for e, c in parse_polynomial(copy, ("x", "y")).terms().items()}
    )
    start = time.perf_counter()
    # refused at the first square past the cap, before its expansion
    message = f"reach {fits * charge + 6} terms in total, above MAX_PARSE_TERMS = "
    with pytest.raises(PolynomialParseError, match=message):
        parse_polynomial(" + ".join([copy] * (fits + 1)), ("x", "y"))
    assert time.perf_counter() - start < 1.0


def test_a_system_shares_one_expansion_budget():
    # each line charges one product of two 44-term sums, 1,936 terms
    line = "*".join(
        "(" + " + ".join(f"{name}^{i}" for i in range(1, 45)) + ")" for name in ("x", "y")
    )
    names = ("x", "y", "z")
    product = parse_polynomial(line, names)
    assert len(product.terms()) == 44 * 44
    assert PolynomialSystem.from_strings(names, [line, line, "z"]).components[:2] == (
        product,
        product,
    )
    message = f"reach {3 * 44 * 44} terms in total, above MAX_PARSE_TERMS = {MAX_PARSE_TERMS}$"
    with pytest.raises(PolynomialParseError, match=message):
        PolynomialSystem.from_strings(names, [line] * 3)
    with pytest.raises(PolynomialParseError, match=message):
        parse_system("vars x y z\n" + "\n".join([line] * 3) + "\n")


def test_parse_nesting_cap():
    names = ("x",)
    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(nested, names) == Polynomial.variable(1, 0)
    deeper = "(" * 400 + "x" + ")" * 400
    message = f"column {MAX_NESTING + 1} nest deeper than MAX_NESTING = {MAX_NESTING}"
    with pytest.raises(PolynomialParseError, match=message):
        parse_polynomial(deeper, names)


def test_parse_constant_power_cap():
    names = ("x",)
    assert parse_polynomial("(2)^100*x", names) == Polynomial(1, {(1,): Fraction(2) ** 100})
    assert parse_polynomial("(3/2)^50", names) == Polynomial.constant(1, Fraction(3, 2) ** 50)
    for text in ("((2)^100)^100", "(((2)^100)^100)^100", "((1/3)^100)^100*x"):
        start = time.perf_counter()
        with pytest.raises(PolynomialParseError, match="above MAX_COEFFICIENT_BITS = "):
            parse_polynomial(text, names)
        assert time.perf_counter() - start < 1.0


def test_single_term_products_are_capped_by_coefficient_bits():
    # the k-th factor of 2*2*...*2 multiplies 2^(k-1) (k bits) by 2 (2 bits),
    # so that product could reach k + 2 bits
    fits = MAX_COEFFICIENT_BITS - 2
    names = ("x",)
    assert parse_polynomial("*".join(["2"] * fits), names) == Polynomial.constant(1, 2**fits)
    message = (
        f"single-term product could reach {MAX_COEFFICIENT_BITS + 1} bits, "
        f"above MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS}"
    )
    with pytest.raises(PolynomialParseError, match=message):
        parse_polynomial("*".join(["2"] * (fits + 1)), names)
    start = time.perf_counter()
    with pytest.raises(PolynomialParseError, match="single-term product could reach"):
        parse_polynomial("*".join(["3"] * 200_000), names)
    assert time.perf_counter() - start < 2.0


def test_single_term_powers_are_capped_by_coefficient_bits():
    # (2^100 x)^e has a coefficient of at most e * 101 bits
    names = ("x",)
    assert parse_polynomial("((2)^100*x)^99", names) == Polynomial(
        1, {(99,): Fraction(2) ** 9900}
    )
    with pytest.raises(PolynomialParseError, match="single-term power could reach 10100 bits"):
        parse_polynomial("((2)^100*x)^100", names)


def _height(p: Polynomial) -> int:
    """Bit length of the largest of D and every |c*D|, D the lcm of the denominators."""
    den = math.lcm(*(c.denominator for c in p.terms().values()))
    return max([den] + [int(abs(c * den)) for c in p.terms().values()]).bit_length()


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class _BoundRecorder(_PolyParser):
    """A parser that records the height bound of its last product or power."""

    def admit(self, kind, degree, terms, bits):
        self.bits = bits


_BIG = st.one_of(st.integers(1, 9), st.integers(1, 2**200))
_TERM_MAPS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(lambda n, d, s: Fraction(s * n, d), _BIG, _BIG, st.sampled_from((-1, 1))),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(p=_TERM_MAPS, q=_TERM_MAPS, exponent=st.integers(1, 6))
def test_height_bounds_hold_for_products_and_powers(p, q, exponent):
    p, q = Polynomial(2, p), Polynomial(2, q)
    parser = _BoundRecorder(("x", "y"))
    assert poly_height(p) == _height(p)
    product = parser.product(p, q)
    assert product == p * q and _height(product) <= parser.bits
    if len(p.terms()) == len(q.terms()) == 1:
        (a,), (b,) = p.terms().values(), q.terms().values()
        assert parser.bits == _bits(a) + _bits(b)
    power = parser.power(p, exponent)
    assert power == p**exponent and _height(power) <= parser.bits
    if len(p.terms()) == 1:
        (a,) = p.terms().values()
        assert parser.bits == exponent * _bits(a)


def _power_of_two(k: int) -> str:
    return "*".join(["(2)^100"] * (k // 100) + [f"(2)^{k % 100}"])


def test_multi_term_products_and_powers_are_capped_by_coefficient_height():
    names = ("x", "y")
    # (c x + 1)(c' y + 1) has height at most bits(c) + bits(c') + 1
    c, twice_c = _power_of_two(4998), _power_of_two(4999)
    assert parse_polynomial(f"({c}*x + 1)*({twice_c}*y + 1)", names) == (
        (2**4998 * X + 1) * (2**4999 * Y + 1)
    )
    message = "product could reach 10001 bits, above MAX_COEFFICIENT_BITS = "
    with pytest.raises(PolynomialParseError, match="^" + re.escape(message)):
        parse_polynomial(f"({twice_c}*x + 1)*({twice_c}*y + 1)", names)
    # (c x + 1)^e has height at most e * (bits(c) + 1)
    assert parse_polynomial(f"({_power_of_two(198)}*x + 1)^50", names) == (2**198 * X + 1) ** 50
    with pytest.raises(PolynomialParseError, match=r"^power could reach 10050 bits"):
        parse_polynomial(f"({_power_of_two(199)}*x + 1)^50", names)


def test_power_of_a_sum_with_a_huge_coefficient_is_refused_at_once():
    # c = 2^9800 in 98 factors; expanding would build 441 terms of up to 392,001 bits
    c = "*".join(["(2)^100"] * 98)
    start = time.perf_counter()
    message = "power could reach 196040 bits, above MAX_COEFFICIENT_BITS = "
    with pytest.raises(PolynomialParseError, match=re.escape(message)):
        parse_polynomial(f"({c}*x + 1)^20*({c}*y + 1)^20", ("x", "y"))
    assert time.perf_counter() - start < 0.1


def test_written_out_terms_are_not_charged():
    # 5,000 terms c*x^i*y^j: each `*` and `^` multiplies single terms
    rng = random.Random(5)
    monomials = [(i, j) for i in range(100) for j in range(100 - i)][:5000]
    terms = {
        m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)) for m in monomials
    }
    text = " + ".join(
        f"{format_rational(c)}*x^{i}*y^{j}" for (i, j), c in terms.items()
    ).replace("+ -", "- ")
    assert parse_polynomial(text, ("x", "y")) == Polynomial(2, terms)


# -- single-term factors multiply as one term -----------------------------------

def _outcomes(parser_class, texts, names=("x", "y", "z")):
    """What one parser makes of `texts` in turn: each polynomial and the budget spent
    so far, up to the first refusal, recorded as its type and message, and every
    check the parser made, with its arguments, in order."""

    class Recorded(parser_class):
        def admit(self, *args):
            checks.append(args)
            super().admit(*args)

    checks = []
    parser = Recorded(names)
    outcomes = []
    for text in texts:
        try:
            poly = parser.parse(text)
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
            break
        outcomes.append((poly, parser.expanded))
    return outcomes, checks


def _number_text(rng: random.Random) -> str:
    draw = rng.random()
    if draw < 0.5:
        return str(rng.randint(0, 9))
    if draw < 0.65:
        return str(rng.randint(0, 2 ** rng.choice((8, 64, 400))))
    if draw < 0.85:
        return f"{rng.randint(0, 20)}/{rng.randint(0, 9)}"
    return f"{rng.randint(0, 99)}.{rng.randint(0, 99)}"


def _power_text(rng: random.Random, top: int) -> str:
    draw = rng.random()
    if draw < 0.5:
        return ""
    if draw < 0.8:
        return f"^{rng.randint(0, 4)}"
    if draw < 0.95:
        return f"^{rng.randint(0, top)}"
    return rng.choice(("^1.5", "^x", "^", "^-1"))


def _expression_text(rng: random.Random, depth: int = 0) -> str:
    """A sum of products of numbers, variable powers (exponents up to 120, names
    now and then unknown) and parenthesized sums with small powers, with `*`,
    a space or nothing between factors."""
    text = rng.choice(("", "", "-", "+"))
    for t in range(rng.randint(1, 3 if depth else 5)):
        if t:
            text += rng.choice((" + ", " - ", "-"))
        for f in range(rng.randint(1, 4)):
            if f:
                glue = rng.choice(("*", "*", " * ", " "))
                text += "" if text[-1].isdigit() and rng.random() < 0.2 else glue
            draw = rng.random()
            if draw < 0.4:
                text += _number_text(rng)
            elif draw < 0.85 or depth == 2:
                text += rng.choice("xyz") if rng.random() < 0.98 else rng.choice(("q", "xx"))
                text += _power_text(rng, 120)
            else:
                # a sum's powers stay small, so an admitted expansion stays cheap
                text += f"({_expression_text(rng, depth + 1)}){_power_text(rng, 6)}"
    return text


def _edited(rng: random.Random, text: str) -> str:
    """`text` with one or two characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(text) + 1)
        char = rng.choice("xyz0123456789+-*/^() .q")
        edit = rng.random()
        if edit < 0.4 or not text:
            text = text[:at] + char + text[at:]
        else:
            at = min(at, len(text) - 1)
            text = text[:at] + (char if edit < 0.7 else "") + text[at + 1 :]
    return text


def _expressions(seed: int) -> list[str]:
    """One to three expressions, each edited with probability 0.4."""
    rng = random.Random(seed)
    texts = [_expression_text(rng) for _ in range(rng.choice((1, 1, 2, 3)))]
    return [_edited(rng, text) if rng.random() < 0.4 else text for text in texts]


# the polynomial tokens without `starts`, so every text is read token by token
_TOKENWISE_LEXER = Lexer(DECIMAL, _IDENT_RE.pattern, r"[-+*/^()]")
_LEXER_CHARACTERS = [chr(i) for i in range(128)] + ["é", "\u0663", "\uff11", "\u2003", "\u212a", "\ud800"]


def test_the_plain_text_shortcut_finds_what_the_tokens_find():
    # a text of `starts` characters and whitespace is passed without tokenizing;
    # every other text, "." included, is read token by token, with the same answer
    for char in _LEXER_CHARACTERS:
        for text in (char, f"x{char}", f"{char}1", f"1{char}y", f" {char} ", f"2.{char}"):
            assert _POLY_LEXER.first_unexpected(text) == _TOKENWISE_LEXER.first_unexpected(text)
    rng = random.Random(31)
    for _ in range(20_000):
        text = "".join(rng.choice(_LEXER_CHARACTERS) for _ in range(rng.randint(0, 6)))
        assert _POLY_LEXER.first_unexpected(text) == _TOKENWISE_LEXER.first_unexpected(text)
    assert _POLY_LEXER.first_unexpected("x + .5") == 4


# hypothesis draws only a seed: a plain generator writes the expressions many
# times faster than drawing each choice through hypothesis would
@settings(max_examples=1_000, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_parser_matches_the_reference_parser(seed):
    # one parser reads the texts in turn: the same polynomial and budget, or
    # the same refusal, text after text, and the same checks in the same order
    texts = _expressions(seed)
    assert _outcomes(_PolyParser, texts) == _outcomes(ReferencePolyParser, texts), texts


# (2^k - 1)(2^l - 1) has k + l bits, so these multiply to exactly 3 * 3000 + 1000
_ODD_3000, _ODD_1000 = 2**3000 - 1, 2**1000 - 1


@pytest.mark.parametrize(
    "text",
    [
        "0*x^200", "0*x^100*x^100", "x*0*y^101", "0x y z", "x^0", "x^0*y^0", "(0)^0", "(0^0)",
        "0^0", "2x^0 y", "x^100*0", f"x^{MAX_DEGREE} y^0", f"x^{MAX_DEGREE}*1/2",
        f"x^{MAX_DEGREE}*(1)", f"(x)^{MAX_DEGREE}*2", "(x + y)*2*x", "2*x*(x + y)*3*y",
        "(x + y) 0 x^3", "x(0)^0 y", "1/2*(2)^100 x", "0/5*x", "3*0.5/2.5 x^2 y",
        "*".join(["2"] * (MAX_COEFFICIENT_BITS - 2)), "*".join(["2"] * (MAX_COEFFICIENT_BITS - 1)),
        "x*" + "*".join(["4"] * 5_000), "0*" + "*".join(["4"] * 5_000),
        "(2)^100*" + "*".join(["3"] * 6_000) + "*x",
        # a coefficient of exactly MAX_COEFFICIENT_BITS bits, then one more factor
        f"{_ODD_3000}*{_ODD_3000}*{_ODD_3000}*{_ODD_1000}",
        f"{_ODD_3000}*{_ODD_3000}*{_ODD_3000}*{_ODD_1000}*x",
        f"{_ODD_3000}*{_ODD_3000}*{_ODD_3000}*{_ODD_1000}*1",
        f"{_ODD_3000}*{_ODD_3000}*{_ODD_3000}*{_ODD_1000}*0",
        f"1/{_ODD_3000}*1/{_ODD_3000}*1/{_ODD_3000}*1/{_ODD_1000}*y^0",
        f"x^{MAX_DEGREE + 1}", f"(x + 1)^{MAX_DEGREE + 1}", "2^3", "(2^3)", "x^2^2",
    ],
    ids=lambda text: text if len(text) < 40 else f"{text[:12]}...{text[-8:]}({len(text)})",
)
def test_single_term_edge_cases_match_the_reference_parser(text):
    assert _outcomes(_PolyParser, [text]) == _outcomes(ReferencePolyParser, [text])


def test_written_out_terms_build_one_polynomial_per_component(monkeypatch):
    text = "vars x y z\n3*x^2*y - 1/2*x*y^5 + 2 x z\n-x*y*z + 4/3 z^2 - 0.5\n0*y^3 + x^0 z\n"
    lines = text.splitlines()[1:]
    expected = [ReferencePolyParser(("x", "y", "z")).parse(line) for line in lines]
    builds, parsers = [], []
    init, from_clean = Polynomial.__init__, Polynomial._from_clean.__func__

    def counted_init(self, *args, **kwargs):
        builds.append("__init__")
        init(self, *args, **kwargs)

    def counted_from_clean(cls, dim, terms):
        builds.append("_from_clean")
        return from_clean(cls, dim, terms)

    class RecordedParser(_PolyParser):
        def __init__(self, variables):
            super().__init__(variables)
            parsers.append(self)

    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "_from_clean", classmethod(counted_from_clean))
    monkeypatch.setattr(crnkit.poly, "_PolyParser", RecordedParser)
    system = parse_system(text)
    assert list(system.components) == expected
    assert builds == ["_from_clean"] * len(lines)
    (parser,) = parsers
    assert parser.expanded == 0


def _sympy_terms(sympy, parser, text: str, variables) -> dict:
    """The terms of `text` expanded by sympy, keyed by exponent tuple."""
    transformations = parser.standard_transformations + (
        parser.implicit_multiplication,
        parser.convert_xor,
        parser.rationalize,
    )
    symbols = {name: sympy.Symbol(name) for name in variables}
    expr = parser.parse_expr(text, local_dict=symbols, transformations=transformations)
    poly = sympy.Poly(expr, *symbols.values())
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()}


def _system_texts():
    """The system texts of the README, the test fixtures and perfbench's cli pool."""
    texts = re.findall(r"```\n(vars [^`]*)```", (ROOT / "README.md").read_text())
    texts += [LIMIT_CYCLE_4D_TEXT, SADDLE_3D_TEXT]
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    kinds = ("check-kinetic", "realize", "check-qfi", "check-qfi-diagonal",
             "check-log-lv", "check-no-periodic", "simulate")
    texts += [workloads.cli_item(i, kind)["text"] for kind in kinds for i in range(60)]
    return texts


def test_system_texts_parse_as_sympy_expands_them():
    sympy = pytest.importorskip("sympy")
    parser = pytest.importorskip("sympy.parsing.sympy_parser")
    texts = _system_texts()
    assert len(texts) == 1 + 2 + 7 * 60
    for text in texts:
        system = parse_system(text)
        lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
        lines = [line for line in lines if line][1:]
        for line, component in zip(lines, system.components, strict=True):
            assert dict(component.terms()) == _sympy_terms(sympy, parser, line, system.variables), line


def test_system_from_strings_and_render():
    sys_ = PolynomialSystem.from_strings(("x", "y"), ["y^2 - x*y", "x^2"])
    assert sys_.render() == "{-x*y + y^2, x^2}"


def test_system_text_round_trip():
    text = "vars x y\n# comment\n-3*x*y + 2*y^2\n3*x^2 - 2*x*y\n"
    sys_ = parse_system(text)
    assert sys_.variables == ("x", "y")
    assert sys_.components[0].coefficient((1, 1)) == -3
    again = parse_system(
        "vars " + " ".join(sys_.variables) + "\n"
        + "\n".join(c.render(sys_.variables) for c in sys_.components)
    )
    assert again == sys_


def test_system_json_round_trip(example_system):
    data = example_system.to_dict()
    assert PolynomialSystem.from_dict(data) == example_system


def test_parse_system_rejects_an_empty_description():
    # the CLI reads a file as a system only after a "vars" line, so test it here
    with pytest.raises(ValueError, match="^empty system description$"):
        parse_system("# only a comment\n\n")


def test_system_dimension_mismatch():
    with pytest.raises(ValueError):
        PolynomialSystem(("x",), (Polynomial.zero(2),))
    with pytest.raises(ValueError, match="non-integral exponent"):
        Polynomial(1, {(1.5,): 1})


# -- the validating constructor ----------------------------------------------

@pytest.mark.parametrize(
    "dim, terms, message",
    [
        (1, {(1.5,): 1}, r"non-integral exponent in \(1.5,\)"),
        (1, {("1",): 1}, r"non-integral exponent in \('1',\)"),
        (1, {(-1,): 1}, r"negative exponent in \(-1,\)"),
        (2, {(1,): 1}, r"exponent tuple \(1,\) does not match dimension 2"),
        (1, {(1, 0): 1}, r"exponent tuple \(1, 0\) does not match dimension 1"),
        (2, {(-1,): 1}, r"exponent tuple \(-1,\) does not match dimension 2"),
        (1, {(1,): "abc"}, "Invalid literal for Fraction"),
    ],
)
def test_constructor_rejects(dim, terms, message):
    with pytest.raises(ValueError, match=message):
        Polynomial(dim, terms)


@pytest.mark.parametrize(
    "terms, stored",
    [
        ({(1.0,): 1}, {(1,): Fraction(1)}),
        ({(True,): 1}, {(1,): Fraction(1)}),
        ({(False,): 2}, {(0,): Fraction(2)}),
        ({(1,): 0.5}, {(1,): Fraction(1, 2)}),
        ({(1,): 3}, {(1,): Fraction(3)}),
        ({(1,): "1/3"}, {(1,): Fraction(1, 3)}),
        ({(1,): 0.0, (2,): "0", (3,): Fraction(0)}, {}),
    ],
)
def test_constructor_converts(terms, stored):
    poly = Polynomial(1, terms)
    assert dict(poly.terms()) == stored
    # a bool exponent equals and hashes like an int, so check the types too
    assert all(type(e) is int for key in poly.terms() for e in key)
    assert all(type(v) is Fraction for v in poly.terms().values())


def test_constructor_rejects_a_non_number_coefficient():
    with pytest.raises(TypeError):
        Polynomial(1, {(1,): None})


# -- arithmetic builds valid polynomials ----------------------------------------

_COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def polynomial_pairs(draw):
    dim = draw(st.integers(1, 4))
    exponents = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).map(tuple)
    p, q = (
        Polynomial(dim, draw(st.dictionaries(exponents, _COEFFS, max_size=6)))
        for _ in range(2)
    )
    point = [draw(_COEFFS) for _ in range(dim)]
    return p, q, point


def _assert_clean(poly: Polynomial):
    assert poly == Polynomial(poly.dim, dict(poly.terms()))
    assert all(type(v) is Fraction and v != 0 for v in poly.terms().values())
    assert all(
        type(key) is tuple and len(key) == poly.dim and all(type(e) is int and e >= 0 for e in key)
        for key in poly.terms()
    )


@settings(max_examples=200, deadline=None)
@given(case=polynomial_pairs(), scalar=st.one_of(st.just(0), st.integers(-3, 3), _COEFFS))
def test_arithmetic_results_are_clean(case, scalar):
    p, q, point = case
    at_p, at_q = p.evaluate(point), q.evaluate(point)
    for result, value in (
        (p + q, at_p + at_q),
        (p - q, at_p - at_q),
        (-p, -at_p),
        (p * q, at_p * at_q),
        (p * scalar, at_p * scalar),
        (scalar * p, at_p * scalar),
        (p + scalar, at_p + scalar),
        (scalar - p, scalar - at_p),
        (p**3, at_p**3),
        (p**0, 1),
    ):
        _assert_clean(result)
        assert result.evaluate(point) == value
    for i in range(p.dim):
        _assert_clean(p.derivative(i))
    assert not (p + (-p)).terms()
    assert not (p - p).terms()
    assert not (p * 0).terms()


# -- malformed input: each refusal with its type and message ---------------------

_EMPTY_2D = Polynomial(2, {})


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: parse_polynomial("x $ y", ("x", "y")),
            PolynomialParseError,
            "unexpected character '$' at column 3",
            id="character",
        ),
        pytest.param(
            lambda: parse_polynomial("x )", ("x", "y")),
            PolynomialParseError,
            "unexpected token ')' at column 3",
            id="trailing-token",
        ),
        pytest.param(
            lambda: parse_polynomial("*x", ("x", "y")),
            PolynomialParseError,
            "unexpected token '*' at column 1",
            id="factor-token",
        ),
        pytest.param(
            lambda: parse_polynomial("(x / y)", ("x", "y")),
            PolynomialParseError,
            "expected ')' at column 4",
            id="closing-parenthesis",
        ),
        pytest.param(
            lambda: parse_polynomial("2/x", ("x", "y")),
            PolynomialParseError,
            "expected denominator at column 3",
            id="denominator",
        ),
        pytest.param(
            lambda: PolynomialSystem(("x", "y"), (_EMPTY_2D,)),
            ValueError,
            "1 components for 2 variables",
            id="component-count",
        ),
        pytest.param(
            lambda: PolynomialSystem(("x", "x"), (_EMPTY_2D, _EMPTY_2D)),
            ValueError,
            "duplicate variable names",
            id="duplicate-variables",
        ),
        pytest.param(
            lambda: PolynomialSystem.from_dict({"variables": ["x"]}),
            ValueError,
            "system JSON needs 'variables' and 'components'",
            id="json-keys",
        ),
    ],
)
def test_malformed_polynomial_input_is_refused(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
