import importlib.util
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crnkit import Polynomial, PolynomialParseError, PolynomialSystem, parse_polynomial, parse_system
from crnkit.numbers import format_rational
from crnkit.poly import MAX_COEFFICIENT_BITS, MAX_DEGREE, MAX_NESTING, MAX_PARSE_TERMS

from .conftest import LIMIT_CYCLE_4D_TEXT, SADDLE_3D_TEXT
from .support import random_polynomial

ROOT = Path(__file__).resolve().parent.parent

X = Polynomial.variable(2, 0)
Y = Polynomial.variable(2, 1)


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
