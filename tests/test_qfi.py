import hashlib
import math
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import crnkit.qfi
from crnkit import (
    BinaryFormParams,
    DiagonalParams,
    GeneratorConstraintError,
    MixedSignParams,
    Polynomial,
    PolynomialSystem,
    ProofCheckError,
    QuadraticCandidate,
    diagonal_collapse_check,
    equilibria_on_line_check,
    find_quadratic_first_integrals,
    generate_binary_form_system,
    generate_diagonal_system,
    generate_mixed_sign_system,
    generate_shifted_system,
    is_first_integral,
    induced_kinetic_ode,
    kinetic_conservation,
    lie_derivative,
    lotka_volterra_log_check,
    negative_cross_effect,
    no_periodic_orbit_certificate,
    parse_network,
    solve_log_integral_family,
)
from crnkit.conservation import lie_derivative_rows
from crnkit.linalg import _phase1, nullspace_basis, positive_vector_in_span
from crnkit.poly import MAX_DEGREE, accumulate_terms

from .conftest import CATALYTIC_CASCADE_TEXT
from .support import (
    SMALL_FRACTIONS,
    arithmetic_lie_derivative,
    coefficient_matrix,
    combine_units,
    fraction_lie_derivative_columns,
    leading_sign_normalized,
    primitive_integer_vector,
    sparse_rows,
    unit_candidates,
    unit_lie_derivative_matrix,
)

F = Fraction


def sys2(f1, f2):
    return PolynomialSystem.from_strings(("x", "y"), [f1, f2])


def diag3_params(a, b, c, d, e, f):
    # x' = a y^2 + b z^2 - c xy - e xz, cyclic placement for unit weights
    return DiagonalParams(
        (F(1), F(1), F(1)),
        ((F(0), F(a), F(b)), (F(c), F(0), F(d)), (F(e), F(f), F(0))),
    )


# -- candidates and Lie derivative ------------------------------------------

def test_candidate_polynomial_form():
    cand = QuadraticCandidate.binary_form(F(2), F(1), F(3))
    poly = cand.as_polynomial()
    assert poly == Polynomial.monomial(2, (2, 0), 2) + Polynomial.monomial(
        2, (1, 1), 2
    ) + Polynomial.monomial(2, (0, 2), 3)


def test_shifted_candidate_form():
    cand = QuadraticCandidate.shifted_sum_of_squares(F(1), F(1))
    assert cand.as_polynomial().render(("x", "y")) == "x^2 + y^2 + 2*x + 2*y + 2"


def test_asymmetric_matrix_rejected():
    with pytest.raises(ValueError):
        QuadraticCandidate(((F(1), F(2)), (F(0), F(1))), (F(0), F(0)), F(0))


def test_lie_derivative_conserved_instance(example_system):
    V = QuadraticCandidate.diagonal((F(1), F(1)))
    assert lie_derivative(V, example_system).is_zero()


def test_lie_derivative_mixed_sign_instance():
    system = PolynomialSystem.from_strings(
        ("x", "y", "z"), ["y*z", "x*z", "-x*z - y*z"]
    )
    V = QuadraticCandidate.diagonal((F(1), F(-1), F(0)))
    assert lie_derivative(V, system).is_zero()


def test_lie_derivative_simple():
    system = PolynomialSystem.from_strings(("x",), ["1"])
    V = QuadraticCandidate.diagonal((F(1),))
    assert lie_derivative(V, system).render(("x",)) == "2*x"


_COEFFS = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def systems_and_candidates(draw):
    """Random 1-6 D systems of degree <= 3 and full quadratic candidates."""
    dim = draw(st.integers(1, 6))
    exponents = st.lists(st.integers(0, 2), min_size=dim, max_size=dim).map(tuple)
    components = [
        Polynomial(dim, draw(st.dictionaries(exponents, _COEFFS, max_size=6)))
        for _ in range(dim)
    ]
    q = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            q[i][j] = q[j][i] = draw(_COEFFS)
    linear = tuple(draw(_COEFFS) for _ in range(dim))
    candidate = QuadraticCandidate(q, linear, draw(_COEFFS))
    names = tuple(f"x{i + 1}" for i in range(dim))
    return candidate, PolynomialSystem(names, tuple(components))


@settings(max_examples=150, deadline=None)
@given(case=systems_and_candidates())
def test_lie_derivative_matches_arithmetic_oracle(case):
    candidate, system = case
    got = lie_derivative(candidate, system)
    assert sorted(got.terms().items()) == sorted(
        arithmetic_lie_derivative(candidate, system).terms().items()
    )
    assert all(type(v) is Fraction and v != 0 for v in got.terms().values())
    assert all(type(e) is int for key in got.terms() for e in key)


@settings(max_examples=100, deadline=None)
@given(case=systems_and_candidates())
def test_candidate_from_polynomial_inverts_as_polynomial(case):
    candidate, _ = case
    assert QuadraticCandidate.from_polynomial(candidate.as_polynomial()) == candidate


def test_candidate_from_polynomial_rejects_cubic():
    with pytest.raises(ValueError, match="degree 3 is not quadratic"):
        QuadraticCandidate.from_polynomial(Polynomial.monomial(2, (2, 1)))


def test_lie_derivative_uses_linear_and_constant_parts():
    # V = x^2 + 3y + 5 on x' = y, y' = 1: 2xy + 3
    system = sys2("y", "1")
    V = QuadraticCandidate(((F(1), F(0)), (F(0), F(0))), (F(0), F(3)), F(5))
    assert lie_derivative(V, system).render(("x", "y")) == "2*x*y + 3"


def test_is_first_integral_cases(oscillator_system):
    V = QuadraticCandidate.diagonal((F(1), F(1)))
    assert is_first_integral(V, oscillator_system)
    growth = PolynomialSystem.from_strings(("x", "y"), ["x", "y"])
    assert not is_first_integral(V, growth)
    ex6 = sys2("-x^2 - 2*x*y + 3*y^2", "2*x^2 - x*y - y^2")
    assert is_first_integral(QuadraticCandidate.binary_form(F(2), F(1), F(3)), ex6)


def test_scale_invariance(example_system):
    rng = random.Random(1)
    V = QuadraticCandidate.diagonal((F(1), F(1)))
    for _ in range(5):
        q = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = QuadraticCandidate.diagonal((q, q))
        assert is_first_integral(scaled, example_system)


def test_dimension_mismatch_raises(example_system):
    V = QuadraticCandidate.diagonal((F(1), F(1), F(1)))
    with pytest.raises(ValueError):
        lie_derivative(V, example_system)


def test_signature_classification():
    assert QuadraticCandidate.diagonal((F(1), F(2))).signature() == (
        "positive-definite diagonal"
    )
    assert QuadraticCandidate.binary_form(F(2), F(1), F(3)).signature() == "definite"
    assert QuadraticCandidate.binary_form(F(1), F(-3), F(2)).signature() == "indefinite"
    assert QuadraticCandidate.binary_form(F(1), F(1), F(1)).signature() == "degenerate"


# -- search -----------------------------------------------------------------

def test_search_recovers_sum_of_squares_3d():
    system = generate_diagonal_system(diag3_params(2, 3, 4, 5, 6, 7))
    report = find_quadratic_first_integrals(system, "positive-diagonal")
    assert report.found
    cand = report.candidate
    assert cand.is_diagonal()
    assert tuple(cand.q[i][i] for i in range(3)) == (F(1), F(1), F(1))
    assert report.signature == "positive-definite diagonal"


def test_search_example_six():
    system = sys2("-x^2 - 2*x*y + 3*y^2", "2*x^2 - x*y - y^2")
    report = find_quadratic_first_integrals(system)
    assert report.found
    assert len(report.basis) == 1
    assert report.candidate.coefficient_vector() == [F(2), F(1), F(3), F(0), F(0)]


def test_search_example_seven_printed_system():
    system = sys2("3*x^2 - 5*x*y + 2*y^2", "x^2 - 4*x*y + 3*y^2")
    report = find_quadratic_first_integrals(system)
    assert report.found
    assert report.candidate.coefficient_vector() == [F(1), F(-3), F(2), F(0), F(0)]
    assert report.signature == "indefinite"


def test_search_zero_system_full_basis():
    zero = sys2("0", "0")
    report = find_quadratic_first_integrals(zero)
    assert report.found
    assert len(report.basis) == 5
    report_diag = find_quadratic_first_integrals(zero, "positive-diagonal")
    assert report_diag.found
    assert report_diag.candidate.is_diagonal()


def test_search_pure_growth_finds_nothing():
    report = find_quadratic_first_integrals(
        PolynomialSystem.from_strings(("x", "y"), ["x", "y"])
    )
    assert not report.found
    assert report.basis == ()


def test_search_filter_excludes_indefinite():
    system = PolynomialSystem.from_strings(
        ("x", "y", "z"), ["y*z", "x*z", "-x*z - y*z"]
    )
    unfiltered = find_quadratic_first_integrals(system)
    assert unfiltered.found
    filtered = find_quadratic_first_integrals(system, "positive-diagonal")
    assert not filtered.found


@pytest.mark.parametrize("name", ["positive_diagonal", "definite"])
def test_search_rejects_unknown_filters(example_system, name):
    with pytest.raises(ValueError, match="unknown signature filter"):
        find_quadratic_first_integrals(example_system, name)


def test_search_basis_elements_verify(example_system, cascade_system):
    for system in (example_system, cascade_system):
        report = find_quadratic_first_integrals(system)
        for cand in report.basis:
            assert is_first_integral(cand, system)


def test_search_report_json():
    system = sys2("-x^2 - 2*x*y + 3*y^2", "2*x^2 - x*y - y^2")
    data = find_quadratic_first_integrals(system).to_dict(system.variables)
    assert data["found"] is True
    assert data["candidate"] == "2*x^2 + 2*x*y + 3*y^2"
    assert data["signature"] == "definite"


@st.composite
def small_systems(draw):
    """Random systems of degree <= 3 in 1-5 variables, or diagonal-family ones."""
    dim = draw(st.integers(1, 5))
    if dim >= 2 and draw(st.booleans()):
        coupling = tuple(
            tuple(
                F(0) if i == j else draw(st.sampled_from([F(0), F(1), F(2), F(1, 2)]))
                for j in range(dim)
            )
            for i in range(dim)
        )
        weights = tuple(draw(st.sampled_from([F(1), F(2), F(3, 2)])) for _ in range(dim))
        return generate_diagonal_system(DiagonalParams(weights, coupling))
    exponents = st.tuples(*[st.integers(0, 2)] * dim).filter(lambda e: sum(e) <= 3)
    component = st.dictionaries(exponents, st.sampled_from(SMALL_FRACTIONS), max_size=4)
    names = tuple(f"x{i}" for i in range(dim))
    return PolynomialSystem(
        names, tuple(Polynomial(dim, draw(component)) for _ in range(dim))
    )


@settings(max_examples=150, deadline=None)
@given(system=small_systems(), diagonal_only=st.booleans())
def test_search_matches_unit_candidate_oracle(system, diagonal_only):
    units = unit_candidates(system.dim, diagonal_only)
    weights = nullspace_basis(
        sparse_rows(unit_lie_derivative_matrix(system, units)), len(units)
    )
    report = find_quadratic_first_integrals(
        system, "positive-diagonal" if diagonal_only else None
    )
    assert report.basis == tuple(
        combine_units(units, leading_sign_normalized(w)) for w in weights
    )
    if diagonal_only and weights:
        witness = positive_vector_in_span(weights, system.dim).vector
        if witness is not None:
            assert report.candidate == combine_units(
                units, leading_sign_normalized(witness)
            )
        assert report.found == (witness is not None)


# Full-QFI bases of the cascade as computed by dense Fraction elimination
# (the `dense_rref` oracle): the rendered elements and the sha256 of
# repr(report.basis).  The second network gives the cascade rational rates so
# its constraint matrix carries larger coefficients.
CASCADE_RATES = ("2", "1/3", "5/2", "7", "3/4", "2/5", "3", "1/2", "4/3", "6")
CASCADE_BASES = {
    False: (
        "9f96ef14db6b352ec258693900ec81dce2e03e5eaaf92a3827a29faa228ddd13",
        [
            "a^2 - 2*a*b + b^2",
            "2*a*d - 2*a*e - 2*b*d + 2*b*e",
            "2*a^2 - 2*a*b + 4*a*c + 6*a*d + 6*a*f - 4*b*c - 6*b*d - 6*b*f",
            "8*a^2 - 8*a*b + 4*a*c + 12*a*g + 12*a*h + 6*a*j - 4*b*c - 12*b*g"
            " - 12*b*h - 6*b*j",
            "d^2 - 2*d*e + e^2",
            "2*a*d - 2*a*e + 4*c*d - 4*c*e + 6*d^2 - 6*d*e + 6*d*f - 6*e*f",
            "8*a*d - 8*a*e + 4*c*d - 4*c*e + 12*d*g + 12*d*h + 6*d*j - 12*e*g"
            " - 12*e*h - 6*e*j",
            "a^2 + 4*a*c + 6*a*d + 6*a*f + 4*c^2 + 12*c*d + 12*c*f + 9*d^2"
            " + 18*d*f + 9*f^2",
            "8*a^2 + 20*a*c + 24*a*d + 24*a*f + 12*a*g + 12*a*h + 6*a*j + 8*c^2"
            " + 12*c*d + 12*c*f + 24*c*g + 24*c*h + 12*c*j + 36*d*g + 36*d*h"
            " + 18*d*j + 36*f*g + 36*f*h + 18*f*j",
            "16*a^2 + 16*a*c + 48*a*g + 48*a*h + 24*a*j + 4*c^2 + 24*c*g + 24*c*h"
            " + 12*c*j + 36*g^2 + 72*g*h + 36*g*j + 36*h^2 + 36*h*j + 9*j^2",
            "a - b",
            "d - e",
            "a + 2*c + 3*d + 3*f",
            "4*a + 2*c + 6*g + 6*h + 3*j",
        ],
    ),
    True: (
        "212a1ceb6807ef56d9bb005950b8295497a007a0fb2f1238198797e4e3614fc5",
        [
            "a^2 - 2*a*b + b^2",
            "2*a*d - 2*a*e - 2*b*d + 2*b*e",
            "150*a^2 - 150*a*b + 180*a*c + 184*a*d + 184*a*f - 180*b*c - 184*b*d"
            " - 184*b*f",
            "34*a^2 - 34*a*b + 4*a*c + 184*a*g + 184*a*h + 92*a*j - 4*b*c"
            " - 184*b*g - 184*b*h - 92*b*j",
            "d^2 - 2*d*e + e^2",
            "150*a*d - 150*a*e + 180*c*d - 180*c*e + 184*d^2 - 184*d*e + 184*d*f"
            " - 184*e*f",
            "34*a*d - 34*a*e + 4*c*d - 4*c*e + 184*d*g + 184*d*h + 92*d*j"
            " - 184*e*g - 184*e*h - 92*e*j",
            "5625*a^2 + 13500*a*c + 13800*a*d + 13800*a*f + 8100*c^2 + 16560*c*d"
            " + 16560*c*f + 8464*d^2 + 16928*d*f + 8464*f^2",
            "1275*a^2 + 1680*a*c + 1564*a*d + 1564*a*f + 6900*a*g + 6900*a*h"
            " + 3450*a*j + 180*c^2 + 184*c*d + 184*c*f + 8280*c*g + 8280*c*h"
            " + 4140*c*j + 8464*d*g + 8464*d*h + 4232*d*j + 8464*f*g + 8464*f*h"
            " + 4232*f*j",
            "289*a^2 + 68*a*c + 3128*a*g + 3128*a*h + 1564*a*j + 4*c^2 + 368*c*g"
            " + 368*c*h + 184*c*j + 8464*g^2 + 16928*g*h + 8464*g*j + 8464*h^2"
            " + 8464*h*j + 2116*j^2",
            "a - b",
            "d - e",
            "75*a + 90*c + 92*d + 92*f",
            "17*a + 2*c + 92*g + 92*h + 46*j",
        ],
    ),
}


@pytest.mark.parametrize("rational_rates", [False, True])
def test_cascade_full_basis_is_pinned(rational_rates):
    text = CATALYTIC_CASCADE_TEXT
    if rational_rates:
        text = "".join(
            line.replace("[1]", f"[{rate}]") + "\n"
            for line, rate in zip(text.splitlines(), CASCADE_RATES)
        )
    system = induced_kinetic_ode(parse_network(text))
    basis = find_quadratic_first_integrals(system).basis
    digest, rendered = CASCADE_BASES[rational_rates]
    assert [c.render(system.variables) for c in basis] == rendered
    assert hashlib.sha256(repr(basis).encode()).hexdigest() == digest


_COPRIME_DENOMINATORS = [3, 10007, 65537, 999983, 2**61 - 1]


@st.composite
def rational_rate_systems(draw):
    """Systems in 1-4 variables whose coefficients, of both signs, have large
    coprime denominators.  A third conserve a positive-diagonal V and a third
    a shifted V = (x + a)^2 + (y + b)^2, whose quadratic and linear parts
    tie the two kinds of column together."""
    positive = st.builds(
        F, st.integers(1, 10**12), st.sampled_from(_COPRIME_DENOMINATORS)
    )
    kind = draw(st.sampled_from(["diagonal", "shifted", "random"]))
    if kind == "shifted":
        return generate_shifted_system(*(draw(positive) for _ in range(4)))
    dim = draw(st.integers(1, 4))
    if dim >= 2 and kind == "diagonal":
        coupling = tuple(
            tuple(F(0) if i == j else draw(st.one_of(st.just(F(0)), positive)) for j in range(dim))
            for i in range(dim)
        )
        weights = tuple(draw(positive) for _ in range(dim))
        return generate_diagonal_system(DiagonalParams(weights, coupling))
    signed = st.builds(lambda sign, v: sign * v, st.sampled_from([1, -1]), positive)
    exponents = st.tuples(*[st.integers(0, 2)] * dim).filter(lambda e: sum(e) <= 3)
    component = st.dictionaries(exponents, st.one_of(signed, st.sampled_from(SMALL_FRACTIONS)), max_size=4)
    names = tuple(f"x{i}" for i in range(dim))
    return PolynomialSystem(names, tuple(Polynomial(dim, draw(component)) for _ in range(dim)))


def _primitive_rows(rows, ncols):
    """The multiset of the rows, each as a primitive integer vector."""
    return Counter(primitive_integer_vector([row.get(c, 0) for c in range(ncols)]) for row in rows)


_TOP_TERMS = st.none() | st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-2, -1, 1, 3]))


@settings(max_examples=150, deadline=None)
@given(system=rational_rate_systems(), top=_TOP_TERMS)
def test_integer_columns_give_the_basis_of_the_fraction_columns(system, top):
    """The rows built in ints from monomial codes are positive multiples of
    the rows of the unscaled Fraction columns, for the quadratic, the x_i^2
    and the linear units, and both QFI searches, kinetic conservation and
    the linear-integral search report the same answers from either.  A term
    c x_k^MAX_DEGREE, when drawn, puts the largest exponent the one-byte
    code must hold, MAX_DEGREE + 1, in use once shifted by x_k."""
    n = system.dim
    if top is not None:
        i, k, c = top
        expts = tuple(MAX_DEGREE if t == k % n else 0 for t in range(n))
        components = list(system.components)
        components[i % n] = components[i % n] + Polynomial(n, {expts: c})
        system = PolynomialSystem(system.variables, tuple(components))
    columns = fraction_lie_derivative_columns(system)
    units = [(i, j) for i in range(n) for j in range(i, n)] + [(i,) for i in range(n)]

    def oracle_rows(system, chosen):
        return coefficient_matrix([columns[units.index(unit)] for unit in chosen])

    for chosen in (units, [(i, i) for i in range(n)], [(i,) for i in range(n)]):
        rows = lie_derivative_rows(system, chosen)
        assert all(type(v) is int for row in rows for v in row.values())
        expected = oracle_rows(system, chosen)
        assert _primitive_rows(rows, len(chosen)) == _primitive_rows(expected, len(chosen))

    def answers():
        return repr((
            find_quadratic_first_integrals(system),
            find_quadratic_first_integrals(system, "positive-diagonal"),
            kinetic_conservation(system),
            crnkit.qfi._disk_level_integral(system, None),
        ))

    report = answers()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crnkit.conservation, "lie_derivative_rows", oracle_rows)
        mp.setattr(crnkit.qfi, "lie_derivative_rows", oracle_rows)
        assert answers() == report


def test_exact_searches_refuse_a_system_above_max_degree():
    # a shift raises an exponent by one, and it must still fit the code's byte
    assert MAX_DEGREE + 1 < 256
    names = ("x", "y", "z")

    def system_of_degree(degree):
        top = Polynomial.monomial(3, (degree, 0, 0))
        return PolynomialSystem(names, (-top, top, Polynomial.zero(3)))

    above = system_of_degree(MAX_DEGREE + 1)
    for search in (
        kinetic_conservation,
        find_quadratic_first_integrals,
        lambda system: find_quadratic_first_integrals(system, "positive-diagonal"),
        no_periodic_orbit_certificate,
    ):
        # a refusal is not cached: every call on the same system raises it again
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                search(above)
            assert str(info.value) == f"system of degree {MAX_DEGREE + 1} is above MAX_DEGREE = 100"
    at_cap = system_of_degree(MAX_DEGREE)
    rho = kinetic_conservation(at_cap).rho
    assert rho[0] == rho[1]
    assert find_quadratic_first_integrals(at_cap).found
    assert not find_quadratic_first_integrals(at_cap, "positive-diagonal").found
    certificate = no_periodic_orbit_certificate(at_cap)
    assert certificate.verdict == "yes"
    assert certificate.first_integral.render(names) == "x + y"


def _exact_answers(system, order):
    """Reprs of the exact searches on `system`, run in `order`, as a dict by search."""
    searches = {
        "kinetic": kinetic_conservation,
        "full": find_quadratic_first_integrals,
        "diagonal": lambda system: find_quadratic_first_integrals(system, "positive-diagonal"),
        "disk": lambda system: crnkit.qfi._disk_level_integral(system, None),
    }
    return {name: repr(searches[name](system)) for name in order}


@settings(max_examples=100, deadline=None)
@given(system=st.one_of(small_systems(), rational_rate_systems()))
def test_cached_term_table_gives_the_answers_of_a_fresh_system(system):
    """Each search reads the table the first search left on the system, in
    either order, and answers as on a fresh copy that builds its own."""
    def copy():
        return PolynomialSystem(system.variables, system.components)

    order = ["kinetic", "full", "diagonal", "disk"]
    fresh = {name: _exact_answers(copy(), [name])[name] for name in order}
    assert _exact_answers(copy(), order) == fresh
    assert _exact_answers(copy(), order[::-1]) == fresh


def test_term_table_is_built_once_per_system(monkeypatch, cascade_system):
    builds = []
    build = PolynomialSystem.coded_terms.func

    def counted(system):
        builds.append(system)
        return build(system)

    table = cached_property(counted)
    table.__set_name__(PolynomialSystem, "coded_terms")
    monkeypatch.setattr(PolynomialSystem, "coded_terms", table)
    system = PolynomialSystem(cascade_system.variables, cascade_system.components)
    kinetic_conservation(system)
    find_quadratic_first_integrals(system)
    find_quadratic_first_integrals(system, "positive-diagonal")
    assert builds == [system]
    assert system.__dict__["coded_terms"] is system.coded_terms


def test_term_table_leaves_the_system_value_alone():
    def build():
        return PolynomialSystem.from_strings(("x", "y"), ["1/2*x - 1/3*y^2 + 5", "3/4*x*y - 7*y"])

    system, other = build(), build()
    before = (hash(system), repr(system), system.to_dict())
    table = system.coded_terms
    assert "coded_terms" in system.__dict__ and "coded_terms" not in other.__dict__
    assert system == other and other == system
    assert (hash(system), repr(system), system.to_dict()) == before
    assert (hash(other), repr(other), other.to_dict()) == before
    # one (code, int coefficient) pair per term, one byte of the code per variable
    den = math.lcm(*(c.denominator for p in system.components for c in p.terms().values()))
    for component, terms in zip(system.components, table):
        assert sorted(terms) == sorted(
            (int.from_bytes(bytes(e), "little"), int(c * den)) for e, c in component.terms().items()
        )


def _is_clean_candidate(candidate):
    q, linear = candidate.q, candidate.linear
    n = len(q)
    return (
        type(q) is tuple
        and all(type(row) is tuple and len(row) == n for row in q)
        and type(linear) is tuple
        and len(linear) == n
        and all(type(v) is Fraction for v in (*(v for row in q for v in row), *linear, candidate.constant))
        and all(q[i][j] == q[j][i] for i in range(n) for j in range(n))
    )


@settings(max_examples=100, deadline=None)
@given(system=st.one_of(small_systems(), rational_rate_systems()))
def test_trusted_candidates_equal_the_validated_ones(system):
    candidates = [crnkit.qfi._disk_level_integral(system, None)]
    for signature_filter in (None, "positive-diagonal"):
        report = find_quadratic_first_integrals(system, signature_filter)
        candidates += [*report.basis, report.candidate]
    for candidate in candidates:
        if candidate is not None:
            assert _is_clean_candidate(candidate)
            validated = QuadraticCandidate(candidate.q, candidate.linear, candidate.constant)
            assert candidate == validated
            assert repr(candidate) == repr(validated)


@pytest.mark.parametrize(
    "coeffs", [[], [3], [0, -2], [F(1, 2), F(-3)], ["1/2", "-4", "0"], (1, F(2, 3), "5")]
)
def test_diagonal_candidate_equals_the_validated_one(coeffs):
    candidate = QuadraticCandidate.diagonal(coeffs)
    n = len(coeffs)
    expected = QuadraticCandidate(
        [[coeffs[i] if i == j else 0 for j in range(n)] for i in range(n)], [0] * n
    )
    assert _is_clean_candidate(candidate)
    assert candidate == expected
    assert repr(candidate) == repr(expected)


def test_search_makes_no_lie_derivative_call(monkeypatch, example_system, cascade_system):
    def forbidden(candidate, system):
        raise AssertionError("lie_derivative called")

    monkeypatch.setattr(crnkit.qfi, "lie_derivative", forbidden)
    for system in (example_system, cascade_system):
        for signature_filter in (None, "positive-diagonal"):
            find_quadratic_first_integrals(system, signature_filter)


# -- diagonal generator -----------------------------------------------------

def test_generate_two_species_template():
    params = DiagonalParams((F(1), F(1)), ((F(0), F(2)), (F(3), F(0))))
    assert generate_diagonal_system(params) == sys2("2*y^2 - 3*x*y", "3*x^2 - 2*x*y")


def test_generate_three_species_template():
    system = generate_diagonal_system(diag3_params(2, 3, 4, 5, 6, 7))
    assert system == PolynomialSystem.from_strings(
        ("x", "y", "z"),
        [
            "2*y^2 + 3*z^2 - 4*x*y - 6*x*z",
            "4*x^2 + 5*z^2 - 2*x*y - 7*y*z",
            "6*x^2 + 7*y^2 - 3*x*z - 5*y*z",
        ],
    )


def test_generate_zero_coupling():
    params = DiagonalParams((F(1), F(2)), ((F(0), F(0)), (F(0), F(0))))
    assert generate_diagonal_system(params).is_zero()


def test_diagonal_params_validation():
    with pytest.raises(GeneratorConstraintError):
        DiagonalParams((F(0), F(1)), ((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(GeneratorConstraintError):
        DiagonalParams((F(1), F(1)), ((F(0), F(-1)), (F(0), F(0))))
    with pytest.raises(GeneratorConstraintError):
        DiagonalParams((F(1), F(1)), ((F(1), F(0)), (F(0), F(0))))


def test_diagonal_generator_randomized_soundness():
    rng = random.Random(55)
    for _ in range(60):
        m = rng.randint(2, 4)
        weights = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(m))
        coupling = tuple(
            tuple(
                F(0) if i == j else F(rng.randint(0, 4), rng.choice((1, 2)))
                for j in range(m)
            )
            for i in range(m)
        )
        params = DiagonalParams(weights, coupling)
        system = generate_diagonal_system(params)
        assert negative_cross_effect(system).is_kinetic
        assert is_first_integral(params.invariant(), system)


FAILING_GENERATOR_SCRIPT = """
import crnkit.qfi
from crnkit import DiagonalParams, ProofCheckError, generate_diagonal_system
crnkit.qfi.is_first_integral = lambda candidate, system: False
try:
    generate_diagonal_system(DiagonalParams((1, 1), ((0, 2), (3, 0))))
except ProofCheckError as exc:
    print(exc)
"""


def test_generator_proof_check_survives_optimization(monkeypatch):
    params = DiagonalParams((F(1), F(1)), ((F(0), F(2)), (F(3), F(0))))
    monkeypatch.setattr(crnkit.qfi, "is_first_integral", lambda candidate, system: False)
    with pytest.raises(ProofCheckError, match="must conserve V"):
        generate_diagonal_system(params)
    result = subprocess.run(
        [sys.executable, "-O", "-c", FAILING_GENERATOR_SCRIPT],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "generated system must conserve V"


# -- mixed-sign generator ---------------------------------------------------

def test_mixed_sign_minimal_instance():
    params = MixedSignParams(
        (F(1),), (F(1),), ((F(1),),), (F(1),), (F(1),), F(1)
    )
    system = generate_mixed_sign_system(params)
    assert system == PolynomialSystem.from_strings(
        ("x", "y", "z"), ["y*z", "x*z", "-x*z - y*z"]
    )
    assert is_first_integral(params.invariant(), system)


def test_mixed_sign_two_by_two():
    params = MixedSignParams(
        (F(1), F(1)),
        (F(1), F(1)),
        ((F(1), F(2)), (F(3), F(4))),
        (F(1), F(1)),
        (F(1), F(1)),
        F(1),
    )
    system = generate_mixed_sign_system(params)
    assert system.variables == ("x1", "x2", "y1", "y2", "z")
    x1p, x2p, y1p, y2p, zp = system.components
    assert x1p.render(system.variables) == "y1*z + 2*y2*z"
    assert y2p.render(system.variables) == "2*x1*z + 4*x2*z"
    assert zp == (x1p + x2p + y1p + y2p) * F(-1)


def test_mixed_sign_rho_z_scaling():
    params = MixedSignParams(
        (F(1),), (F(1),), ((F(1),),), (F(1),), (F(1),), F(2)
    )
    system = generate_mixed_sign_system(params)
    # z' absorbs the weighted x and y rates at half strength
    assert system.components[2].render(system.variables) == "-1/2*x*z - 1/2*y*z"
    assert kinetic_conservation(system) is not None


def test_mixed_sign_zero_coupling():
    params = MixedSignParams(
        (F(1), F(2)), (F(1),), ((F(0),), (F(0),)), (F(1), F(1)), (F(1),), F(1)
    )
    assert generate_mixed_sign_system(params).is_zero()


def test_mixed_sign_conservation_witness():
    params = MixedSignParams(
        (F(1), F(1)),
        (F(2),),
        ((F(1),), (F(2),)),
        (F(2), F(1)),
        (F(3),),
        F(1),
    )
    system = generate_mixed_sign_system(params)
    assert negative_cross_effect(system).is_kinetic
    witness = params.conservation()
    from crnkit import verify_conservation

    assert verify_conservation(witness, system)


def test_mixed_sign_validation():
    with pytest.raises(GeneratorConstraintError):
        MixedSignParams((F(1),), (F(0),), ((F(1),),), (F(1),), (F(1),), F(1))
    with pytest.raises(GeneratorConstraintError):
        MixedSignParams((F(1),), (F(1),), ((F(-1),),), (F(1),), (F(1),), F(1))


# -- binary-form generators -------------------------------------------------

def test_ellipse_hyperbola_example_six():
    params = BinaryFormParams(
        family="ellipse_hyperbola", a=F(2), b=F(1), c=F(3), k=F(1), l=F(1)
    )
    assert generate_binary_form_system(params) == sys2(
        "-x^2 - 2*x*y + 3*y^2", "2*x^2 - x*y - y^2"
    )


def test_ellipse_hyperbola_example_seven():
    params = BinaryFormParams(
        family="ellipse_hyperbola", a=F(1), b=F(-3), c=F(2), k=F(1), l=F(1)
    )
    assert generate_binary_form_system(params) == sys2(
        "3*x^2 - 5*x*y + 2*y^2", "x^2 - 4*x*y + 3*y^2"
    )


def test_parabolic_plus_always_conserves():
    params = BinaryFormParams(
        family="parabolic_plus",
        a=F(1), b=F(2), c=F(4), k=F(1), l=F(1), m=F(1), n=F(1), s=F(-2),
    )
    system = generate_binary_form_system(params)
    assert negative_cross_effect(system).is_kinetic
    assert is_first_integral(params.invariant(), system)
    found = kinetic_conservation(system)
    assert found is not None
    # witness is proportional to (a, b)
    assert found.rho[0] * F(2) == found.rho[1] * F(1)


def test_parabolic_minus_instance():
    params = BinaryFormParams(
        family="parabolic_minus",
        a=F(1), b=F(1), c=F(1), k=F(1), l=F(0), m=F(0), n=F(1), r=F(2), s=F(-1),
    )
    system = generate_binary_form_system(params)
    assert negative_cross_effect(system).is_kinetic
    assert is_first_integral(params.invariant(), system)
    assert params.invariant().coefficient_vector() == [F(1), F(-1), F(1), F(0), F(0)]


def test_indefinite_instance():
    params = BinaryFormParams(
        family="indefinite", a=F(1), b=F(2), c=F(3), k=F(1), l=F(1), m=F(2)
    )
    system = generate_binary_form_system(params)
    assert negative_cross_effect(system).is_kinetic
    assert is_first_integral(params.invariant(), system)
    assert params.invariant().signature() == "indefinite"


def test_rank_one_instance():
    params = BinaryFormParams(
        family="rank_one", a=F(2), b=F(1), k=F(1), m=F(1), s=F(-1)
    )
    system = generate_binary_form_system(params)
    assert negative_cross_effect(system).is_kinetic
    assert is_first_integral(params.invariant(), system)
    assert params.invariant().signature() == "indefinite"


def test_binary_form_zero_parameters_give_zero_system():
    for family, extra in (
        ("ellipse_hyperbola", dict(c=F(3))),
        ("parabolic_plus", dict(a=F(1), b=F(1), c=F(1))),
        ("parabolic_minus", dict(a=F(1), b=F(1), c=F(1))),
        ("indefinite", dict(c=F(3))),
        ("rank_one", dict()),
    ):
        kwargs = dict(a=F(2), b=F(1))
        kwargs.update(extra)
        params = BinaryFormParams(family=family, **kwargs)
        assert generate_binary_form_system(params).is_zero()


# Every admissibility condition of every binary family with its exact message.
# Where several conditions fail, the first listed for the family wins; the
# "does not use" checks run in k, l, m, n, r, s order before the sign checks.
BINARY_FORM_REJECTIONS = [
    (dict(family="nonsense", a=1, b=1), "unknown family 'nonsense'"),
    (dict(family="nonsense", a=-1, b=1, k=-1), "unknown family 'nonsense'"),
    (dict(family="ellipse_hyperbola", a=0, b=1, c=0), "ellipse_hyperbola requires a > 0"),
    (dict(family="ellipse_hyperbola", a=1, b=1, c=-1), "ellipse_hyperbola requires c > 0"),
    # ac = b^2 is the parabolic case, not allowed here
    (dict(family="ellipse_hyperbola", a=1, b=1, c=1), "ellipse_hyperbola requires ac - b^2 != 0"),
    (dict(family="ellipse_hyperbola", a=2, b=1, c=3, k=-1), "free parameter k must be nonnegative"),
    (dict(family="ellipse_hyperbola", a=2, b=1, c=3, l=-1), "free parameter l must be nonnegative"),
    (dict(family="ellipse_hyperbola", a=2, b=1, c=3, k=-1, m=1),
     "family ellipse_hyperbola does not use parameter m"),
    (dict(family="ellipse_hyperbola", a=2, b=1, c=3, n=1, m=1),
     "family ellipse_hyperbola does not use parameter m"),
    (dict(family="ellipse_hyperbola", a=2, b=1, c=3, n=-1),
     "family ellipse_hyperbola does not use parameter n"),
    # r belongs to parabolic_minus only
    (dict(family="ellipse_hyperbola", a=2, b=1, c=3, r=1),
     "family ellipse_hyperbola does not use parameter r"),
    (dict(family="ellipse_hyperbola", a=2, b=1, c=3, s=1),
     "family ellipse_hyperbola does not use parameter s"),
    (dict(family="parabolic_plus", a=1, b=0, c=0), "parabolic_plus requires a, b, c > 0"),
    (dict(family="parabolic_plus", a=1, b=-1, c=1), "parabolic_plus requires a, b, c > 0"),
    (dict(family="parabolic_plus", a=1, b=1, c=2), "parabolic_plus requires ac - b^2 = 0"),
    (dict(family="parabolic_plus", a=1, b=1, c=1, r=1),
     "family parabolic_plus does not use parameter r"),
    (dict(family="parabolic_plus", a=1, b=1, c=1, n=-1), "free parameter n must be nonnegative"),
    (dict(family="parabolic_plus", a=1, b=1, c=1, m=-1, k=-1),
     "free parameter k must be nonnegative"),
    (dict(family="parabolic_minus", a=0, b=1, c=1), "parabolic_minus requires a, b, c > 0"),
    (dict(family="parabolic_minus", a=4, b=2, c=2), "parabolic_minus requires ac - b^2 = 0"),
    (dict(family="parabolic_minus", a=4, b=2, c=1, r=-1), "free parameter r must be nonnegative"),
    (dict(family="parabolic_minus", a=4, b=2, c=1, l=-1, s=-1),
     "free parameter l must be nonnegative"),
    (dict(family="indefinite", a=-1, b=0, c=-1), "indefinite requires a > 0"),
    (dict(family="indefinite", a=1, b=0, c=0), "indefinite requires c > 0"),
    (dict(family="indefinite", a=1, b=0, c=1), "indefinite requires b != 0"),
    (dict(family="indefinite", a=1, b=1, c=1, n=1), "family indefinite does not use parameter n"),
    (dict(family="indefinite", a=1, b=1, c=1, r=1), "family indefinite does not use parameter r"),
    (dict(family="indefinite", a=1, b=1, c=1, s=-1), "family indefinite does not use parameter s"),
    (dict(family="indefinite", a=1, b=1, c=1, m=-1), "free parameter m must be nonnegative"),
    (dict(family="rank_one", a=0, b=0, c=1), "rank_one requires a > 0"),
    (dict(family="rank_one", a=1, b=0, c=1), "rank_one requires b != 0"),
    (dict(family="rank_one", a=1, b=1, c=1), "rank_one fixes c = 0"),
    (dict(family="rank_one", a=1, b=1, l=1), "family rank_one does not use parameter l"),
    (dict(family="rank_one", a=1, b=1, n=1), "family rank_one does not use parameter n"),
    (dict(family="rank_one", a=1, b=1, r=1, k=-1), "family rank_one does not use parameter r"),
    (dict(family="rank_one", a=1, b=-1, k=-1), "free parameter k must be nonnegative"),
]


def test_binary_form_constraint_violations():
    for kwargs, message in BINARY_FORM_REJECTIONS:
        with pytest.raises(GeneratorConstraintError) as info:
            BinaryFormParams(**kwargs)
        assert str(info.value) == message, kwargs
    # Fraction conversion comes before every family check
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        BinaryFormParams(family="nonsense", a=1, b=1, s="junk")


def test_binary_form_randomized_soundness():
    rng = random.Random(4242)
    families = (
        "ellipse_hyperbola",
        "parabolic_plus",
        "parabolic_minus",
        "indefinite",
        "rank_one",
    )
    count = 0
    for _ in range(120):
        family = rng.choice(families)
        a = F(rng.randint(1, 4))
        b = F(rng.choice((-2, -1, 1, 2)))
        nonneg = lambda: F(rng.randint(0, 3), rng.choice((1, 2)))
        free = lambda: F(rng.randint(-3, 3), rng.choice((1, 2)))
        try:
            if family == "ellipse_hyperbola":
                params = BinaryFormParams(
                    family=family, a=a, b=b, c=F(rng.randint(1, 4)),
                    k=nonneg(), l=nonneg(),
                )
            elif family == "parabolic_plus":
                b = F(rng.randint(1, 3))
                params = BinaryFormParams(
                    family=family, a=b * b, b=b, c=F(1),
                    k=nonneg(), l=nonneg(), m=nonneg(), n=nonneg(), s=free(),
                )
            elif family == "parabolic_minus":
                b = F(rng.randint(1, 3))
                params = BinaryFormParams(
                    family=family, a=b * b, b=b, c=F(1),
                    k=nonneg(), l=nonneg(), m=nonneg(), n=nonneg(),
                    r=nonneg(), s=free(),
                )
            elif family == "indefinite":
                params = BinaryFormParams(
                    family=family, a=a, b=b, c=F(rng.randint(1, 4)),
                    k=nonneg(), l=nonneg(), m=nonneg(),
                )
            else:
                params = BinaryFormParams(
                    family=family, a=a, b=b, k=nonneg(), m=nonneg(), s=free()
                )
        except GeneratorConstraintError:
            continue
        system = generate_binary_form_system(params)
        assert negative_cross_effect(system).is_kinetic
        assert is_first_integral(params.invariant(), system)
        count += 1
    assert count >= 80


# -- completeness of the families ---------------------------------------------
#
# A family is complete for its form V when every kinetic system f of degree
# <= 2 with grad(V) . f = 0 lies in the family's span.  In coordinates (f_i's
# coefficient of each monomial of degree <= 2) the conserving systems are
# K mu, and kinetic means K mu >= 0 on the coordinates S of monomials without
# x_i.  A kinetic conserving system outside the span has l . K mu != 0 for a
# functional l vanishing on the span, and the kinetic set is a cone, so
# {mu : (K mu)_S >= 0, +-l . K mu >= 1} is infeasible for every such l and
# sign exactly when the family is complete.  Phase 1 decides each system on
# mu = mu+ - mu-, and its dual z is checked here as a Farkas certificate.


def _split(vector):
    """Integer sparse row over (mu+, mu-) for a positive multiple of `vector` . mu."""
    scale = math.lcm(*(F(v).denominator for v in vector))
    row = {j: int(v * scale) for j, v in enumerate(vector) if v}
    return {**row, **{j + len(vector): -v for j, v in row.items()}}


def _assert_cone_misses(cone, form):
    """No mu has c . mu >= 0 for each c in `cone` and form . mu >= 1.

    The set is a cone apart from the last right-hand side, so scaling a row
    by a positive number (`_split`) keeps its feasibility.  Phase 1 must
    find it empty, and its dual z must be a Farkas certificate: z >= 0,
    z . rhs > 0, and z . rows <= 0 in every column.
    """
    rows = [_split(vector) for vector in cone + [form]]
    rhs = [0] * len(cone) + [1]
    point, z = _phase1(rows, rhs, 2 * len(form))
    assert point is None, "feasible"
    assert all(v >= 0 for v in z) and sum(v * b for v, b in zip(z, rhs)) > 0
    combined = [0] * (2 * len(form))
    for v, row in zip(z, rows):
        for col, entry in row.items():
            combined[col] += v * entry
    assert all(v <= 0 for v in combined)


def _assert_complete(invariant, unit_systems, free_signs):
    """The kinetic systems conserving `invariant` are the kinetic span of `unit_systems`.

    `free_signs[j]` is True when the j-th free parameter must be >= 0.
    """
    n = invariant.dim
    monomials = [e for e in product(range(3), repeat=n) if sum(e) <= 2]
    columns = []
    for i in range(n):
        for e in monomials:
            column = {}
            for k, q in enumerate(invariant.q[i]):
                if q:
                    accumulate_terms(column, {e: F(1)}, 2 * q, shift=k)
            if invariant.linear[i]:
                accumulate_terms(column, {e: F(1)}, invariant.linear[i])
            columns.append(column)
    kernel = nullspace_basis(coefficient_matrix(columns), len(columns))
    kinetic = [i * len(monomials) + t for i in range(n) for t, e in enumerate(monomials) if not e[i]]
    span = [
        [component.coefficient(e) for component in system.components for e in monomials]
        for system in unit_systems
    ]
    cone = [[vec[c] for vec in kernel] for c in kinetic]
    for ell in nullspace_basis([dict(enumerate(v)) for v in span], len(columns)):
        form = [sum(l * vec[c] for c, l in enumerate(ell) if l) for vec in kernel]
        _assert_cone_misses(cone, form)
        _assert_cone_misses(cone, [-v for v in form])
    # within the span, kinetic means admissible: no sign-restricted parameter <= -1
    cone = [[vec[c] for vec in span] for c in kinetic]
    for j, nonnegative in enumerate(free_signs):
        if nonnegative:
            _assert_cone_misses(cone, [-1 if t == j else 0 for t in range(len(span))])


def _admissible_forms(family, count, rng):
    """`count` admissible (a, b, c) for a binary family, drawn from small rationals."""
    values = [F(p, q) for p in range(-3, 4) for q in (1, 2, 3)]
    forms = []
    while len(forms) < count:
        a, b, c = (rng.choice(values) for _ in range(3))
        if family.startswith("parabolic") and b > 0 and c > 0:
            a = b * b / c
        if family == "rank_one":
            c = F(0)
        try:
            forms.append(BinaryFormParams(family=family, a=a, b=b, c=c))
        except GeneratorConstraintError:
            continue
    return forms


@pytest.mark.parametrize("family", crnkit.qfi.BINARY_FORM_FAMILIES)
def test_binary_families_are_complete(family):
    free = crnkit.qfi._BINARY_FAMILIES[family].free
    for params in _admissible_forms(family, 5, random.Random(family)):
        units = [
            generate_binary_form_system(
                BinaryFormParams(family=family, a=params.a, b=params.b, c=params.c, **{name: 1})
            )
            for name in free
        ]
        _assert_complete(params.invariant(), units, [name != "s" for name in free])


@pytest.mark.parametrize("n, draws", [(2, 3), (3, 2), (4, 1)])
def test_diagonal_family_is_complete(n, draws):
    rng = random.Random(n)
    slots = [(m, p) for m in range(n) for p in range(n) if m != p]
    for _ in range(draws):
        weights = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n))
        units = []
        for slot in slots:
            coupling = tuple(tuple(int((m, p) == slot) for p in range(n)) for m in range(n))
            units.append(generate_diagonal_system(DiagonalParams(weights, coupling)))
        invariant = QuadraticCandidate.diagonal(weights)
        _assert_complete(invariant, units, [True] * len(slots))


def test_shifted_display_instance():
    system = generate_shifted_system(F(1), F(1), F(1), F(1))
    assert system == sys2("y^2 - x*y - x + y", "x^2 - x*y + x - y")
    V = QuadraticCandidate.shifted_sum_of_squares(F(1), F(1))
    assert is_first_integral(V, system)
    assert negative_cross_effect(system).is_kinetic


def test_shifted_specializations():
    assert generate_shifted_system(F(1), F(0), F(0), F(0)) == sys2("y^2", "-x*y")
    assert generate_shifted_system(F(0), F(0), F(5), F(7)).is_zero()


def test_shifted_negative_shift_constraints():
    system = generate_shifted_system(F(2), F(0), F(-1), F(3))
    V = QuadraticCandidate.shifted_sum_of_squares(F(-1), F(3))
    assert is_first_integral(V, system)
    with pytest.raises(GeneratorConstraintError):
        generate_shifted_system(F(1), F(1), F(-1), F(1))
    with pytest.raises(GeneratorConstraintError):
        generate_shifted_system(F(1), F(1), F(1), F(-2))
    with pytest.raises(GeneratorConstraintError):
        generate_shifted_system(F(-1), F(0), F(0), F(0))


def test_shifted_randomized_soundness():
    rng = random.Random(8)
    for _ in range(50):
        a = F(rng.randint(-2, 3))
        b = F(rng.randint(-2, 3))
        A = F(0) if b < 0 else F(rng.randint(0, 3))
        B = F(0) if a < 0 else F(rng.randint(0, 3))
        system = generate_shifted_system(A, B, a, b)
        assert negative_cross_effect(system).is_kinetic
        assert is_first_integral(
            QuadraticCandidate.shifted_sum_of_squares(a, b), system
        )


# -- equilibrium line and collapse checks -----------------------------------

def test_equilibria_on_line():
    ex6 = BinaryFormParams(
        family="ellipse_hyperbola", a=F(2), b=F(1), c=F(3), k=F(1), l=F(1)
    )
    assert equilibria_on_line_check(ex6)
    axis = BinaryFormParams(
        family="ellipse_hyperbola", a=F(2), b=F(1), c=F(3), k=F(1), l=F(0)
    )
    assert equilibria_on_line_check(axis)
    other_axis = BinaryFormParams(
        family="ellipse_hyperbola", a=F(2), b=F(1), c=F(3), k=F(0), l=F(2)
    )
    assert equilibria_on_line_check(other_axis)
    origin_only = BinaryFormParams(
        family="ellipse_hyperbola", a=F(2), b=F(1), c=F(3)
    )
    assert equilibria_on_line_check(origin_only)


@pytest.mark.parametrize(
    "k, l, fx",
    [
        (1, 1, "x^2"),  # does not vanish at (l, k) = (1, 1)
        (1, 1, "x^2 - y"),  # vanishes at (1, 1) but not on the line y = x
        (2, 0, "y^2 - 4"),  # vanishes at (0, 2) but not on the axis x = 0
        (0, 0, "x*y"),  # k = l = 0 needs both components zero
    ],
)
def test_equilibria_on_line_check_can_fail(monkeypatch, k, l, fx):
    # the evaluation is a proof: a field that is not a pair of quadratic forms
    # vanishing at (l, k) fails it
    monkeypatch.setattr(crnkit.qfi, "generate_binary_form_system", lambda params: sys2(fx, "0"))
    params = BinaryFormParams(family="ellipse_hyperbola", a=F(2), b=F(1), c=F(3), k=F(k), l=F(l))
    assert not equilibria_on_line_check(params)


def test_equilibria_check_rejects_other_families():
    params = BinaryFormParams(family="rank_one", a=F(1), b=F(1))
    with pytest.raises(ValueError):
        equilibria_on_line_check(params)


def test_diagonal_collapse_zero_system():
    zero = sys2("0", "0")
    result = diagonal_collapse_check(zero)
    assert result.applies and result.consistent and result.is_zero


def test_diagonal_collapse_non_conserving_instance(example_system):
    # has a diagonal integral but no kinetic conservation: hypothesis fails
    result = diagonal_collapse_check(example_system)
    assert not result.applies
    assert result.consistent


def test_diagonal_collapse_non_kinetic(monkeypatch):
    # later hypotheses are not tested once one fails
    def not_called(system):
        raise AssertionError("kinetic_conservation called for a non-kinetic system")

    monkeypatch.setattr(crnkit.qfi, "kinetic_conservation", not_called)
    result = diagonal_collapse_check(sys2("y", "-x"))
    assert result == crnkit.qfi.DiagonalCollapseResult(False, True, False, None, None)


def test_diagonal_collapse_conserving_without_integral(cascade_system):
    result = diagonal_collapse_check(cascade_system)
    assert not result.applies
    assert result.consistent


# -- size of the full search --------------------------------------------------

def test_full_search_size_bound_is_exact(monkeypatch):
    # n = 2 and T = 4 terms: 5 columns times (n + 1) T = 12
    system = sys2("y^2 - x*y", "x^2 - x*y")
    monkeypatch.setattr(crnkit.qfi, "MAX_SEARCH_SIZE", 60)
    assert find_quadratic_first_integrals(system).found
    monkeypatch.setattr(crnkit.qfi, "MAX_SEARCH_SIZE", 59)
    with pytest.raises(ValueError, match=r"of size 60 \(n = 2 variables, T = 4 terms"):
        find_quadratic_first_integrals(system)
    # the positive-diagonal search is not bounded by it
    assert find_quadratic_first_integrals(system, "positive-diagonal").found


# -- logarithmic Lotka-Volterra integral ------------------------------------

def test_log_check_accepts_lv_family():
    assert lotka_volterra_log_check(sys2("x*y - x", "-x*y + y"))
    assert lotka_volterra_log_check(sys2("3*x*y - 3*x", "-3*x*y + 3*y"))
    # time reversal
    assert lotka_volterra_log_check(sys2("-x*y + x", "x*y - y"))
    assert lotka_volterra_log_check(sys2("0", "0"))


def test_log_check_rejects_others():
    assert not lotka_volterra_log_check(sys2("x*y - x", "-x*y + 2*y"))
    assert not lotka_volterra_log_check(sys2("y", "-x"))
    assert not lotka_volterra_log_check(sys2("x*y", "-x*y"))


def test_log_check_dimension():
    with pytest.raises(ValueError):
        lotka_volterra_log_check(
            PolynomialSystem.from_strings(("x", "y", "z"), ["0", "0", "0"])
        )


def test_log_family_solution_space():
    basis = solve_log_integral_family()
    assert len(basis) == 1
    assert basis[0] == sys2("x*y - x", "-x*y + y")


def test_log_family_against_sympy():
    sympy = pytest.importorskip("sympy")

    x, y = sympy.symbols("x y", positive=True)
    coeffs = sympy.symbols("a0:12")
    f1 = (
        coeffs[0] * x**2 + coeffs[1] * x * y + coeffs[2] * y**2
        + coeffs[3] * x + coeffs[4] * y + coeffs[5]
    )
    f2 = (
        coeffs[6] * x**2 + coeffs[7] * x * y + coeffs[8] * y**2
        + coeffs[9] * x + coeffs[10] * y + coeffs[11]
    )
    identity = sympy.expand(y * (x - 1) * f1 + x * (y - 1) * f2)
    eqs = [sympy.Eq(c, 0) for c in sympy.Poly(identity, x, y).coeffs()]
    sols = sympy.linsolve(eqs, coeffs)
    (sol,) = sols
    free = sorted(sol.free_symbols, key=str)
    assert len(free) == 1
    t = free[0]
    substituted = [expr.subs(t, 1) for expr in sol]
    # matches {xy - x, -xy + y} written in the 12-coefficient layout
    assert substituted == [0, 1, 0, -1, 0, 0, 0, -1, 0, 0, 1, 0]


@pytest.mark.parametrize(
    "q, linear, message",
    [
        pytest.param(((F(1), F(0)),), (F(0),), "Q must be square", id="square"),
        pytest.param(((F(1),),), (F(0), F(0)), "linear part length must match Q", id="linear"),
    ],
)
def test_malformed_candidate_is_refused(q, linear, message):
    with pytest.raises(ValueError) as info:
        QuadraticCandidate(q, linear)
    assert type(info.value) is ValueError
    assert str(info.value) == message
