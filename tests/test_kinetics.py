import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from crnkit import (
    CrossEffectReport,
    CrossEffectViolation,
    NotKineticError,
    Polynomial,
    PolynomialSystem,
    UnboundParameterError,
    canonical_realization,
    divergence,
    induced_kinetic_ode,
    negative_cross_effect,
    no_periodic_orbit_certificate,
    ode_variable_names,
    parse_network,
)
from crnkit.network import Complex, NetworkValidationError, ReactionNetwork, ReactionStep
from crnkit.poly import MAX_DEGREE, parse_polynomial, parse_system
from crnkit.qfi import QuadraticCandidate

from .conftest import LIMIT_CYCLE_4D_TEXT, SADDLE_3D_TEXT

from .support import (
    plant_cross_effect_violation,
    random_kinetic_system,
    random_network,
    random_polynomial,
    reference_induced_ode,
    reference_realization,
)

F = Fraction


def sys2(f1: str, f2: str) -> PolynomialSystem:
    return PolynomialSystem.from_strings(("x", "y"), [f1, f2])


# -- induced ODE ------------------------------------------------------------

def test_example_ode_integer_binding(example_network):
    system = induced_kinetic_ode(example_network, {"a": Fraction(2), "b": Fraction(3)})
    assert system == sys2("2*y^2 - 3*x*y", "3*x^2 - 2*x*y")


def test_example_ode_fractional_binding(example_network):
    system = induced_kinetic_ode(
        example_network, {"a": Fraction(1, 3), "b": Fraction(7, 5)}
    )
    assert system == sys2("1/3*y^2 - 7/5*x*y", "7/5*x^2 - 1/3*x*y")


def test_unbound_parameter_raises(example_network):
    with pytest.raises(UnboundParameterError, match="a"):
        induced_kinetic_ode(example_network, {"b": Fraction(1)})


def test_nonpositive_binding_rejected(example_network):
    with pytest.raises(ValueError):
        induced_kinetic_ode(example_network, {"a": Fraction(0), "b": Fraction(1)})


def test_inflow_only_network():
    system = induced_kinetic_ode(parse_network("0 ->[1] X"))
    assert system.components[0] == Polynomial.constant(1, 1)


def test_second_order_step():
    system = induced_kinetic_ode(parse_network("2X ->[3] Y"))
    assert system == PolynomialSystem.from_strings(("x", "y"), ["-6*x^2", "3*x^2"])


def test_variable_naming_lowercases_species():
    assert ode_variable_names(("X", "Y")) == ("x", "y")
    assert ode_variable_names(("A", "J")) == ("a", "j")
    # collision keeps original names
    assert ode_variable_names(("X", "x")) == ("X", "x")


@st.composite
def catalytic_networks(draw):
    """1-4 species with steps that have catalysts (a species on both sides)
    and mirrored steps R -> 2R - P beside R -> P at the same rate, whose
    terms cancel; rates are rationals or the parameter k."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    rate = st.sampled_from([F(1), F(2), F(1, 3), "k", "k+1/2"])
    steps = {}
    for _ in range(draw(st.integers(0, 6))):
        reactant = draw(st.dictionaries(index, st.sampled_from([F(1), F(2)]), max_size=2))
        product = draw(
            st.dictionaries(index, st.sampled_from([F(1), F(2), F(1, 2)]), max_size=2)
        )
        if draw(st.booleans()):
            catalyst, amount = draw(index), draw(st.sampled_from([F(1), F(2)]))
            reactant[catalyst] = reactant.get(catalyst, 0) + amount
            product[catalyst] = product.get(catalyst, 0) + amount
        k = draw(rate)
        pairs = [(reactant, product)]
        mirror = {i: 2 * reactant.get(i, 0) - product.get(i, 0) for i in range(n)}
        if draw(st.booleans()) and all(v >= 0 for v in mirror.values()):
            pairs.append((reactant, mirror))
        for r, p in pairs:
            r, p = Complex.from_mapping(r), Complex.from_mapping(p)
            if r != p:
                steps[(r, p)] = ReactionStep(r, p, k)
    return ReactionNetwork(tuple("ABCD"[:n]), tuple(steps.values()))


@settings(max_examples=300, deadline=None)
@given(network=catalytic_networks())
@example(network=parse_network("A + B ->[1] 2A; A + B ->[1] 2B; A + C ->[k] A + 2C"))
def test_induction_matches_per_species_reference(network):
    params = {"k": F(3, 2)}
    assert induced_kinetic_ode(network, params) == reference_induced_ode(network, params)


@st.composite
def mass_action_networks(draw):
    """1-4 species; reactant coefficients 1-3, product coefficients that may be
    fractional, catalysts, net changes of +-1 and others, and rates that are
    rationals, parameters or sums of both."""
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    rate = st.sampled_from([F(1), F(3), F(2, 7), "k", "k+1/2", "k+j", "2+j"])
    steps = {}
    for _ in range(draw(st.integers(1, 7))):
        reactant = draw(st.dictionaries(index, st.sampled_from([F(1), F(2), F(3)]), max_size=2))
        product = draw(
            st.dictionaries(index, st.sampled_from([F(1), F(1, 2), F(5, 3), F(2), F(3)]), max_size=2)
        )
        if draw(st.booleans()):
            catalyst = draw(index)
            amount = reactant.setdefault(catalyst, draw(st.sampled_from([F(1), F(2)])))
            product[catalyst] = amount
        r, p = Complex.from_mapping(reactant), Complex.from_mapping(product)
        if r != p and sum(reactant.values()) <= MAX_DEGREE:
            steps[(r, p)] = ReactionStep(r, p, draw(rate))
    return ReactionNetwork(tuple("ABCD"[:n]), tuple(steps.values()))


@settings(max_examples=300, deadline=None)
@given(
    network=mass_action_networks(),
    k=st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
    j=st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
)
def test_induction_matches_the_reference_on_every_step_shape(network, k, j):
    """Fraction rates are used as stored and +-1 changes add +-k as is: the
    induced system equals the per-species reference that resolves every rate."""
    params = {"k": k, "j": j}
    assert induced_kinetic_ode(network, params) == reference_induced_ode(network, params)


@pytest.mark.parametrize(
    "text, params, message",
    [
        ("A ->[k] B", {"k": F(0)}, "rate of step A ->[k] B resolves to 0; must be positive"),
        ("A ->[k] B", {"k": F(-1, 2)}, "rate of step A ->[k] B resolves to -1/2; must be positive"),
        (
            "2A ->[k+1] B",
            {"k": F(-1)},
            "rate of step 2A ->[k+1] B resolves to 0; must be positive",
        ),
    ],
)
def test_a_parameter_bound_to_a_nonpositive_value_is_refused(text, params, message):
    with pytest.raises(ValueError) as info:
        induced_kinetic_ode(parse_network(text), params)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_fraction_rates_ignore_the_binding():
    system = induced_kinetic_ode(parse_network("A ->[2] B"), {"k": F(-1)})
    assert system == PolynomialSystem.from_strings(("a", "b"), ["-2*a", "2*a"])


# -- negative cross-effect --------------------------------------------------

def test_induced_odes_are_kinetic_randomized():
    rng = random.Random(314)
    for _ in range(40):
        system = random_kinetic_system(rng)
        assert negative_cross_effect(system).is_kinetic


def test_harmonic_oscillator_not_kinetic(oscillator_system):
    report = negative_cross_effect(oscillator_system)
    assert not report.is_kinetic
    violation = report.violations[0]
    assert violation.component == 1
    assert violation.exponents == (1, 0)
    assert violation.coefficient == -1


def test_lorenz_not_kinetic():
    system = PolynomialSystem.from_strings(
        ("x", "y", "z"),
        ["10*y - 10*x", "28*x - x*z - y", "x*y - 8/3*z"],
    )
    report = negative_cross_effect(system)
    assert not report.is_kinetic
    flagged = {(v.component, v.exponents) for v in report.violations}
    # -x*z in component 2 lacks a y factor
    assert (1, (1, 0, 1)) in flagged


def test_four_component_sign_fixture():
    # f = {d, c - 4x^2 y + 5xy + 6z + 7w, ax + 2y, -b xy}; kinetic exactly
    # when d >= 0, c >= 0, a >= 0 and -b >= 0
    for d, c, a, b in product((-1, 1), repeat=4):
        system = PolynomialSystem.from_strings(
            ("x", "y", "z", "w"),
            [
                str(d),
                f"{c} - 4*x^2*y + 5*x*y + 6*z + 7*w",
                f"{a}*x + 2*y",
                f"{-b}*x*y",
            ],
        )
        expected = d >= 0 and c >= 0 and a >= 0 and -b >= 0
        assert negative_cross_effect(system).is_kinetic == expected


def test_inward_pointing_field_can_still_violate():
    # {c2 + c2^2 - 2 c2 c3 + c3^2, 0, 0}: nonnegative on the boundary yet the
    # -2 c2 c3 term is a violation, so the classifier must reject it
    system = PolynomialSystem.from_strings(
        ("c1", "c2", "c3"),
        ["c2 + c2^2 - 2*c2*c3 + c3^2", "0", "0"],
    )
    report = negative_cross_effect(system)
    assert not report.is_kinetic
    assert report.violations[0].exponents == (0, 1, 1)
    # spot-check the sign claim: the flagged component is nonnegative on c1=0
    f = system.components[0]
    for c2 in (0, 1, 2):
        for c3 in (0, 1, 2):
            assert f.evaluate([Fraction(0), Fraction(c2), Fraction(c3)]) >= 0


def test_planted_violation_detected_and_witnessed():
    rng = random.Random(2718)
    for _ in range(25):
        base = random_kinetic_system(rng)
        system, m, exps = plant_cross_effect_violation(rng, base)
        report = negative_cross_effect(system)
        assert not report.is_kinetic
        assert any(
            v.component == m and v.exponents == exps for v in report.violations
        )


def test_kinetic_slice_is_nonnegative_randomized():
    # semantic direction: a kinetic f_m restricted to x_m = 0 only keeps
    # nonnegative coefficients, hence is nonnegative on the closed orthant
    rng = random.Random(161)
    for _ in range(25):
        system = random_kinetic_system(rng)
        for m, component in enumerate(system.components):
            for exps, coeff in component.sorted_terms():
                if exps[m] == 0:
                    assert coeff > 0


def reference_cross_effect(system: PolynomialSystem) -> CrossEffectReport:
    """Oracle for `negative_cross_effect`: each component's terms walked in
    descending graded-lex order."""
    return CrossEffectReport(
        system.variables,
        tuple(
            CrossEffectViolation(m, expts, coeff)
            for m, component in enumerate(system.components)
            for expts, coeff in component.sorted_terms()
            if coeff < 0 and expts[m] == 0
        ),
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), planted=st.integers(0, 5), dense=st.booleans())
def test_cross_effect_report_matches_the_sorted_walk(seed, planted, dense):
    """Violations are found in unsorted term order and then sorted: the report,
    its order and its JSON equal those of the sorted walk, for kinetic systems
    with 0-5 planted violations and for dense systems with many."""
    rng = random.Random(seed)
    if dense:
        dim = rng.randint(1, 4)
        system = PolynomialSystem(
            tuple("xyzw"[:dim]), tuple(random_polynomial(rng, dim, 3, 8) for _ in range(dim))
        )
    else:
        system = random_kinetic_system(rng)
    for _ in range(planted):
        system, _, _ = plant_cross_effect_violation(rng, system)
    report, expected = negative_cross_effect(system), reference_cross_effect(system)
    assert report.violations == expected.violations
    assert report.to_dict() == expected.to_dict()
    if not dense:
        assert report.is_kinetic == (planted == 0)


def test_report_json(example_system, oscillator_system):
    good = negative_cross_effect(example_system).to_dict()
    assert good["is_kinetic"] is True and good["violations"] == []
    bad = negative_cross_effect(oscillator_system).to_dict()
    assert bad["is_kinetic"] is False
    assert bad["violations"][0]["component"] == 2


# -- canonical realization --------------------------------------------------

def test_realization_round_trip_example(example_system):
    network = canonical_realization(example_system)
    assert induced_kinetic_ode(network) == example_system


def test_realization_step_shape(example_system):
    network = canonical_realization(example_system)
    # component order first, then descending graded-lex within a component
    rendered = network.render().splitlines()
    assert rendered == [
        "X + Y ->[3] Y",
        "2Y ->[2] X + 2Y",
        "2X ->[3] 2X + Y",
        "X + Y ->[2] X",
    ]


def test_realization_round_trip_randomized():
    rng = random.Random(777)
    for _ in range(30):
        system = random_kinetic_system(rng)
        network = canonical_realization(system)
        assert induced_kinetic_ode(network) == system


def assert_same_realization(network, reference):
    """Equal networks, serializations and net changes, also after a pickle round
    trip, with every value a Fraction."""
    for built in (network, pickle.loads(pickle.dumps(network))):
        assert built == reference
        assert built.to_json() == reference.to_json()
        for step, ref in zip(built.steps, reference.steps, strict=True):
            assert dict(step.net_change) == dict(ref.net_change)
            assert type(step.rate) is Fraction
            values = [c for _, c in step.reactant.entries + step.product.entries]
            assert all(type(c) is Fraction for c in [*values, *step.net_change.values()])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), upper=st.booleans())
@example(seed=0, upper=False)
def test_realization_matches_reference(seed, upper):
    system = random_kinetic_system(random.Random(seed))
    if upper:
        # uppercase variables are kept as species names as they are
        system = PolynomialSystem(tuple(v.upper() for v in system.variables), system.components)
    assert_same_realization(canonical_realization(system), reference_realization(system))


def test_realization_matches_reference_at_max_degree():
    top = Polynomial.monomial(2, (MAX_DEGREE, 0))
    system = PolynomialSystem(("x", "y"), (top, -Polynomial.monomial(2, (0, MAX_DEGREE))))
    network = canonical_realization(system)
    assert_same_realization(network, reference_realization(system))
    assert network.steps[0].product.entries == ((0, Fraction(MAX_DEGREE + 1)),)


@pytest.mark.parametrize(
    "system, error, message",
    [
        (
            PolynomialSystem(
                ("x", "y"),
                (Polynomial.monomial(2, (MAX_DEGREE + 1, 0)), Polynomial.zero(2)),
            ),
            NetworkValidationError,
            f"reactant complex of degree {MAX_DEGREE + 1} is above MAX_DEGREE = {MAX_DEGREE}",
        ),
        (
            PolynomialSystem.from_strings(("_x",), ["_x"]),
            NetworkValidationError,
            "invalid species name '_x'",
        ),
        (
            PolynomialSystem.from_strings(("x", "y"), ["-y", "x"]),
            NotKineticError,
            "system is not kinetic: component 1: term -1*y has no x factor",
        ),
    ],
    ids=["degree", "species-name", "not-kinetic"],
)
def test_realization_refusals_match_reference(system, error, message):
    for realize in (canonical_realization, reference_realization):
        with pytest.raises(error) as info:
            realize(system)
        assert str(info.value) == message


def test_realization_rejects_non_kinetic(oscillator_system):
    with pytest.raises(NotKineticError) as info:
        canonical_realization(oscillator_system)
    assert info.value.report.violations


def test_realization_zero_system():
    zero = PolynomialSystem.from_strings(("x", "y"), ["0", "0"])
    network = canonical_realization(zero)
    assert network.steps == ()
    assert not network.is_proper


def test_realization_capitalizes_variables():
    system = PolynomialSystem.from_strings(("u", "v"), ["v", "u"])
    network = canonical_realization(system)
    assert network.species == ("U", "V")
    # and the induced ODE maps back to the original variable names
    assert induced_kinetic_ode(network).variables == ("u", "v")


# -- divergence and periodic-orbit certificate ------------------------------

def test_divergence_three_species_instance():
    from crnkit import DiagonalParams, generate_diagonal_system

    params = DiagonalParams(
        (Fraction(1), Fraction(1), Fraction(1)),
        (
            (Fraction(0), Fraction(2), Fraction(3)),
            (Fraction(4), Fraction(0), Fraction(5)),
            (Fraction(6), Fraction(7), Fraction(0)),
        ),
    )
    system = generate_diagonal_system(params)
    assert divergence(system).render(system.variables) == "-5*x - 9*y - 13*z"


def test_no_periodic_orbit_positive_case():
    from crnkit import DiagonalParams, generate_diagonal_system

    params = DiagonalParams(
        (Fraction(1), Fraction(1), Fraction(1)),
        (
            (Fraction(0), Fraction(2), Fraction(3)),
            (Fraction(4), Fraction(0), Fraction(5)),
            (Fraction(6), Fraction(7), Fraction(0)),
        ),
    )
    cert = no_periodic_orbit_certificate(generate_diagonal_system(params))
    assert cert.holds
    assert cert.verdict == "yes"
    assert cert.divergence_negative
    assert cert.first_integral is not None


def test_no_periodic_orbit_inconclusive_without_integral():
    # negative divergence alone is not enough
    system = PolynomialSystem.from_strings(("x", "y"), ["x^2 - x", "y"])
    cert = no_periodic_orbit_certificate(system)
    assert cert.verdict == "inconclusive"


def test_no_periodic_orbit_inconclusive_zero_divergence(oscillator_system):
    cert = no_periodic_orbit_certificate(oscillator_system)
    assert cert.verdict == "inconclusive"
    assert not cert.divergence_negative
    assert cert.first_integral is not None


def test_no_periodic_orbit_inconclusive_in_four_dimensions():
    system = parse_system(LIMIT_CYCLE_4D_TEXT)
    # on the circle (1 + u, 1 + v, 1, 1) with u^2 + v^2 = 1/4 the field is (-v, u, 0, 0)
    for u, v in ((F(1, 2), F(0)), (F(3, 10), F(2, 5)), (F(-2, 5), F(-3, 10))):
        point = (1 + u, 1 + v, F(1), F(1))
        assert [c.evaluate(point) for c in system.components] == [-v, u, 0, 0]
    for invariant in (None, QuadraticCandidate.diagonal((0, 0, 0, 1))):
        cert = no_periodic_orbit_certificate(system, invariant)
        assert cert.verdict == "inconclusive"
        assert cert.divergence_negative
        assert cert.first_integral is None


def test_no_periodic_orbit_in_three_dimensions_needs_disk_level_sets():
    saddle = parse_system(SADDLE_3D_TEXT)
    for invariant in (None, QuadraticCandidate.diagonal((1, -1, 0))):
        cert = no_periodic_orbit_certificate(saddle, invariant)
        assert cert.verdict == "inconclusive"
        assert cert.divergence_negative
        assert cert.first_integral is None
    # a nonzero linear integral qualifies whatever its signs
    decay = PolynomialSystem.from_strings(("x", "y", "z"), ["-x*y", "-x*y", "-z"])
    cert = no_periodic_orbit_certificate(decay)
    assert cert.verdict == "yes"
    assert cert.first_integral.render(decay.variables) == "x - y"
    # a supplied linear integral is used as given
    linear = QuadraticCandidate(((0,) * 3,) * 3, (2, -2, 0))
    assert no_periodic_orbit_certificate(decay, linear).first_integral is linear
    # a linear part plus a nonzero form is not accepted, so the search runs
    mixed = QuadraticCandidate.from_polynomial(parse_polynomial("(x - y)^2 + x - y", decay.variables))
    cert = no_periodic_orbit_certificate(decay, mixed)
    assert cert.verdict == "yes"
    assert cert.first_integral.render(decay.variables) == "x - y"


def test_no_periodic_orbit_uses_supplied_planar_integral():
    # Bendixson: for n <= 2 any verified integral is used, not the search's
    system = PolynomialSystem.from_strings(("x", "y"), ["-x", "x"])
    invariant = QuadraticCandidate(((0, 0), (0, 0)), (3, 3))
    cert = no_periodic_orbit_certificate(system, invariant)
    assert cert.verdict == "yes"
    assert cert.first_integral is invariant


def test_no_periodic_orbit_rejects_bad_invariant(example_system):
    from crnkit import QuadraticCandidate

    wrong = QuadraticCandidate.diagonal((Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        no_periodic_orbit_certificate(example_system, wrong)
