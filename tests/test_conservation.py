import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crnkit import (
    Complex,
    ConservationVector,
    DiagonalParams,
    Polynomial,
    PolynomialSystem,
    QuadraticCandidate,
    ReactionNetwork,
    ReactionStep,
    find_quadratic_first_integrals,
    generate_diagonal_system,
    induced_kinetic_ode,
    is_first_integral,
    kinetic_conservation,
    kinetic_residual,
    parse_network,
    stoichiometric_conservation,
    stoichiometric_residual,
    verify_conservation,
)

from .support import (
    dense_conservation_rows,
    dense_positive_kernel_vector,
    dense_rref,
    random_network,
    reference_induced_ode,
)

CASCADE_KINETIC_RHO = tuple(Fraction(v) for v in (1, 2, 4, 1, 4, 5, 2, 2, 1))


def test_cascade_kinetic_witness_accepted(cascade_system):
    candidate = ConservationVector(CASCADE_KINETIC_RHO, "kinetic")
    assert verify_conservation(candidate, cascade_system)
    assert kinetic_residual(CASCADE_KINETIC_RHO, cascade_system).is_zero()


def test_cascade_kinetic_witness_not_stoichiometric(cascade_network):
    residual = stoichiometric_residual(CASCADE_KINETIC_RHO, cascade_network)
    expected = [Fraction(v) for v in (1, -1, 1, 0, 0, -1, 0, 0, 0, 0)]
    assert residual == expected


def test_cascade_has_stoichiometric_witness(cascade_network):
    # the network itself still conserves a plain mass weighting
    found = stoichiometric_conservation(cascade_network)
    assert found is not None
    assert all(v > 0 for v in found.rho)
    assert all(v == 0 for v in stoichiometric_residual(found.rho, cascade_network))


def test_cascade_kinetic_search_finds_witness(cascade_system):
    found = kinetic_conservation(cascade_system)
    assert found is not None
    assert kinetic_residual(found.rho, cascade_system).is_zero()


def test_witness_scaling_invariance(cascade_system):
    scaled = tuple(v * Fraction(7, 3) for v in CASCADE_KINETIC_RHO)
    assert verify_conservation(ConservationVector(scaled, "kinetic"), cascade_system)


def test_open_network_has_no_witness():
    network = parse_network("A ->[1] 2A")
    assert stoichiometric_conservation(network) is None
    assert kinetic_conservation(induced_kinetic_ode(network)) is None


def test_kinetic_strictly_weaker_than_stoichiometric():
    rng = random.Random(909)
    checked = 0
    for _ in range(60):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            network = random_network(rng, conserving=True)
        found = stoichiometric_conservation(network)
        if found is None:
            continue
        checked += 1
        system = induced_kinetic_ode(network)
        kinetic_candidate = ConservationVector(found.rho, "kinetic")
        assert verify_conservation(kinetic_candidate, system)
    assert checked >= 20


def test_mode_target_mismatch_raises(cascade_network, cascade_system):
    stoich = ConservationVector(CASCADE_KINETIC_RHO, "stoichiometric")
    kin = ConservationVector(CASCADE_KINETIC_RHO, "kinetic")
    with pytest.raises(TypeError):
        verify_conservation(stoich, cascade_system)
    with pytest.raises(TypeError):
        verify_conservation(kin, cascade_network)


def test_nonpositive_witness_rejected():
    with pytest.raises(ValueError):
        ConservationVector((Fraction(1), Fraction(0)), "kinetic")
    with pytest.raises(ValueError):
        ConservationVector((Fraction(1), Fraction(-1)), "stoichiometric")


def test_witness_normalization(cascade_network):
    found = stoichiometric_conservation(cascade_network)
    nums = [v.numerator for v in found.rho]
    from math import gcd

    assert all(v.denominator == 1 for v in found.rho)
    assert gcd(*nums) == 1


def test_sparse_searches_match_the_dense_path():
    rng = random.Random(7)
    for i in range(1000):
        network = random_network(rng, conserving=bool(i % 2))
        system = induced_kinetic_ode(network)
        assert system == reference_induced_ode(network)
        gamma_t, coefficients = dense_conservation_rows(network, system)
        m = network.num_species
        for found, rows in (
            (stoichiometric_conservation(network), gamma_t),
            (kinetic_conservation(system), coefficients),
        ):
            assert (None if found is None else found.rho) == dense_positive_kernel_vector(rows, m)


def _permuted(network, perm):
    """The same network with species i moved to position perm[i]."""
    species = [""] * network.num_species
    for i, p in enumerate(perm):
        species[p] = network.species[i]

    def move(cpx):
        return Complex.from_mapping({perm[i]: c for i, c in cpx.entries})

    steps = [ReactionStep(move(s.reactant), move(s.product), s.rate) for s in network.steps]
    return ReactionNetwork(species, steps)


def _rescaled(network, factor):
    steps = [ReactionStep(s.reactant, s.product, s.rate * factor) for s in network.steps]
    return ReactionNetwork(network.species, steps)


def _decisions(network):
    """Both conservation decisions, the full-QFI nullity and the positive-diagonal
    decision, after checking every witness they return."""
    system = induced_kinetic_ode(network)
    stoich = stoichiometric_conservation(network)
    if stoich is not None:
        assert verify_conservation(stoich, network)
    kinetic = kinetic_conservation(system)
    if kinetic is not None:
        assert verify_conservation(kinetic, system)
    full = find_quadratic_first_integrals(system)
    assert all(is_first_integral(element, system) for element in full.basis)
    diagonal = find_quadratic_first_integrals(system, "positive-diagonal")
    if diagonal.found:
        assert is_first_integral(diagonal.candidate, system)
        assert diagonal.candidate.signature() == "positive-definite diagonal"
    return stoich is not None, kinetic is not None, len(full.basis), diagonal.found


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    conserving=st.booleans(),
    factor=st.fractions(min_value=Fraction(1, 12), max_value=50, max_denominator=12),
    data=st.data(),
)
def test_decisions_survive_species_permutation_and_rate_scaling(seed, conserving, factor, data):
    network = random_network(random.Random(seed), conserving)
    perm = data.draw(st.permutations(range(network.num_species)))
    expected = _decisions(network)
    assert _decisions(_permuted(network, perm)) == expected
    assert _decisions(_rescaled(network, factor)) == expected


def _moved(values, perm):
    """`values` with entry i moved to position perm[i]."""
    out = [None] * len(values)
    for i, value in enumerate(values):
        out[perm[i]] = value
    return out


def _permuted_system(system, perm):
    """The same system with variable i moved to position perm[i]."""
    components = [
        Polynomial(system.dim, {tuple(_moved(e, perm)): c for e, c in component.terms().items()})
        for component in system.components
    ]
    return PolynomialSystem(_moved(system.variables, perm), _moved(components, perm))


def _permuted_candidate(candidate, perm):
    q = _moved([_moved(row, perm) for row in candidate.q], perm)
    return QuadraticCandidate(q, _moved(candidate.linear, perm), candidate.constant)


def _span(candidates):
    """The row space of the candidates' coefficient vectors, as its reduced basis."""
    reduced, pivots = dense_rref([c.coefficient_vector() for c in candidates])
    return reduced[: len(pivots)]


def _check_permuted_system(system, perm, seen):
    """Check that the kinetic and positive-diagonal witnesses of `system` and its
    full first-integral span permute with its variables; returns the permuted
    system."""
    moved_system = _permuted_system(system, perm)
    kinetic = kinetic_conservation(system)
    if kinetic is not None:
        seen["kinetic"] += 1
        moved = ConservationVector(_moved(kinetic.rho, perm), "kinetic")
        assert verify_conservation(moved, moved_system)
    diagonal = find_quadratic_first_integrals(system, "positive-diagonal")
    if diagonal.found:
        seen["diagonal"] += 1
        moved = _permuted_candidate(diagonal.candidate, perm)
        assert is_first_integral(moved, moved_system)
        assert moved.signature() == "positive-definite diagonal"
    # a basis is in reduced form, which depends on the column order
    basis = find_quadratic_first_integrals(system).basis
    seen["span"] += bool(basis)
    moved_basis = find_quadratic_first_integrals(moved_system).basis
    assert _span([_permuted_candidate(c, perm) for c in basis]) == _span(moved_basis)
    return moved_system


def test_witnesses_and_integral_spans_permute_with_the_variables():
    rng = random.Random(19)
    seen = {"stoichiometric": 0, "kinetic": 0, "diagonal": 0, "span": 0}
    for i in range(150):
        network = random_network(rng, conserving=bool(i % 2))
        perm = list(range(network.num_species))
        rng.shuffle(perm)
        moved_network = _permuted(network, perm)
        moved_system = _check_permuted_system(induced_kinetic_ode(network), perm, seen)
        assert induced_kinetic_ode(moved_network) == moved_system
        stoich = stoichiometric_conservation(network)
        if stoich is not None:
            seen["stoichiometric"] += 1
            moved = ConservationVector(_moved(stoich.rho, perm), "stoichiometric")
            assert verify_conservation(moved, moved_network)
    # the diagonal family has positive-diagonal first integrals by construction
    for _ in range(40):
        n = rng.randint(2, 4)
        weights = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
        coupling = [[0 if p == m else rng.randint(0, 3) for p in range(n)] for m in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        _check_permuted_system(generate_diagonal_system(DiagonalParams(weights, coupling)), perm, seen)
    assert all(seen.values()), seen
