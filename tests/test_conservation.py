import random
import warnings
from fractions import Fraction

import pytest

from crnkit import (
    ConservationVector,
    induced_kinetic_ode,
    kinetic_conservation,
    kinetic_residual,
    parse_network,
    stoichiometric_conservation,
    stoichiometric_residual,
    verify_conservation,
)

from .support import random_network

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

