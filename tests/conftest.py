from __future__ import annotations

from fractions import Fraction

import pytest

from crnkit import (
    DiagonalParams,
    PolynomialSystem,
    generate_diagonal_system,
    induced_kinetic_ode,
    parse_network,
)

EXAMPLE_NETWORK_TEXT = """\
X <-[a] X + Y ->[b] Y
2X ->[b] 2X + Y
2Y ->[a] X + 2Y
"""

# Rates all 1; the induced ODE conserves a + 2b + 4c + d + 4e + 5f + 2g + 2h + j
# even though that weighting is not orthogonal to the step vectors.
CATALYTIC_CASCADE_TEXT = """\
A + B ->[1] C
C ->[1] A + B
C ->[1] D + E
D + E ->[1] F
F ->[1] D + E
A + B ->[1] G
G ->[1] H
H ->[1] 2J
2J ->[1] H
2J ->[1] G
"""

# Negative divergence -4x^2 - 4y^2 - 17/2 and the first integral w^2, yet the
# circle (1 + cos(t)/2, 1 + sin(t)/2, 1, 1) is a periodic orbit in the open
# orthant: on it the bracket and 1 - z vanish, so (x, y) rotates about (1, 1).
LIMIT_CYCLE_4D_TEXT = """\
vars x y z w
-(y-1) + (x-1)*(1/4 - (x-1)^2 - (y-1)^2)
(x-1) + (y-1)*(1/4 - (x-1)^2 - (y-1)^2)
(1-z)*(1+8*x+8*y)
0
"""

# Divergence -1; its only quadratic first integral is x^2 - y^2, whose level
# sets are not disks, and it has no linear one.
SADDLE_3D_TEXT = "vars x y z\ny*z\nx*z\n-z\n"


@pytest.fixture
def example_network():
    return parse_network(EXAMPLE_NETWORK_TEXT)


@pytest.fixture
def example_system(example_network):
    return induced_kinetic_ode(example_network, {"a": Fraction(2), "b": Fraction(3)})


@pytest.fixture
def cascade_network():
    return parse_network(CATALYTIC_CASCADE_TEXT)


@pytest.fixture
def cascade_system(cascade_network):
    return induced_kinetic_ode(cascade_network)


@pytest.fixture
def diagonal3_system():
    """Criterion 8's 3-D diagonal-family system, which conserves x^2 + y^2 + z^2;
    each square x_p^2 enters two components."""
    coupling = ((0, 2, 3), (4, 0, 5), (6, 7, 0))
    return generate_diagonal_system(
        DiagonalParams((Fraction(1),) * 3, tuple(tuple(map(Fraction, row)) for row in coupling))
    )


@pytest.fixture
def oscillator_system():
    return PolynomialSystem.from_strings(("x", "y"), ["y", "-x"])
