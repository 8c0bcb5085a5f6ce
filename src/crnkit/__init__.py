"""crnkit: exact mass-action kinetics and quadratic first integrals.

The package works over exact rationals end to end.  Reaction networks parse
from a small text format, induce polynomial ODE systems, and round-trip
through a canonical realization.  Quadratic first integrals, conservation
laws, and the negative-cross-effect property are decided exactly; a small
float integrator with drift monitoring covers the numerical side.
"""

from .conservation import (
    ConservationVector,
    kinetic_conservation,
    kinetic_residual,
    stoichiometric_conservation,
    stoichiometric_residual,
    verify_conservation,
)
from .kinetics import (
    CrossEffectReport,
    CrossEffectViolation,
    NotKineticError,
    UnboundParameterError,
    canonical_realization,
    induced_kinetic_ode,
    negative_cross_effect,
    ode_variable_names,
)
from .linalg import ProofCheckError
from .network import (
    Complex,
    NetworkSyntaxError,
    NetworkValidationError,
    ReactionNetwork,
    ReactionStep,
    parse_network,
)
from .numbers import format_rational, parse_rational
from .poly import (
    Polynomial,
    PolynomialParseError,
    PolynomialSystem,
    parse_polynomial,
    parse_system,
)
from .qfi import (
    BINARY_FORM_FAMILIES,
    BinaryFormParams,
    DiagonalParams,
    FirstIntegralReport,
    GeneratorConstraintError,
    MixedSignParams,
    NoPeriodicOrbitCertificate,
    QuadraticCandidate,
    diagonal_collapse_check,
    divergence,
    equilibria_on_line_check,
    find_quadratic_first_integrals,
    generate_binary_form_system,
    generate_diagonal_system,
    generate_mixed_sign_system,
    generate_shifted_system,
    is_first_integral,
    lie_derivative,
    lotka_volterra_log_check,
    no_periodic_orbit_certificate,
    solve_log_integral_family,
)
from .sim import (
    SimConfig,
    SimulationError,
    Trajectory,
    compile_invariant,
    compile_rhs,
    drift_report,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY_FORM_FAMILIES",
    "BinaryFormParams",
    "Complex",
    "ConservationVector",
    "CrossEffectReport",
    "CrossEffectViolation",
    "DiagonalParams",
    "FirstIntegralReport",
    "GeneratorConstraintError",
    "MixedSignParams",
    "NetworkSyntaxError",
    "NetworkValidationError",
    "NoPeriodicOrbitCertificate",
    "NotKineticError",
    "Polynomial",
    "PolynomialParseError",
    "PolynomialSystem",
    "ProofCheckError",
    "QuadraticCandidate",
    "ReactionNetwork",
    "ReactionStep",
    "SimConfig",
    "SimulationError",
    "Trajectory",
    "UnboundParameterError",
    "canonical_realization",
    "compile_invariant",
    "compile_rhs",
    "diagonal_collapse_check",
    "divergence",
    "drift_report",
    "equilibria_on_line_check",
    "find_quadratic_first_integrals",
    "format_rational",
    "generate_binary_form_system",
    "generate_diagonal_system",
    "generate_mixed_sign_system",
    "generate_shifted_system",
    "induced_kinetic_ode",
    "integrate",
    "is_first_integral",
    "kinetic_conservation",
    "kinetic_residual",
    "lie_derivative",
    "lotka_volterra_log_check",
    "negative_cross_effect",
    "no_periodic_orbit_certificate",
    "ode_variable_names",
    "parse_network",
    "parse_polynomial",
    "parse_rational",
    "parse_system",
    "solve_log_integral_family",
    "stoichiometric_conservation",
    "stoichiometric_residual",
    "verify_conservation",
]
