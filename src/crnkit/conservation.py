"""Mass-conservation analysis, stoichiometric and kinetic.

A network conserves mass stoichiometrically when some strictly positive
vector rho satisfies rho^T gamma = 0 for its net stoichiometric matrix.  A
polynomial system conserves mass kinetically when some strictly positive rho
makes sum_m rho_m f_m the zero polynomial.  The first implies the second for
the induced ODE, but not conversely; both searches reduce to finding a
strictly positive vector in an exactly computed null space.

Every polynomial integral search takes its constraint rows from one
builder, `lie_derivative_rows`: the column of a unit candidate is its Lie
derivative, one row per monomial.  A kinetic conservation law rho . x is
the linear-unit case, whose columns are the f_i themselves; the quadratic
first-integral searches in `qfi` pass it their quadratic units too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import SparseRow, nullspace_basis, positive_vector_in_span
from .network import ReactionNetwork
from .poly import Exponents, Polynomial, PolynomialSystem, accumulate_terms, as_fraction


@dataclass(frozen=True)
class ConservationVector:
    """A strictly positive witness vector with its interpretation mode."""

    rho: tuple[Fraction, ...]
    mode: str  # "stoichiometric" | "kinetic"

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(map(as_fraction, self.rho)))
        if self.mode not in ("stoichiometric", "kinetic"):
            raise ValueError(f"unknown conservation mode {self.mode!r}")
        if not self.rho or any(v <= 0 for v in self.rho):
            raise ValueError("conservation vector must be strictly positive")


def stoichiometric_residual(
    rho: Sequence[Fraction], network: ReactionNetwork
) -> list[Fraction]:
    """rho^T gamma, one entry per reaction step."""
    if len(rho) != network.num_species:
        raise ValueError(
            f"vector length {len(rho)} does not match {network.num_species} species"
        )
    return [
        sum((as_fraction(rho[i]) * c for i, c in step.net_change.items()), Fraction(0))
        for step in network.steps
    ]


def kinetic_residual(rho: Sequence[Fraction], system: PolynomialSystem) -> Polynomial:
    """The polynomial sum_m rho_m f_m."""
    if len(rho) != system.dim:
        raise ValueError(
            f"vector length {len(rho)} does not match {system.dim} variables"
        )
    sums: dict[Exponents, Fraction] = {}
    for value, component in zip(rho, system.components):
        accumulate_terms(sums, component.terms(), as_fraction(value))
    return Polynomial._from_clean(system.dim, {e: c for e, c in sums.items() if c})


def lie_derivative_rows(
    system: PolynomialSystem, units: Sequence[tuple[int, ...]]
) -> list[dict[int, int]]:
    """Sparse integer rows of the matrix whose column c is the Lie derivative of units[c].

    A unit (i,) is the linear candidate x_i, whose Lie derivative is f_i.
    A unit (i, j), i <= j, is the quadratic candidate with q_ij = q_ji = 1:
    x_i^2, whose Lie derivative is 2 x_i f_i, or 2 x_i x_j, whose Lie
    derivative is 2 x_j f_i + 2 x_i f_j.  There is one row per monomial
    these reach.  Constants are not units: they never influence the Lie
    derivative, and reported candidates pin the constant to zero.

    The terms of f come from `system.coded_terms`, built once per system:
    f scaled by the lcm of its coefficient denominators, so every entry is
    an int (one positive factor on every column leaves the null space
    unchanged), and each monomial keyed by its code, one byte per variable
    (x_k's exponent in byte k), so multiplying by x_k adds 1 << 8 k to a
    code.  The codes of distinct monomials differ while every exponent
    stays below 256 after one shift, which a total degree of at most
    MAX_DEGREE guarantees; a system of higher degree raises ValueError.
    """
    # per component i: (column, code shift, factor) of each unit that reads f_i
    reads: list[list[tuple[int, int, int]]] = [[] for _ in range(system.dim)]
    for column, unit in enumerate(units):
        if len(unit) == 1:
            reads[unit[0]].append((column, 0, 1))
        else:
            i, j = unit
            reads[i].append((column, 1 << 8 * j, 2))
            if j != i:
                reads[j].append((column, 1 << 8 * i, 2))
    rows: dict[int, dict[int, int]] = {}
    for terms, uses in zip(system.coded_terms, reads):
        for code, value in terms:
            for column, shift, factor in uses:
                key = code + shift
                row = rows.get(key)
                if row is None:
                    rows[key] = {column: factor * value}
                else:
                    row[column] = row.get(column, 0) + factor * value
    return list(rows.values())


def positive_kernel_vector(
    rows: Sequence[SparseRow], ncols: int
) -> tuple[list[list[Fraction]], tuple[Fraction, ...] | None]:
    """The kernel of sparse rows, and a strictly positive vector in it if any.

    Returns `nullspace_basis(rows, ncols)` and the witness that
    `positive_vector_in_span` finds in its span, or None when there is none
    (an empty kernel is not searched).  Every strict-positivity search over
    a kernel, conservation and positive-diagonal QFI alike, runs here.
    """
    basis = nullspace_basis(rows, ncols)
    if not basis:
        return basis, None
    return basis, positive_vector_in_span(basis, ncols).vector


def stoichiometric_conservation(network: ReactionNetwork) -> ConservationVector | None:
    """Search for strictly positive rho with rho^T gamma = 0.

    Each step's net change is one row of gamma^T.  Returns an integer
    witness with collective gcd 1, or None when the left null space of
    gamma misses the open positive orthant.
    """
    rows = [step.net_change for step in network.steps]
    _, witness = positive_kernel_vector(rows, network.num_species)
    return None if witness is None else ConservationVector(witness, "stoichiometric")


def kinetic_conservation(system: PolynomialSystem) -> ConservationVector | None:
    """Search for strictly positive rho with sum_m rho_m f_m identically zero.

    The rows are those of the linear units x_0, ..., x_{n-1}; a system of
    degree above MAX_DEGREE raises ValueError.
    """
    rows = lie_derivative_rows(system, [(i,) for i in range(system.dim)])
    _, witness = positive_kernel_vector(rows, system.dim)
    return None if witness is None else ConservationVector(witness, "kinetic")


def verify_conservation(
    candidate: ConservationVector, target: ReactionNetwork | PolynomialSystem
) -> bool:
    """Exactly check a candidate witness against a network or system.

    A stoichiometric candidate requires a ReactionNetwork target, a kinetic
    one a PolynomialSystem; mixing them raises TypeError.
    """
    if candidate.mode == "stoichiometric":
        if not isinstance(target, ReactionNetwork):
            raise TypeError("stoichiometric candidates verify against a network")
        return all(v == 0 for v in stoichiometric_residual(candidate.rho, target))
    if not isinstance(target, PolynomialSystem):
        raise TypeError("kinetic candidates verify against a polynomial system")
    return kinetic_residual(candidate.rho, target).is_zero()
