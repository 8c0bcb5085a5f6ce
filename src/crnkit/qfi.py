"""Quadratic first integrals of kinetic polynomial systems.

A quadratic candidate V(x) = x^T Q x + b^T x + c is a first integral of
x' = f(x) when its Lie derivative sum_m (dV/dx_m) f_m vanishes identically.
The Lie derivative is computed straight from the coefficients of V and f:
dV/dx_i = 2 sum_k q_ik x_k + b_i, so each term of f_i enters once scaled by
2 q_ik with its exponent of x_k raised by one (the shift rule), and once
scaled by b_i.  No gradient or product polynomial is built.  Since the Lie
derivative is bilinear in (V, f), the search for first integrals is an exact
null-space computation over a matrix assembled by the same shift rule: each
unit candidate's column is f_i, or f_i and f_j shifted by one variable and
doubled (the positive-diagonal search drops the factor 2 that every one of
its columns carries).  Strict sign conditions (for instance a
positive-definite diagonal V) are decided over that null space by
`positive_kernel_vector`, the routine the conservation searches use.

The generators in this module produce, for each supported shape of V, the
full coefficient family of kinetic quadratic systems conserving it; each
generated system is verified (kinetic, Lie derivative exactly zero) before
being returned.  These checks, like the positivity proofs of the simplex,
raise `ProofCheckError` explicitly and so also run under `python -O`.  Each
planar binary-form family is one row of `_BINARY_FAMILIES` (the signs in V,
the conditions on its coefficients, the free parameters and the field,
linear in them), which validation, the invariant and the generator all
read.  The no-periodic-orbit test lives here too, as its verdict needs a
first integral; which integrals it accepts depends on the dimension (see
`no_periodic_orbit_certificate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .conservation import (
    ConservationVector,
    kinetic_conservation,
    positive_kernel_vector,
    verify_conservation,
)
from .kinetics import negative_cross_effect
from .linalg import check_proof, coefficient_matrix, nullspace_basis, symmetric_inertia
from .poly import (
    Exponents,
    Polynomial,
    PolynomialSystem,
    accumulate_terms,
    default_variable_names,
)

Scalar = Fraction | int

_ZERO = Fraction(0)

# Cap on the size of the full first-integral search, bounded before assembly as
# its n(n + 3)/2 columns times (n + 1) T, a bound on the matrix's nonzeros (each
# of the T terms of f enters n + 1 columns).  On a 2-vCPU machine under Python
# 3.11, sparse systems cost about 0.04 us per unit and dense ones up to 0.8, so
# the cap admits sparse n = 39 (0.16 s) and dense n = 14 (1.7 s) and refuses
# the next sizes.
MAX_SEARCH_SIZE = 4_000_000


def _fraction(value: Scalar) -> Fraction:
    """`value` as a Fraction, kept as is when it already is one."""
    return value if type(value) is Fraction else Fraction(value)


@dataclass(frozen=True)
class QuadraticCandidate:
    """V(x) = x^T Q x + linear . x + constant with exact entries."""

    q: tuple[tuple[Fraction, ...], ...]
    linear: tuple[Fraction, ...]
    constant: Fraction = Fraction(0)

    def __post_init__(self):
        q = tuple(tuple(map(_fraction, row)) for row in self.q)
        linear = tuple(map(_fraction, self.linear))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "constant", _fraction(self.constant))
        n = len(q)
        if any(len(row) != n for row in q):
            raise ValueError("Q must be square")
        if len(linear) != n:
            raise ValueError("linear part length must match Q")
        for i in range(n):
            for j in range(i + 1, n):
                if q[i][j] != q[j][i]:
                    raise ValueError("Q must be symmetric")

    @property
    def dim(self) -> int:
        return len(self.q)

    @classmethod
    def diagonal(cls, coeffs: Sequence[Scalar]) -> "QuadraticCandidate":
        n = len(coeffs)
        q = tuple(
            tuple(_fraction(coeffs[i]) if i == j else _ZERO for j in range(n))
            for i in range(n)
        )
        return cls(q, (_ZERO,) * n)

    @classmethod
    def binary_form(cls, a: Scalar, b: Scalar, c: Scalar) -> "QuadraticCandidate":
        """V = a x^2 + 2 b x y + c y^2."""
        return cls(
            ((Fraction(a), Fraction(b)), (Fraction(b), Fraction(c))),
            (Fraction(0), Fraction(0)),
        )

    @classmethod
    def shifted_sum_of_squares(cls, a: Scalar, b: Scalar) -> "QuadraticCandidate":
        """V = (x + a)^2 + (y + b)^2."""
        a, b = Fraction(a), Fraction(b)
        return cls(
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            (2 * a, 2 * b),
            a * a + b * b,
        )

    def as_polynomial(self) -> Polynomial:
        n = self.dim
        terms: dict[Exponents, Fraction] = {}
        # x^T Q x: q_ij and q_ji both land on x_i x_j, which gets 2 q_ij
        for i in range(n):
            for j in range(i, n):
                expts = [0] * n
                expts[i] += 1
                expts[j] += 1
                terms[tuple(expts)] = self.q[i][j] if i == j else 2 * self.q[i][j]
        for i in range(n):
            terms[tuple(1 if k == i else 0 for k in range(n))] = self.linear[i]
        terms[(0,) * n] = self.constant
        return Polynomial(n, terms)

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "QuadraticCandidate":
        """The candidate whose `as_polynomial` is `poly`, of degree at most 2."""
        if poly.degree() > 2:
            raise ValueError(f"polynomial of degree {poly.degree()} is not quadratic")
        n = poly.dim

        def coeff(*indices: int) -> Fraction:
            # coefficient of the product of x_i over `indices`
            return poly.coefficient(tuple(indices.count(k) for k in range(n)))

        q = [[coeff(i, j) if i == j else coeff(i, j) / 2 for j in range(n)] for i in range(n)]
        return cls(q, [coeff(i) for i in range(n)], coeff())

    def is_diagonal(self) -> bool:
        return all(
            self.q[i][j] == 0
            for i in range(self.dim)
            for j in range(self.dim)
            if i != j
        ) and all(v == 0 for v in self.linear)

    def signature(self) -> str:
        """One of: positive-definite diagonal, definite, indefinite, degenerate."""
        if self.is_diagonal() and all(self.q[i][i] > 0 for i in range(self.dim)):
            return "positive-definite diagonal"
        pos, zero, neg = symmetric_inertia(self.q)
        if zero > 0:
            return "degenerate"
        if pos == self.dim or neg == self.dim:
            return "definite"
        return "indefinite"

    def render(self, names: Sequence[str] | None = None) -> str:
        names = tuple(names) if names is not None else default_variable_names(self.dim)
        return self.as_polynomial().render(names)

    def coefficient_vector(self) -> list[Fraction]:
        """Upper-triangle of Q (row major), then the linear part."""
        vec = []
        for i in range(self.dim):
            for j in range(i, self.dim):
                vec.append(self.q[i][j])
        vec.extend(self.linear)
        return vec


def lie_derivative(candidate: QuadraticCandidate, system: PolynomialSystem) -> Polynomial:
    """grad(V) . f = sum_i (2 sum_k q_ik x_k + b_i) f_i, computed exactly."""
    if candidate.dim != system.dim:
        raise ValueError(
            f"candidate dimension {candidate.dim} does not match system dimension {system.dim}"
        )
    sums: dict[Exponents, Fraction] = {}
    for i, component in enumerate(system.components):
        terms = component.terms()
        for k, q_ik in enumerate(candidate.q[i]):
            if q_ik:
                accumulate_terms(sums, terms, 2 * q_ik, shift=k)
        if candidate.linear[i]:
            accumulate_terms(sums, terms, candidate.linear[i])
    return Polynomial._from_clean(system.dim, {e: c for e, c in sums.items() if c})


def is_first_integral(candidate: QuadraticCandidate, system: PolynomialSystem) -> bool:
    return lie_derivative(candidate, system).is_zero()


# -- exhaustive search ------------------------------------------------------

def _lie_derivative_columns(
    system: PolynomialSystem, diagonal_only: bool
) -> list[Mapping[Exponents, Fraction]]:
    """Coefficients of the Lie derivative of each unit candidate.

    Columns follow `coefficient_vector` order: x_i^2 gives 2 x_i f_i, the
    off-diagonal unit 2 x_i x_j (i < j) gives 2 x_j f_i + 2 x_i f_j, and the
    linear unit x_i gives f_i.  Constants are excluded: they never influence
    the Lie derivative, and reported candidates pin the constant to zero.
    With diagonal_only every column is x_i^2's, so the common factor 2 is
    dropped; the null space is the same.
    """
    n = system.dim
    f = [component.terms() for component in system.components]
    if diagonal_only:
        columns = []
        for i in range(n):
            column: dict[Exponents, Fraction] = {}
            accumulate_terms(column, f[i], shift=i)
            columns.append(column)
        return columns
    twice = [{e: 2 * c for e, c in terms.items()} for terms in f]
    quadratic = []
    for i in range(n):
        for j in range(i, n):
            column = {}
            accumulate_terms(column, twice[i], shift=j)
            if j != i:
                accumulate_terms(column, twice[j], shift=i)
            quadratic.append(column)
    return quadratic + f


def _candidate(weights: Sequence[Fraction], dim: int, diagonal_only: bool) -> QuadraticCandidate:
    """The candidate with these weights on the unit candidates."""
    if diagonal_only:
        return QuadraticCandidate.diagonal(weights)
    q = [[Fraction(0)] * dim for _ in range(dim)]
    rest = iter(weights)
    for i in range(dim):
        for j in range(i, dim):
            q[i][j] = q[j][i] = next(rest)
    return QuadraticCandidate(q, tuple(rest))


@dataclass(frozen=True)
class FirstIntegralReport:
    """Result of the quadratic first-integral search."""

    found: bool
    candidate: QuadraticCandidate | None
    basis: tuple[QuadraticCandidate, ...]
    signature: str | None

    def to_dict(self, variables: Sequence[str] | None = None) -> dict:
        return {
            "found": self.found,
            "candidate": self.candidate.render(variables) if self.candidate else None,
            "basis": [c.render(variables) for c in self.basis],
            "signature": self.signature,
        }


def find_quadratic_first_integrals(
    system: PolynomialSystem, signature_filter: str | None = None
) -> FirstIntegralReport:
    """Compute the space of quadratic-plus-linear first integrals.

    Without a filter, returns the full exact null-space basis (each element
    gcd-normalized with positive leading coefficient) and the first basis
    element as representative candidate; a search whose size bound exceeds
    `MAX_SEARCH_SIZE` raises ValueError before any work starts.  With
    signature_filter "positive-diagonal", restricts to diagonal quadratic
    forms and decides exactly whether the solution space meets the open
    positive-coefficient orthant, returning a strictly positive witness if so.
    """
    if signature_filter not in (None, "positive-diagonal"):
        raise ValueError(f"unknown signature filter {signature_filter!r}")
    diagonal_only = signature_filter is not None
    if not diagonal_only:
        n, total = system.dim, sum(len(component.terms()) for component in system.components)
        size = n * (n + 3) // 2 * (n + 1) * total
        if size > MAX_SEARCH_SIZE:
            raise ValueError(
                f"full first-integral search of size {size} (n = {n} variables, "
                f"T = {total} terms, n(n + 3)/2 * (n + 1) T) is above "
                f"MAX_SEARCH_SIZE = {MAX_SEARCH_SIZE}"
            )
    columns = _lie_derivative_columns(system, diagonal_only)
    rows = coefficient_matrix(columns)
    if diagonal_only:
        weights, witness = positive_kernel_vector(rows, len(columns))
    else:
        weights = nullspace_basis(rows, len(columns))
        witness = weights[0] if weights else None
    basis = tuple(_candidate(w, system.dim, diagonal_only) for w in weights)
    candidate = None if witness is None else _candidate(witness, system.dim, diagonal_only)
    return FirstIntegralReport(
        found=candidate is not None,
        candidate=candidate,
        basis=basis,
        signature=candidate.signature() if candidate else None,
    )


# -- generator families -----------------------------------------------------

class GeneratorConstraintError(ValueError):
    """A generator parameter violates its family's admissibility condition."""


def _require(condition: bool, message: str):
    if not condition:
        raise GeneratorConstraintError(message)


def _verify_generated(system: PolynomialSystem, invariant: QuadraticCandidate):
    check_proof(negative_cross_effect(system).is_kinetic, "generated system must be kinetic")
    check_proof(is_first_integral(invariant, system), "generated system must conserve V")


@dataclass(frozen=True)
class DiagonalParams:
    """Family conserving V = sum_m a_m x_m^2 with all a_m > 0.

    `coupling` is a nonnegative matrix K with zero diagonal; the system is

        f_m = sum_{p != m} a_p K[m][p] x_p^2  -  sum_{p != m} a_p K[p][m] x_m x_p
    """

    weights: tuple[Fraction, ...]
    coupling: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        weights = tuple(map(_fraction, self.weights))
        coupling = tuple(tuple(map(_fraction, row)) for row in self.coupling)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "coupling", coupling)
        n = len(weights)
        _require(n >= 1, "at least one species required")
        _require(all(a > 0 for a in weights), "weights must be strictly positive")
        _require(
            len(coupling) == n and all(len(row) == n for row in coupling),
            "coupling matrix must be square of matching size",
        )
        _require(
            all(coupling[i][i] == 0 for i in range(n)),
            "coupling diagonal must be zero",
        )
        _require(
            all(v >= 0 for row in coupling for v in row),
            "coupling entries must be nonnegative",
        )

    @property
    def dim(self) -> int:
        return len(self.weights)

    def invariant(self) -> QuadraticCandidate:
        return QuadraticCandidate.diagonal(self.weights)


def generate_diagonal_system(params: DiagonalParams) -> PolynomialSystem:
    """Build the full kinetic family conserving a positive-diagonal V."""
    n = params.dim
    a, k = params.weights, params.coupling
    components = []
    for m in range(n):
        # the x_p^2 and x_m x_p keys (p != m) are all distinct
        terms: dict[Exponents, Fraction] = {}
        for p in range(n):
            if p == m:
                continue
            gain = a[p] * k[m][p]
            if gain:
                terms[tuple(2 if i == p else 0 for i in range(n))] = gain
            loss = a[p] * k[p][m]
            if loss:
                terms[tuple(1 if i in (m, p) else 0 for i in range(n))] = -loss
        components.append(Polynomial._from_clean(n, terms))
    system = PolynomialSystem(default_variable_names(n), tuple(components))
    _verify_generated(system, params.invariant())
    return system


@dataclass(frozen=True)
class MixedSignParams:
    """Family conserving the indefinite V = sum a_k x_k^2 - sum b_l y_l^2.

    With coupling matrix A >= 0 (K x L) the dynamics are

        x_k' = sum_l b_l A[k][l] y_l z
        y_l' = sum_k a_k A[k][l] x_k z
        z'   = -(sum_k rho_x[k] x_k' + sum_l rho_y[l] y_l') / rho_z

    so the system is kinetic and conserves mass with weights
    (rho_x, rho_y, rho_z).  If either block is empty the system is zero.
    """

    plus_weights: tuple[Fraction, ...]
    minus_weights: tuple[Fraction, ...]
    coupling: tuple[tuple[Fraction, ...], ...]
    rho_plus: tuple[Fraction, ...]
    rho_minus: tuple[Fraction, ...]
    rho_z: Fraction = Fraction(1)

    def __post_init__(self):
        plus = tuple(Fraction(v) for v in self.plus_weights)
        minus = tuple(Fraction(v) for v in self.minus_weights)
        coupling = tuple(tuple(Fraction(v) for v in row) for row in self.coupling)
        rho_plus = tuple(Fraction(v) for v in self.rho_plus)
        rho_minus = tuple(Fraction(v) for v in self.rho_minus)
        object.__setattr__(self, "plus_weights", plus)
        object.__setattr__(self, "minus_weights", minus)
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "rho_plus", rho_plus)
        object.__setattr__(self, "rho_minus", rho_minus)
        object.__setattr__(self, "rho_z", Fraction(self.rho_z))
        kk, ll = len(plus), len(minus)
        _require(all(v > 0 for v in plus + minus), "weights must be strictly positive")
        _require(
            len(coupling) == kk and all(len(row) == ll for row in coupling),
            "coupling must be K x L",
        )
        _require(
            all(v >= 0 for row in coupling for v in row),
            "coupling entries must be nonnegative",
        )
        _require(
            len(rho_plus) == kk and len(rho_minus) == ll,
            "conservation weights must match block sizes",
        )
        _require(
            all(v > 0 for v in rho_plus + rho_minus) and self.rho_z > 0,
            "conservation weights must be strictly positive",
        )

    @property
    def block_sizes(self) -> tuple[int, int]:
        return len(self.plus_weights), len(self.minus_weights)

    def variable_names(self) -> tuple[str, ...]:
        kk, ll = self.block_sizes
        xs = ("x",) if kk == 1 else tuple(f"x{i + 1}" for i in range(kk))
        ys = ("y",) if ll == 1 else tuple(f"y{i + 1}" for i in range(ll))
        return xs + ys + ("z",)

    def invariant(self) -> QuadraticCandidate:
        diag = list(self.plus_weights) + [-v for v in self.minus_weights] + [Fraction(0)]
        return QuadraticCandidate.diagonal(diag)

    def conservation(self) -> ConservationVector:
        return ConservationVector(
            self.rho_plus + self.rho_minus + (self.rho_z,), "kinetic"
        )


def generate_mixed_sign_system(params: MixedSignParams) -> PolynomialSystem:
    """Build the kinetic family conserving a two-block indefinite diagonal V."""
    kk, ll = params.block_sizes
    n = kk + ll + 1
    z = n - 1
    a, b, coupling = params.plus_weights, params.minus_weights, params.coupling

    def mono(i: int) -> tuple[int, ...]:
        # y_l z or x_k z monomials
        return tuple(1 if t in (i, z) else 0 for t in range(n))

    # the y_l z keys of one x_k' (and the x_k z keys of one y_l') are distinct
    terms = []
    for k_i in range(kk):
        terms.append({
            mono(kk + l_i): b[l_i] * coupling[k_i][l_i]
            for l_i in range(ll)
            if coupling[k_i][l_i]
        })
    for l_i in range(ll):
        terms.append({
            mono(k_i): a[k_i] * coupling[k_i][l_i]
            for k_i in range(kk)
            if coupling[k_i][l_i]
        })
    # every term is positive, so the sums for z' cannot cancel
    z_sums: dict[Exponents, Fraction] = {}
    for component, rho in zip(terms, params.rho_plus + params.rho_minus):
        accumulate_terms(z_sums, component, rho)
    scale = -1 / params.rho_z
    terms.append({e: c * scale for e, c in z_sums.items()})
    components = [Polynomial._from_clean(n, component) for component in terms]
    system = PolynomialSystem(params.variable_names(), tuple(components))
    _verify_generated(system, params.invariant())
    check_proof(
        verify_conservation(params.conservation(), system),
        "generated system must conserve mass with weights (rho_plus, rho_minus, rho_z)",
    )
    return system


# Conditions on (a, b, c), each with the text after the family name in its message.
_A_POSITIVE = (lambda a, b, c: a > 0, "requires a > 0")
_C_POSITIVE = (lambda a, b, c: c > 0, "requires c > 0")
_B_NONZERO = (lambda a, b, c: b != 0, "requires b != 0")
_NOT_PARABOLIC = (lambda a, b, c: a * c - b * b != 0, "requires ac - b^2 != 0")
_PARABOLIC = (
    (lambda a, b, c: a > 0 and b > 0 and c > 0, "requires a, b, c > 0"),
    (lambda a, b, c: a * c == b * b, "requires ac - b^2 = 0"),
)


# One row per binary family: the signs (sb, sc) of V = a x^2 + 2 sb b xy + sc c y^2,
# the conditions on (a, b, c) in the order they are checked, the free parameters, and
# field(a, b, c, k, l, m, n, r, s) -> (f_x terms, f_y terms), linear in the free ones.
class _BinaryFamily(NamedTuple):
    signs: tuple[int, int]
    conditions: tuple[tuple[Callable[..., bool], str], ...]
    free: str
    field: Callable[..., tuple[dict[Exponents, Fraction], dict[Exponents, Fraction]]]


_BINARY_FAMILIES = {
    "ellipse_hyperbola": _BinaryFamily(
        (1, 1), (_A_POSITIVE, _C_POSITIVE, _NOT_PARABOLIC), "kl",
        lambda a, b, c, k, l, m, n, r, s: (
            {(2, 0): -b * k, (1, 1): -c * k + b * l, (0, 2): c * l},
            {(2, 0): a * k, (1, 1): b * k - a * l, (0, 2): -b * l},
        ),
    ),
    "parabolic_plus": _BinaryFamily(
        (1, 1), _PARABOLIC, "klmns",
        lambda a, b, c, k, l, m, n, r, s: (
            {(2, 0): -b * k, (1, 1): c * s, (0, 2): c * l, (1, 0): -b * m, (0, 1): c * n},
            {(2, 0): a * k, (1, 1): -b * s, (0, 2): -b * l, (1, 0): a * m, (0, 1): -b * n},
        ),
    ),
    "parabolic_minus": _BinaryFamily(
        (-1, 1), _PARABOLIC, "klmnrs",
        lambda a, b, c, k, l, m, n, r, s: (
            {
                (2, 0): b * k,
                (1, 1): c * s,
                (0, 2): c * l,
                (1, 0): b * m,
                (0, 1): c * n,
                (0, 0): c * r,
            },
            {
                (2, 0): a * k,
                (1, 1): b * s,
                (0, 2): b * l,
                (1, 0): a * m,
                (0, 1): b * n,
                (0, 0): b * r,
            },
        ),
    ),
    "indefinite": _BinaryFamily(
        (1, -1), (_A_POSITIVE, _C_POSITIVE, _B_NONZERO), "klm",
        lambda a, b, c, k, l, m, n, r, s: (
            {(2, 0): -b * k, (1, 1): c * k - b * l, (0, 2): c * l, (1, 0): -b * m, (0, 1): c * m},
            {(2, 0): a * k, (1, 1): b * k + a * l, (0, 2): b * l, (1, 0): a * m, (0, 1): b * m},
        ),
    ),
    "rank_one": _BinaryFamily(
        (1, 1), (_A_POSITIVE, _B_NONZERO, (lambda a, b, c: c == 0, "fixes c = 0")), "kms",
        lambda a, b, c, k, l, m, n, r, s: (
            {(2, 0): -b * k, (1, 1): -b * s, (1, 0): -b * m},
            {(2, 0): a * k, (1, 1): b * k + a * s, (0, 2): b * s, (1, 0): a * m, (0, 1): b * m},
        ),
    ),
}

BINARY_FORM_FAMILIES = tuple(_BINARY_FAMILIES)


@dataclass(frozen=True)
class BinaryFormParams:
    """Planar families conserving a binary quadratic form.

    The families, their conserved forms and admissible parameters:

    - ellipse_hyperbola: V = a x^2 + 2b xy + c y^2, a > 0, c > 0,
      ac - b^2 != 0; free parameters k, l >= 0.
    - parabolic_plus: same V with a, b, c > 0 and ac = b^2; free parameters
      k, l, m, n >= 0 and s unrestricted.
    - parabolic_minus: V = a x^2 - 2b xy + c y^2, a, b, c > 0, ac = b^2;
      free parameters k, l, m, n, r >= 0 and s unrestricted.
    - indefinite: V = a x^2 + 2b xy - c y^2, a > 0, c > 0, b != 0; free
      parameters k, l, m >= 0.
    - rank_one: V = a x^2 + 2b xy, a > 0, b != 0 (c must stay 0); free
      parameters k, m >= 0 and s unrestricted.

    Every instance is kinetic and conserves its V; setting all free
    parameters to zero gives the zero system.
    """

    family: str
    a: Fraction
    b: Fraction
    c: Fraction = Fraction(0)
    k: Fraction = Fraction(0)
    l: Fraction = Fraction(0)
    m: Fraction = Fraction(0)
    n: Fraction = Fraction(0)
    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)

    def __post_init__(self):
        for name in "abcklmnrs":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        _require(self.family in BINARY_FORM_FAMILIES, f"unknown family {self.family!r}")
        row = _BINARY_FAMILIES[self.family]
        for holds, text in row.conditions:
            _require(holds(self.a, self.b, self.c), f"{self.family} {text}")
        for name in "klmnrs":
            if name not in row.free:
                _require(
                    getattr(self, name) == 0,
                    f"family {self.family} does not use parameter {name}",
                )
        for name in "klmnr":
            _require(
                getattr(self, name) >= 0,
                f"free parameter {name} must be nonnegative",
            )

    def invariant(self) -> QuadraticCandidate:
        sb, sc = _BINARY_FAMILIES[self.family].signs
        return QuadraticCandidate.binary_form(self.a, sb * self.b, sc * self.c)


def generate_binary_form_system(params: BinaryFormParams) -> PolynomialSystem:
    """Build the planar family conserving the given binary form."""
    fx, fy = _BINARY_FAMILIES[params.family].field(*(getattr(params, v) for v in "abcklmnrs"))
    system = PolynomialSystem(("x", "y"), (Polynomial(2, fx), Polynomial(2, fy)))
    _verify_generated(system, params.invariant())
    return system


def generate_shifted_system(
    A: Scalar, B: Scalar, a: Scalar, b: Scalar
) -> PolynomialSystem:
    """Planar kinetic family conserving V = (x + a)^2 + (y + b)^2.

        x' = A y (y + b) - B x (y + b)
        y' = B x (x + a) - A y (x + a)

    Requires A, B >= 0; a negative shift disables the corresponding rate
    (a < 0 forces B = 0, b < 0 forces A = 0) to keep the system kinetic.
    """
    A, B, a, b = Fraction(A), Fraction(B), Fraction(a), Fraction(b)
    _require(A >= 0 and B >= 0, "rates A and B must be nonnegative")
    if a < 0:
        _require(B == 0, "negative shift a requires B = 0")
    if b < 0:
        _require(A == 0, "negative shift b requires A = 0")
    fx = {(0, 2): A, (1, 1): -B, (1, 0): -b * B, (0, 1): b * A}
    fy = {(2, 0): B, (1, 1): -A, (1, 0): a * B, (0, 1): -a * A}
    system = PolynomialSystem(
        ("x", "y"), (Polynomial(2, fx), Polynomial(2, fy))
    )
    invariant = QuadraticCandidate.shifted_sum_of_squares(a, b)
    _verify_generated(system, invariant)
    return system


# -- structural checks ------------------------------------------------------

def equilibria_on_line_check(params: BinaryFormParams) -> bool:
    """Check the off-origin equilibrium set of an ellipse_hyperbola instance.

    The set is the line l y = k x (an axis when k or l is 0), or the whole
    plane for k = l = 0; returns True when both components vanish on it.
    A quadratic form vanishes on a line through the origin exactly when it
    vanishes at one nonzero point of it, so the check is that every term has
    degree 2 and both components are zero at (l, k).
    """
    if params.family != "ellipse_hyperbola":
        raise ValueError("equilibrium line analysis applies to ellipse_hyperbola only")
    components = generate_binary_form_system(params).components
    if params.k == params.l == 0:
        return all(component.is_zero() for component in components)
    return all(
        all(sum(expts) == 2 for expts in component.terms())
        and component.evaluate((params.l, params.k)) == 0
        for component in components
    )


@dataclass(frozen=True)
class DiagonalCollapseResult:
    """Outcome of the conserving-diagonal collapse check.

    For kinetic systems that conserve mass kinetically and admit a
    positive-definite diagonal quadratic first integral, the dynamics must be
    identically zero.  `applies` records whether all three hypotheses hold;
    `consistent` is False only if they hold and the system is nonzero.
    """

    applies: bool
    consistent: bool
    is_zero: bool
    conservation: ConservationVector | None
    integral: QuadraticCandidate | None


def diagonal_collapse_check(system: PolynomialSystem) -> DiagonalCollapseResult:
    # each hypothesis is tested only when the one before it holds
    conservation = integral = None
    if negative_cross_effect(system).is_kinetic:
        conservation = kinetic_conservation(system)
    if conservation is not None:
        integral = find_quadratic_first_integrals(system, "positive-diagonal").candidate
    applies = integral is not None
    zero = system.is_zero()
    return DiagonalCollapseResult(
        applies=applies,
        consistent=zero or not applies,
        is_zero=zero,
        conservation=conservation,
        integral=integral,
    )


# -- divergence and periodic orbits ----------------------------------------

def divergence(system: PolynomialSystem) -> Polynomial:
    """Sum of the partial derivatives d f_m / d x_m."""
    total = Polynomial.zero(system.dim)
    for index, component in enumerate(system.components):
        total = total + component.derivative(index)
    return total


@dataclass(frozen=True)
class NoPeriodicOrbitCertificate:
    """Witness that no periodic orbit lies in the open positive orthant.

    The verdict is "yes" only when the divergence is nonzero with every
    coefficient nonpositive (hence strictly negative on the open orthant)
    and a first integral that the rule for the system's dimension accepts
    is known (see `no_periodic_orbit_certificate`); both facts are recorded
    separately so an inconclusive answer shows which leg failed.
    """

    verdict: str  # "yes" | "inconclusive"
    divergence: Polynomial
    divergence_negative: bool
    first_integral: QuadraticCandidate | None

    @property
    def holds(self) -> bool:
        return self.verdict == "yes"

    def to_dict(self, variables: Sequence[str]) -> dict:
        integral = self.first_integral
        return {
            "verdict": self.verdict,
            "divergence": self.divergence.render(variables),
            "divergence_negative": self.divergence_negative,
            "first_integral": None if integral is None else integral.render(variables),
        }


def _has_disk_level_sets(candidate: QuadraticCandidate) -> bool:
    """Is V a nonzero linear form, or a positive-definite form with no linear part?"""
    if any(candidate.linear):
        return not any(any(row) for row in candidate.q)
    return symmetric_inertia(candidate.q)[0] == candidate.dim


def _disk_level_integral(
    system: PolynomialSystem, invariant: QuadraticCandidate | None
) -> QuadraticCandidate | None:
    """A first integral of a 3-D system accepted by `_has_disk_level_sets`, if known.

    The supplied invariant if it qualifies; else a linear integral, which
    exists iff the components are linearly dependent (any signs); else the
    positive-diagonal search's witness.
    """
    if invariant is not None and _has_disk_level_sets(invariant):
        return invariant
    rows = coefficient_matrix([component.terms() for component in system.components])
    linear = nullspace_basis(rows, system.dim)
    if linear:
        return QuadraticCandidate(((_ZERO,) * system.dim,) * system.dim, linear[0])
    return find_quadratic_first_integrals(system, "positive-diagonal").candidate


def no_periodic_orbit_certificate(
    system: PolynomialSystem, invariant: QuadraticCandidate | None = None
) -> NoPeriodicOrbitCertificate:
    """Try to certify absence of periodic orbits in the open positive orthant.

    If `invariant` (a QuadraticCandidate) is given it is verified first.
    Writing D for the open orthant, "yes" needs div f < 0 on D (checked as a
    nonzero divergence with no positive coefficient) and, by dimension:

    - n <= 2: a quadratic first integral, the supplied one or the first
      element of the full search's basis.  Bendixson's criterion (Bendixson
      1901; Dulac 1937) on the simply connected quadrant already suffices:
      a periodic orbit bounds a disk in D, and the integral of div f over
      it equals the zero flux of f through the orbit.
    - n = 3: a first integral H whose level sets meet D in disks, on which
      dH != 0: a nonzero linear H (a plane meets the convex cone D in a
      convex set), or a positive-definite form with no linear part (its
      level sets are star-shaped about the origin, and D is a cone).  A
      periodic orbit lies on one such disk S and bounds a disk in it.  The
      Gelfand-Leray form sigma (dH ^ sigma = volume) obeys
      L_f sigma = (div f) sigma on S, so the same flux argument applies to
      the area form sigma.  The supplied invariant is used if it is such an
      H; otherwise a linear integral is sought, then a positive-diagonal
      one.
    - n >= 4: "inconclusive".  A level set of one integral then has
      dimension 3 or more, where the area argument says nothing.  For
      instance, with r = (x - 1)^2 + (y - 1)^2, the system
      x' = 1 - y + (x - 1)(1/4 - r), y' = x - 1 + (y - 1)(1/4 - r),
      z' = (1 - z)(1 + 8x + 8y), w' = 0 has divergence -4x^2 - 4y^2 - 17/2
      and the first integral w^2, yet the circle r = 1/4, z = w = 1 is a
      periodic orbit in D.
    """
    div = divergence(system)
    div_negative = (not div.is_zero()) and all(
        coeff <= 0 for _, coeff in div.sorted_terms()
    )
    if invariant is not None and not is_first_integral(invariant, system):
        raise ValueError("supplied invariant is not a first integral of the system")
    if system.dim > 3:
        integral = None
    elif system.dim == 3:
        integral = _disk_level_integral(system, invariant)
    elif invariant is not None:
        integral = invariant
    else:
        report = find_quadratic_first_integrals(system)
        integral = report.basis[0] if report.basis else None
    verdict = "yes" if (div_negative and integral is not None) else "inconclusive"
    return NoPeriodicOrbitCertificate(
        verdict=verdict,
        divergence=div,
        divergence_negative=div_negative,
        first_integral=integral,
    )


# -- logarithmic first integral (planar predator-prey) ----------------------

# The multipliers y (x - 1) of f_1 and x (y - 1) of f_2 in the log-integral identity.
_LOG_MULTIPLIERS = ({(1, 1): 1, (0, 1): -1}, {(1, 1): 1, (1, 0): -1})


def lotka_volterra_log_check(system: PolynomialSystem) -> bool:
    """Does x + y - ln x - ln y stay constant along the flow?

    Vanishing of the Lie derivative on the open positive quadrant is
    equivalent to the polynomial identity
    y (x - 1) f_1 + x (y - 1) f_2 = 0, which is checked exactly.
    """
    if system.dim != 2:
        raise ValueError("log-integral check is for planar systems")
    first, second = (
        Polynomial(2, multiplier) * component
        for multiplier, component in zip(_LOG_MULTIPLIERS, system.components)
    )
    return (first + second).is_zero()


_QUAD_MONOMIALS = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]


def solve_log_integral_family() -> list[PolynomialSystem]:
    """All planar quadratic systems conserving x + y - ln x - ln y.

    Treats the 12 coefficients of (f_1, f_2) as unknowns and solves the
    identity y (x - 1) f_1 + x (y - 1) f_2 = 0 exactly.  The solution space
    is returned as a basis of normalized systems; time reversal stays inside
    the family since it only flips the overall sign.
    """
    # column (k, a, b) holds the terms of x^a y^b times y (x - 1) for k = 0
    # (f_1's coefficient of x^a y^b) or x (y - 1) for k = 1 (f_2's)
    columns = [
        {(i + a, j + b): c for (i, j), c in multiplier.items()}
        for multiplier in _LOG_MULTIPLIERS
        for a, b in _QUAD_MONOMIALS
    ]
    basis = nullspace_basis(coefficient_matrix(columns), len(columns))
    systems = []
    for vec in basis:
        f1, f2 = (
            Polynomial(2, dict(zip(_QUAD_MONOMIALS, vec[k : k + 6]))) for k in (0, 6)
        )
        systems.append(PolynomialSystem(("x", "y"), (f1, f2)))
    return systems
