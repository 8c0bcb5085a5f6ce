"""Shared helpers for randomized tests: generators and independent oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import Sequence

from crnkit import (
    Polynomial,
    PolynomialSystem,
    QuadraticCandidate,
    ReactionNetwork,
    SimConfig,
    SimulationError,
    Trajectory,
    compile_rhs,
)
from crnkit.linalg import PositivityResult, _reduce, check_proof, positive_vector_in_span
from crnkit.kinetics import (
    NotKineticError,
    negative_cross_effect,
    ode_variable_names,
    species_names_for_variables,
)
from crnkit.sim import CLAMP_TOLERANCE
from crnkit.network import Complex, ReactionStep, resolve_rate

SMALL_FRACTIONS = [
    Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3) if Fraction(n, d) != 0
]
SMALL_POSITIVE = [f for f in SMALL_FRACTIONS if f > 0]
SMALL_NONNEGATIVE = [Fraction(0)] + SMALL_POSITIVE


def random_polynomial(rng: random.Random, dim: int, max_degree: int = 3,
                      max_terms: int = 5) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        terms[tuple(exps)] = rng.choice(SMALL_FRACTIONS)
    poly = Polynomial.zero(dim)
    for exps, coeff in terms.items():
        poly = poly + Polynomial.monomial(dim, exps, coeff)
    return poly


def random_complex(rng: random.Random, num_species: int,
                   allow_empty: bool = True) -> dict[int, Fraction]:
    entries: dict[int, Fraction] = {}
    size = rng.randint(0 if allow_empty else 1, 2)
    for _ in range(size):
        entries[rng.randrange(num_species)] = Fraction(rng.randint(1, 2))
    return entries


def random_network(rng: random.Random, conserving: bool = False) -> ReactionNetwork:
    """Random proper network; with conserving=True every step preserves a
    hidden positive integer mass, so a stoichiometric witness exists."""
    num_species = rng.randint(2, 5)
    species = tuple(chr(ord("A") + i) for i in range(num_species))
    # species 0 has mass 1 so any integer mass is reachable greedily
    masses = [1] + [rng.randint(1, 3) for _ in range(num_species - 1)]
    steps = []
    for _ in range(rng.randint(2, 6)):
        reactant = random_complex(rng, num_species, allow_empty=not conserving)
        product_ = random_complex(rng, num_species)
        if conserving:
            target = sum(masses[i] * int(c) for i, c in reactant.items())
            product_ = {}
            remaining = target
            for _ in range(rng.randint(0, 2)):
                idx = rng.randrange(num_species)
                if masses[idx] <= remaining:
                    product_[idx] = product_.get(idx, Fraction(0)) + 1
                    remaining -= masses[idx]
            if remaining:
                product_[0] = product_.get(0, Fraction(0)) + remaining
        if reactant == product_:
            continue
        rate = Fraction(rng.randint(1, 4), rng.choice((1, 1, 2)))
        steps.append(
            ReactionStep(Complex.from_mapping(reactant), Complex.from_mapping(product_), rate)
        )
    if not steps:
        # A -> B keeps unit masses balanced, so it is safe in both modes
        steps.append(
            ReactionStep(
                Complex.from_mapping({0: Fraction(1)}),
                Complex.from_mapping({1: Fraction(1)}),
                Fraction(1),
            )
        )
        masses[1] = 1
    # dedupe (reactant, product) pairs to keep construction warning-free
    seen = {}
    for step in steps:
        seen[(step.reactant, step.product)] = step
    return ReactionNetwork(species, tuple(seen.values()))


def reference_induced_ode(network: ReactionNetwork, params=None) -> PolynomialSystem:
    """Oracle for `induced_kinetic_ode`: f_m = sum_r (beta[m,r] - alpha[m,r]) k_r x^alpha_r,
    read species by species off each step's two complexes."""
    m = network.num_species
    terms = [dict() for _ in range(m)]
    for step in network.steps:
        k = resolve_rate(step.rate, params)
        exponents = [0] * m
        for index, coeff in step.reactant.entries:
            exponents[index] = int(coeff)
        mono = tuple(exponents)
        for index in range(m):
            gamma = step.product.coefficient(index) - step.reactant.coefficient(index)
            if gamma != 0:
                bucket = terms[index]
                bucket[mono] = bucket.get(mono, Fraction(0)) + gamma * k
    components = tuple(Polynomial(m, t) for t in terms)
    return PolynomialSystem(ode_variable_names(network.species), components)


def reference_realization(system: PolynomialSystem) -> ReactionNetwork:
    """Oracle for `canonical_realization`: the same one-step-per-term network,
    built from mappings through the checking public constructors."""
    report = negative_cross_effect(system)
    if not report.is_kinetic:
        raise NotKineticError(report)
    species = species_names_for_variables(system.variables)
    steps: list[ReactionStep] = []
    for index, component in enumerate(system.components):
        for expts, coeff in component.sorted_terms():
            reactant = {i: Fraction(e) for i, e in enumerate(expts) if e}
            product_ = dict(reactant)
            product_[index] = product_.get(index, 0) + (1 if coeff > 0 else -1)
            steps.append(
                ReactionStep(
                    Complex.from_mapping(reactant), Complex.from_mapping(product_), abs(coeff)
                )
            )
    return ReactionNetwork(species, steps)


def random_kinetic_system(rng: random.Random) -> PolynomialSystem:
    """Kinetic by construction: induced ODE of a random network."""
    from crnkit import induced_kinetic_ode

    return induced_kinetic_ode(random_network(rng))


def plant_cross_effect_violation(
    rng: random.Random, system: PolynomialSystem
) -> tuple[PolynomialSystem, int, tuple[int, ...]]:
    """Add one negative term without its own-variable factor to a component.

    The planted monomial is chosen off the support of the existing component
    slice so the violation is guaranteed to be reported.
    """
    dim = system.dim
    m = rng.randrange(dim)
    exps = [0] * dim
    for _ in range(rng.randint(0, 2)):
        p = rng.randrange(dim)
        if p != m:
            exps[p] += 1
    components = list(system.components)
    # clear any same-monomial term first so the final coefficient is negative
    old = components[m].coefficient(tuple(exps))
    bad = Polynomial.monomial(dim, tuple(exps), -old - Fraction(rng.randint(1, 3)))
    components[m] = components[m] + bad
    return PolynomialSystem(system.variables, tuple(components)), m, tuple(exps)


def signed_homogeneous_quadratics_2d():
    """All kinetic homogeneous quadratic 2D systems over the signed grid.

    Slots that may carry negative coefficients (the own-variable appears in
    the monomial) range over {0, +-1/2, +-1, +-2}; the two cross slots are
    restricted to nonnegative values, which makes every enumerated system
    kinetic by construction.
    """
    free = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2),
            Fraction(-1, 2), Fraction(-1), Fraction(-2)]
    nonneg = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for a1, b1, c1, a2, b2, c2 in product(free, free, nonneg, nonneg, free, free):
        yield (a1, b1, c1, a2, b2, c2)


def quadratic_system_2d(coeffs) -> PolynomialSystem:
    a1, b1, c1, a2, b2, c2 = coeffs
    f1 = (
        Polynomial.monomial(2, (2, 0), a1)
        + Polynomial.monomial(2, (1, 1), b1)
        + Polynomial.monomial(2, (0, 2), c1)
    )
    f2 = (
        Polynomial.monomial(2, (2, 0), a2)
        + Polynomial.monomial(2, (1, 1), b2)
        + Polynomial.monomial(2, (0, 2), c2)
    )
    return PolynomialSystem(("x", "y"), (f1, f2))


def diagonal_representable_2d(system: PolynomialSystem) -> bool:
    """Closed-form test: does the 2D system match the coupled template

        f1 = w2*K12*y^2 - w2*K21*x*y,   f2 = w1*K21*x^2 - w1*K12*x*y

    for some weights w1,w2 > 0 and couplings K12,K21 >= 0?  Any linear or
    constant part, or an own-square term, rules it out.  When both coupling
    products are active the cross products must agree exactly.
    """
    f1, f2 = system.components
    for poly in (f1, f2):
        for exps, _ in poly.sorted_terms():
            if sum(exps) != 2:
                return False
    a1 = f1.coefficient((2, 0))
    b1 = f1.coefficient((1, 1))
    c1 = f1.coefficient((0, 2))
    a2 = f2.coefficient((2, 0))
    b2 = f2.coefficient((1, 1))
    c2 = f2.coefficient((0, 2))
    if a1 != 0 or c2 != 0:
        return False
    if c1 < 0 or a2 < 0 or b1 > 0 or b2 > 0:
        return False
    # K12 = 0 forces both c1 and b2 to vanish, K21 = 0 both a2 and b1
    if (c1 == 0) != (b2 == 0) or (a2 == 0) != (b1 == 0):
        return False
    return b1 * b2 == c1 * a2


def unit_candidates(dim: int, diagonal_only: bool) -> list[QuadraticCandidate]:
    """Basis of the quadratic-plus-linear candidates, `coefficient_vector` order."""
    zero = tuple(Fraction(0) for _ in range(dim))
    out = []
    for i in range(dim):
        for j in range(i, dim):
            if diagonal_only and i != j:
                continue
            q = [list(zero) for _ in range(dim)]
            q[i][j] = q[j][i] = Fraction(1)
            out.append(QuadraticCandidate(q, zero))
    if not diagonal_only:
        for i in range(dim):
            linear = tuple(Fraction(1 if k == i else 0) for k in range(dim))
            out.append(QuadraticCandidate([zero] * dim, linear))
    return out


def gradient(candidate: QuadraticCandidate) -> list[Polynomial]:
    poly = candidate.as_polynomial()
    return [poly.derivative(i) for i in range(candidate.dim)]


def arithmetic_lie_derivative(
    candidate: QuadraticCandidate, system: PolynomialSystem
) -> Polynomial:
    """Oracle for `lie_derivative`: grad(V) . f by Polynomial products and sums."""
    if candidate.dim != system.dim:
        raise ValueError(
            f"candidate dimension {candidate.dim} does not match system dimension {system.dim}"
        )
    total = Polynomial.zero(system.dim)
    for partial, component in zip(gradient(candidate), system.components):
        total = total + partial * component
    return total


def unit_lie_derivative_matrix(
    system: PolynomialSystem, units: list[QuadraticCandidate]
) -> list[list[Fraction]]:
    """Oracle for the first-integral constraint matrix.

    Applies `arithmetic_lie_derivative` to every unit candidate and reads
    the coefficients back, one row per monomial in sorted order.
    """
    lies = [arithmetic_lie_derivative(unit, system) for unit in units]
    monomials = sorted({mono for poly in lies for mono in poly.monomials()})
    return [[poly.coefficient(mono) for poly in lies] for mono in monomials]


def combine_units(units: list[QuadraticCandidate], weights) -> QuadraticCandidate:
    dim = units[0].dim
    q = [[Fraction(0)] * dim for _ in range(dim)]
    linear = [Fraction(0)] * dim
    for w, unit in zip(weights, units):
        for i in range(dim):
            for j in range(dim):
                q[i][j] += w * unit.q[i][j]
            linear[i] += w * unit.linear[i]
    return QuadraticCandidate(q, tuple(linear))


def matvec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


def dense_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Oracle for `rref`: dense Gauss-Jordan over Fractions, zero rows last."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots: list[int] = []
    rank = 0
    for col in range(len(mat[0])):
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat, pivots


def reference_inertia(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts by dense Fraction Schur complements.

    Checks the shape and symmetry as `linalg.symmetric_inertia` does.  A zero
    diagonal is handled by the congruence row i += row j, column i += column j.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    for i in range(n):
        if len(a[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is None:
            pair = next(
                (
                    (i, j)
                    for idx, i in enumerate(active)
                    for j in active[idx + 1 :]
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                zero += len(active)
                break
            i, j = pair
            for t in active:
                a[i][t] = a[i][t] + a[j][t]
            for t in active:
                a[t][i] = a[t][i] + a[t][j]
            piv = i
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        col = {i: a[i][piv] for i in active}
        for i in active:
            if col[i] == 0:
                continue
            f = col[i] / d
            for j in active:
                a[i][j] -= f * a[piv][j]
        for i in active:
            for j in active:
                if i < j:
                    a[j][i] = a[i][j]
    return pos, zero, neg


def primitive_integer_vector(values) -> tuple[Fraction, ...]:
    """Scale a rational vector to coprime integers, preserving direction.

    The zero vector maps to itself.  Entries come back as integer-valued
    Fractions.
    """
    fracs = [Fraction(v) for v in values]
    if not fracs or all(v == 0 for v in fracs):
        return tuple(Fraction(0) for _ in fracs)
    den = math.lcm(*(v.denominator for v in fracs))
    ints = [int(v * den) for v in fracs]
    g = math.gcd(*ints)
    return tuple(Fraction(i // g) for i in ints)


def leading_sign_normalized(values) -> tuple[Fraction, ...]:
    """Oracle for the normal form of `nullspace_basis` vectors: the primitive
    integer form with the first nonzero entry made positive."""
    ints = primitive_integer_vector(values)
    for v in ints:
        if v != 0:
            if v < 0:
                ints = tuple(-x for x in ints)
            break
    return ints


def sparse_rows(rows: Sequence[Sequence[Fraction]]) -> list[dict[int, Fraction]]:
    """Dense rows as the sparse rows `nullspace_basis` reads, zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


def dense_nullspace_basis(rows, ncols: int) -> list[list[Fraction]]:
    """Oracle for `nullspace_basis`, read off `dense_rref`."""
    reduced, pivots = dense_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, piv_col in enumerate(pivots):
            vec[piv_col] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def dense_positive_kernel_vector(rows, ncols: int) -> tuple[Fraction, ...] | None:
    """Oracle for the witness of `positive_kernel_vector`, on dense rows.

    The kernel comes from `dense_rref` and its span goes to
    `positive_vector_in_span`, which reduces it again, so the witness does
    not depend on how the basis vectors are scaled.
    """
    basis = dense_nullspace_basis(rows, ncols)
    if not basis:
        return None
    return positive_vector_in_span(basis, ncols).vector


def dense_conservation_rows(
    network: ReactionNetwork, system: PolynomialSystem
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Dense constraint rows of both conservation searches.

    The rows of gamma^T (one per step, read off `stoichiometric_matrices`)
    and the coefficient rows of the system (one per monomial, sorted).
    """
    _, _, gamma = network.stoichiometric_matrices()
    gamma_t = [list(column) for column in zip(*gamma)]
    monomials = sorted({e for component in system.components for e in component.terms()})
    coefficients = [
        [component.coefficient(e) for component in system.components] for e in monomials
    ]
    return gamma_t, coefficients


# -- exact linear algebra: test-only helpers and the old positivity solver ---

def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot columns, read off `_reduce`.

    The reduced matrix has as many rows as the input, zero rows last.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    placed, pivots = _reduce(sparse_rows(rows), ncols)
    zero = Fraction(0)
    reduced = [
        [Fraction(row[j], row[col]) if j in row else zero for j in range(ncols)]
        for row, col in zip(placed, pivots)
    ]
    reduced.extend([zero] * ncols for _ in range(len(rows) - len(placed)))
    return reduced, pivots


def split_positive_vector_in_span(
    vectors: Sequence[Sequence[Fraction]], dim: int
) -> PositivityResult:
    """Oracle for `positive_vector_in_span`: the split-variable rational simplex.

    Decide whether span(vectors) meets the open positive orthant.

    Solved as the phase-1 linear program "find lambda with N lambda >= 1"
    using exact rational pivoting and Bland's rule.  On failure the dual
    solution is returned: y >= 0, y != 0, y orthogonal to every spanning
    vector (so no positive combination can exist).
    """
    if dim <= 0:
        raise ValueError("dimension must be positive")
    for v in vectors:
        if len(v) != dim:
            raise ValueError("spanning vector has wrong length")
    k = len(vectors)
    ncols = 2 * k + 2 * dim  # lambda+, lambda-, surplus, artificial
    art0 = 2 * k + dim
    rows: list[list[Fraction]] = []
    for i in range(dim):
        row = [Fraction(0)] * (ncols + 1)
        for j in range(k):
            row[j] = Fraction(vectors[j][i])
            row[k + j] = -row[j]
        row[2 * k + i] = Fraction(-1)
        row[art0 + i] = Fraction(1)
        row[ncols] = Fraction(1)
        rows.append(row)
    basis = [art0 + i for i in range(dim)]
    # objective row: reduced costs of min(sum of artificials); entry ncols
    # holds minus the current objective value
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        cost = Fraction(1) if j >= art0 else Fraction(0)
        obj[j] = cost - sum(row[j] for row in rows)
    obj[ncols] = -sum(row[ncols] for row in rows)

    while True:
        entering = next((j for j in range(ncols) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for r in range(dim):
            coeff = rows[r][entering]
            if coeff > 0:
                ratio = rows[r][ncols] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leaving])
                ):
                    best = ratio
                    leaving = r
        if leaving is None:  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("unbounded phase-1 objective")
        piv = rows[leaving][entering]
        rows[leaving] = [x / piv for x in rows[leaving]]
        for r in range(dim):
            if r != leaving and rows[r][entering] != 0:
                f = rows[r][entering]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[leaving])]
        if obj[entering] != 0:
            f = obj[entering]
            obj = [a - f * b for a, b in zip(obj, rows[leaving])]
        basis[leaving] = entering

    objective = -obj[ncols]
    if objective == 0:
        lam = [Fraction(0)] * k
        for r, var in enumerate(basis):
            if var < k:
                lam[var] += rows[r][ncols]
            elif var < 2 * k:
                lam[var - k] -= rows[r][ncols]
        result = [Fraction(0)] * dim
        for j, coeff in enumerate(lam):
            if coeff:
                for i in range(dim):
                    result[i] += coeff * Fraction(vectors[j][i])
        check_proof(all(x >= 1 for x in result), "positive witness has an entry below 1")
        return PositivityResult(vector=tuple(result), certificate=None)

    cert = [Fraction(1) - obj[art0 + i] for i in range(dim)]
    nonnegative_nonzero = all(y >= 0 for y in cert) and any(y > 0 for y in cert)
    check_proof(nonnegative_nonzero, "certificate must be nonnegative and nonzero")
    for v in vectors:
        residual = sum((y * Fraction(x) for y, x in zip(cert, v)), Fraction(0))
        check_proof(residual == 0, "certificate must be orthogonal to the span")
    return PositivityResult(vector=None, certificate=tuple(cert))


# -- integrator oracle: the per-component loops the generated steps replace ----

RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def left_sum(values) -> float:
    """sum() of floats as Python 3.11 computes it: from the int 0, left to right.

    From 3.12 on, sum() compensates float rounding, so the oracle spells out
    the plain order the integrator was written against.
    """
    total = 0
    for value in values:
        total += value
    return total


def rk4_step(rhs, state, h):
    k1 = rhs(state)
    k2 = rhs([x + 0.5 * h * k for x, k in zip(state, k1)])
    k3 = rhs([x + 0.5 * h * k for x, k in zip(state, k2)])
    k4 = rhs([x + h * k for x, k in zip(state, k3)])
    return [
        x + h / 6.0 * (a + 2 * b + 2 * c + d)
        for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    ]


def rkf45_step(rhs, state, h):
    ks = [rhs(state)]
    for stage in range(1, 6):
        coeffs = RKF_A[stage]
        probe = [
            x + h * left_sum(c * ks[i][idx] for i, c in enumerate(coeffs))
            for idx, x in enumerate(state)
        ]
        ks.append(rhs(probe))
    fourth = [
        x + h * left_sum(b * ks[i][idx] for i, b in enumerate(RKF_B4))
        for idx, x in enumerate(state)
    ]
    fifth = [
        x + h * left_sum(b * ks[i][idx] for i, b in enumerate(RKF_B5))
        for idx, x in enumerate(state)
    ]
    error = max(abs(a - b) for a, b in zip(fourth, fifth))
    return fifth, error


def dense_invariant(candidate: QuadraticCandidate):
    """Oracle for `compile_invariant`: the dense double loop over Q."""
    q = [[float(v) for v in row] for row in candidate.q]
    linear = [float(v) for v in candidate.linear]
    constant = float(candidate.constant)
    n = candidate.dim

    def value(state: Sequence[float]) -> float:
        total = constant
        for i in range(n):
            xi = state[i]
            total += linear[i] * xi
            for j in range(n):
                total += q[i][j] * xi * state[j]
        return total

    return value


def reference_integrate(
    system: PolynomialSystem,
    x0: Sequence[float],
    config: SimConfig,
    invariant: QuadraticCandidate | None = None,
) -> Trajectory:
    """Oracle for `integrate` on valid input: closures, list copies and the
    per-component steps above, counting rejected and forced RKF45 steps."""
    state = [float(v) for v in x0]
    rhs = compile_rhs(system)
    v_func = dense_invariant(invariant) if invariant is not None else None
    v0 = v_func(state) if v_func is not None else None
    traj = Trajectory(
        variables=system.variables,
        times=[0.0],
        states=[list(state)],
        invariant_values=[v0] if v_func is not None else None,
    )

    def check_state(new_state, t_new, t_old):
        for value in new_state:
            if not math.isfinite(value):
                raise SimulationError("state became nonfinite (blow-up)", t_old)
        adjusted = list(new_state)
        for i, value in enumerate(adjusted):
            if value < 0:
                if value < -CLAMP_TOLERANCE:
                    raise SimulationError(
                        f"component {system.variables[i]} went negative ({value:.3e})",
                        t_old,
                    )
                traj.positivity_events.append((t_new, i, value))
                adjusted[i] = 0.0
        return adjusted

    def project(new_state):
        if config.projection != "level_set" or v0 is None or v0 <= 0:
            return new_state
        current = v_func(new_state)
        if current <= 0:
            return new_state
        scale = math.sqrt(v0 / current)
        return [scale * v for v in new_state]

    def record(t, accepted_steps, final):
        if final or accepted_steps % config.stride == 0:
            if final and traj.times and traj.times[-1] == t:
                return
            traj.times.append(t)
            traj.states.append(list(state))
            if v_func is not None:
                traj.invariant_values.append(v_func(state))

    t = 0.0
    accepted = 0
    t_end = config.t_end
    eps = 1e-12 * max(1.0, t_end)
    if config.method == "rk4_fixed":
        h = config.step
        while t < t_end - eps:
            step_h = min(h, t_end - t)
            try:
                new_state = rk4_step(rhs, state, step_h)
            except OverflowError:
                raise SimulationError("state became nonfinite (blow-up)", t) from None
            new_t = t + step_h
            state = project(check_state(new_state, new_t, t))
            t = new_t
            accepted += 1
            record(t, accepted, final=t >= t_end - eps)
    else:
        h = min(config.step, t_end)
        h_min = 1e-12 * t_end
        while t < t_end - eps:
            step_h = min(h, t_end - t)
            try:
                new_state, error = rkf45_step(rhs, state, step_h)
            except OverflowError:
                raise SimulationError("state became nonfinite (blow-up)", t) from None
            scale = config.tolerance * max(
                1.0, max((abs(v) for v in state), default=1.0)
            )
            if error <= scale or step_h <= h_min:
                if not error <= scale:
                    traj.forced_accepts += 1
                new_t = t + step_h
                state = project(check_state(new_state, new_t, t))
                t = new_t
                accepted += 1
                record(t, accepted, final=t >= t_end - eps)
            else:
                traj.rejected_steps += 1
            if error != 0:
                factor = 0.9 * (scale / error) ** 0.2
                h = step_h * min(5.0, max(0.2, factor))
            else:
                h = step_h * 5.0
            if h < h_min:
                raise SimulationError("step size underflow", t)
    return traj
