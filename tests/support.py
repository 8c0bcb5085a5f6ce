"""Shared helpers for randomized tests: generators and independent oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Sequence

from crnkit import (
    Polynomial,
    PolynomialSystem,
    QuadraticCandidate,
    ReactionNetwork,
    lie_derivative,
)
from crnkit.network import Complex, ReactionStep

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


def unit_lie_derivative_matrix(
    system: PolynomialSystem, units: list[QuadraticCandidate]
) -> list[list[Fraction]]:
    """Oracle for the first-integral constraint matrix.

    Applies `lie_derivative` to every unit candidate and reads the
    coefficients back, one row per monomial in sorted order.
    """
    lies = [lie_derivative(unit, system) for unit in units]
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
