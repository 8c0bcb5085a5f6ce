"""Acceptance gate: nine pinned criteria, one printed verdict line each.

Each test prints `criterion N: PASS - ...` (or FAIL) through the capture
plugin so the lines stay visible under plain `pytest -v`.  Tolerances and
expected values are frozen here on purpose; loosening them is an API break.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from crnkit import (
    BinaryFormParams,
    ConservationVector,
    DiagonalParams,
    Polynomial,
    PolynomialSystem,
    QuadraticCandidate,
    SimConfig,
    canonical_realization,
    diagonal_collapse_check,
    drift_report,
    equilibria_on_line_check,
    find_quadratic_first_integrals,
    generate_binary_form_system,
    generate_diagonal_system,
    induced_kinetic_ode,
    integrate,
    is_first_integral,
    kinetic_conservation,
    kinetic_residual,
    lotka_volterra_log_check,
    negative_cross_effect,
    parse_network,
    solve_log_integral_family,
    stoichiometric_conservation,
    verify_conservation,
)
from crnkit.linalg import nullspace_basis

from .conftest import EXAMPLE_NETWORK_TEXT
from .support import (
    diagonal_representable_2d,
    quadratic_system_2d,
    random_network,
    signed_homogeneous_quadratics_2d,
)

F = Fraction


@contextmanager
def _criterion(capsys, number, description):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"\ncriterion {number}: {verdict} - {description}")


def _sys2(f1, f2):
    return PolynomialSystem.from_strings(("x", "y"), [f1, f2])


def test_criterion_01_example_round_trip(capsys):
    with _criterion(
        capsys, 1, "example network round trip is exact for rational rates"
    ):
        start = time.perf_counter()
        net = parse_network(EXAMPLE_NETWORK_TEXT)
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        for a, b in ((F(2), F(3)), (F(1, 3), F(7, 5)), (F(5), F(1, 2))):
            system = induced_kinetic_ode(net, {"a": a, "b": b})
            assert system.components == (y * y * a - x * y * b, x * x * b - x * y * a)
            realized = canonical_realization(system)
            assert induced_kinetic_ode(realized) == system
        assert time.perf_counter() - start < 1.0


def test_criterion_02_sign_pattern_classification(capsys):
    with _criterion(
        capsys, 2, "four-component fixture is kinetic for exactly one of 16 sign patterns"
    ):
        start = time.perf_counter()
        accepted = []
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
            is_kinetic = negative_cross_effect(system).is_kinetic
            assert is_kinetic == (d >= 0 and c >= 0 and a >= 0 and -b >= 0)
            if is_kinetic:
                accepted.append((d, c, a, b))
        assert accepted == [(1, 1, 1, -1)]
        assert time.perf_counter() - start < 1.0


def test_criterion_03_cascade_witness_modes(capsys, cascade_network, cascade_system):
    with _criterion(
        capsys, 3, "cascade witness is kinetic but not stoichiometric, residuals exact"
    ):
        start = time.perf_counter()
        rho = tuple(F(v) for v in (1, 2, 4, 1, 4, 5, 2, 2, 1))
        assert verify_conservation(ConservationVector(rho, "kinetic"), cascade_system)
        assert kinetic_residual(rho, cascade_system).is_zero()
        _, _, gamma = cascade_network.stoichiometric_matrices()
        residual = tuple(
            sum(rho[i] * gamma[i][j] for i in range(9)) for j in range(10)
        )
        assert residual == tuple(F(v) for v in (1, -1, 1, 0, 0, -1, 0, 0, 0, 0))
        assert not verify_conservation(
            ConservationVector(rho, "stoichiometric"), cascade_network
        )
        assert time.perf_counter() - start < 1.0


def test_criterion_04_generator_soundness_and_solver_completeness(capsys):
    with _criterion(
        capsys, 4,
        "diagonal generator sound on 1000 draws; solver matches the "
        "closed-form oracle on 42512 grid systems",
    ):
        rng = random.Random(20260823)
        for _ in range(1000):
            m = rng.randint(2, 4)
            weights = tuple(F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(m))
            coupling = tuple(
                tuple(
                    F(0) if i == j else F(rng.randint(0, 4), rng.choice((1, 2, 3)))
                    for j in range(m)
                )
                for i in range(m)
            )
            params = DiagonalParams(weights, coupling)
            system = generate_diagonal_system(params)
            assert negative_cross_effect(system).is_kinetic
            assert is_first_integral(params.invariant(), system)

        literal = [F(0), F(1, 2), F(1), F(2)]
        hits = 0
        for coeffs in product(literal, repeat=6):
            system = quadratic_system_2d(coeffs)
            found = find_quadratic_first_integrals(system, "positive-diagonal").found
            assert found == diagonal_representable_2d(system)
            hits += found
        # the nonnegative grid admits a diagonal integral only at zero
        assert hits == 1

        hits = 0
        for coeffs in signed_homogeneous_quadratics_2d():
            system = quadratic_system_2d(coeffs)
            found = find_quadratic_first_integrals(system, "positive-diagonal").found
            assert found == diagonal_representable_2d(system)
            hits += found
        # signed extension exercises both directions of the equivalence
        assert hits == 38


def _nonzero_diagonal_integral_exists(system):
    """Is there V = a1 x^2 + a2 y^2 with a1 != 0 and a2 != 0 conserved?

    The solutions form a linear subspace, so an all-nonzero vector exists
    exactly when neither coordinate vanishes on the whole basis.
    """
    lies = [
        lie_derivative_of_unit_square(system, 0),
        lie_derivative_of_unit_square(system, 1),
    ]
    monos = sorted({m for p in lies for m in p.monomials()})
    rows = [{j: p.coefficient(m) for j, p in enumerate(lies)} for m in monos]
    basis = nullspace_basis(rows, 2)
    return any(v[0] != 0 for v in basis) and any(v[1] != 0 for v in basis)


def lie_derivative_of_unit_square(system, index):
    from crnkit import lie_derivative

    coeffs = tuple(F(1) if i == index else F(0) for i in range(system.dim))
    return lie_derivative(QuadraticCandidate.diagonal(coeffs), system)


def test_criterion_05_conserving_collapse(capsys):
    with _criterion(
        capsys, 5,
        "kinetic conserving instances with the stated integrals collapse "
        "to zero (proportional template for the parabolic-plus family)",
    ):
        neg = (F(0), F(-1, 2), F(-1))
        sym = (F(0), F(1, 2), F(-1, 2), F(1), F(-1))
        pos = (F(0), F(1, 2), F(1))

        # planar conserving pairs: f2 is forced to be a negative multiple of
        # f1, and joint kineticity pins the sign of every f1 coefficient
        cases = 0
        for a1, b1, c1, d1, e1 in product(neg, sym, pos, neg, pos):
            f1 = (
                Polynomial.monomial(2, (2, 0), a1)
                + Polynomial.monomial(2, (1, 1), b1)
                + Polynomial.monomial(2, (0, 2), c1)
                + Polynomial.monomial(2, (1, 0), d1)
                + Polynomial.monomial(2, (0, 1), e1)
            )
            for rho in ((1, 1), (2, 1), (1, 2)):
                f2 = f1 * F(-rho[0], rho[1])
                system = PolynomialSystem(("x", "y"), (f1, f2))
                assert negative_cross_effect(system).is_kinetic
                assert kinetic_conservation(system) is not None
                zero = system.is_zero()
                diag = find_quadratic_first_integrals(system, "positive-diagonal")
                assert diag.found == zero
                assert _nonzero_diagonal_integral_exists(system) == zero
                assert diagonal_collapse_check(system).consistent
                cases += 1
        assert cases == 1215

        def conserving_iff_zero(params):
            system = generate_binary_form_system(params)
            assert negative_cross_effect(system).is_kinetic
            assert is_first_integral(params.invariant(), system)
            assert (kinetic_conservation(system) is not None) == system.is_zero()

        quarter = (F(0), F(1, 2), F(1), F(2))
        for a, b, c in ((F(2), F(1), F(3)), (F(1), F(-3), F(2)), (F(3), F(-1), F(1))):
            for k, l in product(quarter, repeat=2):
                conserving_iff_zero(
                    BinaryFormParams(
                        family="ellipse_hyperbola", a=a, b=b, c=c, k=k, l=l
                    )
                )

        binary = (F(0), F(1))
        signs = (F(-1), F(0), F(1))
        for a, b, c in ((F(1), F(1), F(1)), (F(4), F(2), F(1)), (F(1), F(2), F(4))):
            for k, l, m, n, r in product(binary, repeat=5):
                for s in signs:
                    conserving_iff_zero(
                        BinaryFormParams(
                            family="parabolic_minus",
                            a=a, b=b, c=c, k=k, l=l, m=m, n=n, r=r, s=s,
                        )
                    )

        third = (F(0), F(1, 2), F(1))
        for a, b, c in ((F(1), F(1), F(2)), (F(2), F(1), F(1)), (F(3), F(2), F(1))):
            for k, l, m in product(third, repeat=3):
                conserving_iff_zero(
                    BinaryFormParams(family="indefinite", a=a, b=b, c=c, k=k, l=l, m=m)
                )

        for a, b in ((F(1), F(1)), (F(2), F(1)), (F(1), F(3))):
            for k, m in product((F(0), F(1), F(2)), repeat=2):
                for s in signs:
                    conserving_iff_zero(
                        BinaryFormParams(family="rank_one", a=a, b=b, k=k, m=m, s=s)
                    )

        # parabolic-plus never collapses: it always conserves rho = (a, b)
        # and matches x' = rho2 g, y' = -rho1 g with the signed template g
        for a, b, c in ((F(1), F(1), F(1)), (F(4), F(2), F(1)), (F(1), F(2), F(4))):
            for k, l, m, n in product(binary, repeat=4):
                for s in signs:
                    params = BinaryFormParams(
                        family="parabolic_plus",
                        a=a, b=b, c=c, k=k, l=l, m=m, n=n, s=s,
                    )
                    system = generate_binary_form_system(params)
                    assert negative_cross_effect(system).is_kinetic
                    assert is_first_integral(params.invariant(), system)
                    witness = kinetic_conservation(system)
                    assert witness is not None
                    if not system.is_zero():
                        assert witness.rho[0] * b == witness.rho[1] * a
                    g = system.components[0] * (F(1) / b)
                    assert system.components[1] == g * (-a)
                    assert g.coefficient((2, 0)) <= 0
                    assert g.coefficient((1, 0)) <= 0
                    assert g.coefficient((0, 2)) >= 0
                    assert g.coefficient((0, 1)) >= 0
                    assert g.coefficient((0, 0)) == 0


def test_criterion_06_printed_planar_integrals(capsys):
    with _criterion(
        capsys, 6,
        "printed planar systems recover (2,1,3) definite and (1,-3,2) "
        "indefinite integrals; equilibria sit on y = x",
    ):
        start = time.perf_counter()
        ex6 = _sys2("-x^2 - 2*x*y + 3*y^2", "2*x^2 - x*y - y^2")
        report = find_quadratic_first_integrals(ex6)
        assert len(report.basis) == 1
        assert report.candidate.coefficient_vector() == [F(2), F(1), F(3), F(0), F(0)]
        assert report.signature == "definite"

        ex7 = _sys2("3*x^2 - 5*x*y + 2*y^2", "x^2 - 4*x*y + 3*y^2")
        report = find_quadratic_first_integrals(ex7)
        assert len(report.basis) == 1
        assert report.candidate.coefficient_vector() == [F(1), F(-3), F(2), F(0), F(0)]
        assert report.signature == "indefinite"

        params = BinaryFormParams(
            family="ellipse_hyperbola", a=F(2), b=F(1), c=F(3), k=F(1), l=F(1)
        )
        assert generate_binary_form_system(params) == ex6
        assert equilibria_on_line_check(params)
        assert time.perf_counter() - start < 1.0


def test_criterion_07_log_integral_family(capsys):
    with _criterion(
        capsys, 7,
        "log-integral family is one-dimensional and spanned by the printed system",
    ):
        start = time.perf_counter()
        basis = solve_log_integral_family()
        assert len(basis) == 1
        expected = _sys2("x*y - x", "-x*y + y")
        assert basis[0] == expected
        # pointwise cross-check of the defining identity on random rationals
        rng = random.Random(7)
        f1, f2 = basis[0].components
        for _ in range(25):
            p = F(rng.randint(1, 40), rng.randint(1, 9))
            q = F(rng.randint(1, 40), rng.randint(1, 9))
            value = q * (p - 1) * f1.evaluate([p, q]) + p * (q - 1) * f2.evaluate(
                [p, q]
            )
            assert value == 0
        assert lotka_volterra_log_check(_sys2("3*x*y - 3*x", "-3*x*y + 3*y"))
        assert not lotka_volterra_log_check(_sys2("x*y - x", "-x*y + 2*y"))
        assert time.perf_counter() - start < 1.0


def test_criterion_08_integration_drift(capsys, example_system):
    with _criterion(
        capsys, 8,
        "RK4 drift stays within 1e-6 on both conserved fixtures with an "
        "order-4 halving ratio",
    ):
        start = time.perf_counter()

        def max_drift(system, x0, invariant, step):
            config = SimConfig(method="rk4_fixed", step=step, t_end=10.0)
            return drift_report(integrate(system, x0, config, invariant))[
                "max_abs_drift"
            ]

        sphere2 = QuadraticCandidate.diagonal((F(1), F(1)))
        d1 = max_drift(example_system, [1.0, 0.0], sphere2, 1e-3)
        d2 = max_drift(example_system, [1.0, 0.0], sphere2, 5e-4)
        assert d1 <= 1e-6
        assert 8.0 <= d1 / d2 <= 32.0

        three = generate_diagonal_system(
            DiagonalParams(
                (F(1), F(1), F(1)),
                ((F(0), F(2), F(3)), (F(4), F(0), F(5)), (F(6), F(7), F(0))),
            )
        )
        sphere3 = QuadraticCandidate.diagonal((F(1), F(1), F(1)))
        half = 0.7071067811865476
        e1 = max_drift(three, [half, half, 0.0], sphere3, 1e-3)
        e2 = max_drift(three, [half, half, 0.0], sphere3, 5e-4)
        assert e1 <= 1e-6
        assert 8.0 <= e1 / e2 <= 32.0
        assert time.perf_counter() - start < 10.0


def test_criterion_09_stoichiometric_implies_kinetic(capsys):
    with _criterion(
        capsys, 9,
        "stoichiometric witnesses verify kinetically on 500 random networks",
    ):
        start = time.perf_counter()
        rng = random.Random(31)
        with_witness = 0
        for i in range(500):
            net = random_network(rng, conserving=bool(i % 2 == 0))
            witness = stoichiometric_conservation(net)
            if witness is None:
                continue
            with_witness += 1
            system = induced_kinetic_ode(net)
            assert verify_conservation(
                ConservationVector(witness.rho, "kinetic"), system
            )
        assert with_witness >= 100
        assert time.perf_counter() - start < 30.0
