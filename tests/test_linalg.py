import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crnkit.linalg import (
    ProofCheckError,
    nullspace_basis,
    positive_vector_in_span,
    symmetric_inertia,
)

from .support import (
    dense_nullspace_basis,
    dense_rref,
    leading_sign_normalized,
    matvec,
    reference_inertia,
    rref,
    sparse_rows,
    split_positive_vector_in_span,
)


F = Fraction


def frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_rref_identity():
    reduced, pivots = rref(frac_matrix([[2, 0], [0, 3]]))
    assert reduced == frac_matrix([[1, 0], [0, 1]])
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    reduced, pivots = rref(frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    assert pivots == [0, 1]
    assert reduced[2] == [Fraction(0)] * 3


def test_nullspace_orthogonal_to_rows():
    rng = random.Random(11)
    for _ in range(30):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        basis = nullspace_basis(sparse_rows(rows), ncols)
        _, pivots = rref([row[:] for row in rows])
        assert len(basis) == ncols - len(pivots)
        for vec in basis:
            assert all(v == 0 for v in matvec(rows, vec))


def test_nullspace_empty_rows_is_identity():
    basis = nullspace_basis([], 3)
    assert len(basis) == 3
    assert basis[0][0] == 1 and basis[1][1] == 1 and basis[2][2] == 1


def test_nullspace_no_rows_no_columns():
    assert nullspace_basis([], 0) == []


def test_nullspace_all_zero_rows_is_identity():
    rows = [[0, Fraction(0), 0], [Fraction(0)] * 3]
    identity = frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert nullspace_basis(sparse_rows(rows), 3) == identity
    reduced, pivots = rref(rows)
    assert reduced == frac_matrix([[0, 0, 0], [0, 0, 0]])
    assert pivots == []


def test_out_of_range_column_raises():
    # a bad column is left alone in a pending row, kept in a placed row, or both
    for row in ({3: F(1)}, {-1: F(2), 0: F(1)}, {1: F(1), 5: 3}, {0: F(1), -2: F(1, 2)}):
        for rows in ([{0: F(1)}, row], [row], [row, dict(row)]):
            with pytest.raises(ValueError, match="out of range"):
                nullspace_basis(rows, 3)
    # a zero value is skipped wherever it is
    assert nullspace_basis([{2: F(1), 7: 0}, {}], 3) == frac_matrix([[1, 0, 0], [0, 1, 0]])


_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
)


@st.composite
def rational_matrices(draw):
    """0-12 rows of 0-10 rational columns, with zero and repeated rows."""
    ncols = draw(st.integers(0, 10))
    sparse = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 5))
        if kind == 0 and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == 1:
            rows.append([0] * ncols)
        else:
            rows.append([
                draw(_ENTRIES) if not sparse or draw(st.integers(0, 4)) == 0 else 0
                for _ in range(ncols)
            ])
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(matrix=rational_matrices())
def test_elimination_matches_dense_fraction_oracle(matrix):
    rows, ncols = matrix
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == dense_rref(rows)
    basis = nullspace_basis(sparse_rows(rows), ncols)
    assert basis == [
        list(leading_sign_normalized(vec)) for vec in dense_nullspace_basis(rows, ncols)
    ]
    entries = [x for row in reduced for x in row] + [x for vec in basis for x in vec]
    assert all(type(x) is Fraction for x in entries)


def test_rref_fixed_cases_against_sympy():
    sympy = pytest.importorskip("sympy")
    cases = [
        [[2, 4, -2, 0], [1, 2, 0, 3], [3, 6, -2, 3]],
        [[F(1, 2), F(-3, 7), 0], [0, F(5, 6), F(2, 3)], [F(1, 4), 0, F(-1, 5)]],
        [[0, 0, 6, -9, 3], [0, 4, 0, 2, F(1, 3)], [0, 2, 3, F(-7, 2), 0], [0, 0, 0, 0, 0]],
        [[7, -14, 21], [F(-1, 3), F(2, 3), -1], [5, 1, 0], [0, 11, -15]],
        [[1, 0, 0, 0, 2, 0], [0, 0, 3, 0, 0, -1], [0, 5, 0, 0, 0, 0], [1, 0, 3, 0, 2, -1]],
    ]
    for rows in cases:
        expected, expected_pivots = sympy.Matrix(
            [[sympy.Rational(F(v).numerator, F(v).denominator) for v in row] for row in rows]
        ).rref()
        reduced, pivots = rref(rows)
        assert pivots == list(expected_pivots)
        assert reduced == [
            [F(int(v.p), int(v.q)) for v in expected.row(i)] for i in range(len(rows))
        ]


def test_positive_vector_simple_span():
    # span of (1,-1) and (1,1) contains (2,0)... but we need strictly positive
    vectors = [
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(1)),
    ]
    result = positive_vector_in_span(vectors, 2)
    assert result.feasible
    assert all(v >= 1 for v in result.vector)


def test_positive_vector_infeasible_has_certificate():
    # span of (1,-1): any element has entries of opposite signs
    vectors = [(Fraction(1), Fraction(-1))]
    result = positive_vector_in_span(vectors, 2)
    assert not result.feasible
    cert = result.certificate
    assert any(v != 0 for v in cert)
    assert all(v >= 0 for v in cert)
    assert sum(c * v for c, v in zip(cert, vectors[0])) == 0


def test_positive_vector_empty_span():
    result = positive_vector_in_span([], 2)
    assert not result.feasible


def test_positive_vector_randomized_against_scipy():
    scipy = pytest.importorskip("scipy")
    from scipy.optimize import linprog
    import numpy as np

    rng = random.Random(42)
    for _ in range(40):
        dim = rng.randint(1, 5)
        count = rng.randint(1, 4)
        vectors = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
            for _ in range(count)
        ]
        result = positive_vector_in_span(vectors, dim)
        # LP: find lambda with N lambda >= 1 (feasibility via zero objective)
        n_mat = np.array([[float(vec[i]) for vec in vectors] for i in range(dim)])
        lp = linprog(
            c=np.zeros(count),
            A_ub=-n_mat,
            b_ub=-np.ones(dim),
            bounds=[(None, None)] * count,
            method="highs",
        )
        assert result.feasible == lp.success
        if result.feasible:
            assert all(v > 0 for v in result.vector)
            # membership: appending the solution must not raise the rank
            base = [list(vec) for vec in vectors]
            _, pivots = rref([row[:] for row in base])
            _, pivots_ext = rref([row[:] for row in base] + [list(result.vector)])
            assert len(pivots) == len(pivots_ext)


def assert_positivity_proof(result, vectors, dim):
    """The witness is coprime integers >= 1 in the span, or the certificate separates it."""
    if result.feasible:
        assert result.certificate is None
        assert len(result.vector) == dim
        assert all(type(x) is Fraction and x >= 1 for x in result.vector)
        assert all(x.denominator == 1 for x in result.vector)
        assert math.gcd(*(x.numerator for x in result.vector)) == 1
        _, pivots = rref(vectors)
        _, pivots_ext = rref(list(vectors) + [list(result.vector)])
        assert len(pivots_ext) == len(pivots)
    else:
        cert = result.certificate
        assert len(cert) == dim
        assert all(type(y) is Fraction and y >= 0 for y in cert)
        assert any(y > 0 for y in cert)
        assert all(v == 0 for v in matvec(vectors, cert))


@st.composite
def spanning_sets(draw):
    """dim 1-8 and 0-6 rational vectors, with zero, repeated and dependent ones."""
    dim = draw(st.integers(1, 8))
    vectors = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 5))
        if kind == 0 and vectors:
            vectors.append(list(draw(st.sampled_from(vectors))))
        elif kind == 1:
            vectors.append([0] * dim)
        elif kind == 2 and len(vectors) >= 2:
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            c, d = draw(_ENTRIES), draw(_ENTRIES)
            vectors.append([c * x + d * y for x, y in zip(a, b)])
        else:
            vectors.append([draw(_ENTRIES) for _ in range(dim)])
    return vectors, dim


@settings(max_examples=400, deadline=None)
@given(span=spanning_sets())
def test_positivity_matches_split_variable_oracle(span):
    vectors, dim = span
    result = positive_vector_in_span(vectors, dim)
    assert result.feasible == split_positive_vector_in_span(vectors, dim).feasible
    assert_positivity_proof(result, vectors, dim)


def test_positivity_full_rank_span_gives_all_ones():
    vectors = [[F(1, 2), 3, -1], [0, -2, 5], [7, 0, F(-1, 3)]]
    result = positive_vector_in_span(vectors, 3)
    assert result.vector == (1, 1, 1)


@pytest.mark.parametrize("vectors", [[], [[0, 0, 0]], [[0, F(0), 0], [0, 0, 0]]])
def test_positivity_empty_and_zero_spans_are_refuted(vectors):
    result = positive_vector_in_span(vectors, 3)
    assert result.certificate == (1, 1, 1)
    assert_positivity_proof(result, vectors, 3)


def test_positivity_in_one_dimension():
    assert positive_vector_in_span([[F(-2, 3)]], 1).vector == (1,)
    assert positive_vector_in_span([[0], [F(5)]], 1).vector == (1,)
    assert positive_vector_in_span([[0]], 1).certificate == (1,)
    assert positive_vector_in_span([], 1).certificate == (1,)


def test_positivity_with_entries_near_two_to_the_64():
    big = 2**64
    cases = [
        ([[big - 1, -(big + 1), 3], [1, 1, big]], 3, True),
        ([[big + 1, -(big - 1)]], 2, False),
        ([[F(big, big - 1), -F(big + 1, 3), 1], [1, big, -F(1, big)]], 3, True),
        ([[F(big, big - 1), -F(big + 1, 3), 1], [big, big, -(big - 3)]], 3, False),
        ([[big, -big, 0], [0, big, -big]], 3, False),
    ]
    for vectors, dim, feasible in cases:
        result = positive_vector_in_span(vectors, dim)
        assert result.feasible == feasible
        assert result.feasible == split_positive_vector_in_span(vectors, dim).feasible
        assert_positivity_proof(result, vectors, dim)


TAMPERED_CERTIFICATE_SCRIPT = """
import crnkit.linalg as linalg
assert not __debug__
phase1 = linalg._phase1
for tamper in (lambda z: [-v for v in z], lambda z: [0] * len(z)):
    def tampered(rows, rhs, nvars, tamper=tamper):
        s, z = phase1(rows, rhs, nvars)
        return s, tamper(z)
    linalg._phase1 = tampered
    try:
        linalg.positive_vector_in_span([(1, -1, 0), (0, 2, -1)], 3)
    except linalg.ProofCheckError as exc:
        print(exc)
"""


def test_tampered_reduced_costs_fail_the_proof_check_under_optimization(monkeypatch):
    import crnkit.linalg

    phase1 = crnkit.linalg._phase1
    monkeypatch.setattr(
        crnkit.linalg,
        "_phase1",
        lambda rows, rhs, nvars: (None, [-v for v in phase1(rows, rhs, nvars)[1]]),
    )
    with pytest.raises(ProofCheckError, match="nonnegative and nonzero"):
        positive_vector_in_span([(1, -1)], 2)
    result = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_CERTIFICATE_SCRIPT],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["certificate must be nonnegative and nonzero"] * 2


def test_inertia_diagonal():
    m = frac_matrix([[2, 0], [0, -3]])
    assert symmetric_inertia(m) == (1, 0, 1)


def test_inertia_semidefinite():
    m = frac_matrix([[1, 1], [1, 1]])
    assert symmetric_inertia(m) == (1, 1, 0)


def test_inertia_zero_diagonal_indefinite():
    # xy form: eigenvalues +-1/2
    m = frac_matrix([[0, 1], [1, 0]])
    assert symmetric_inertia(m) == (1, 0, 1)


def test_inertia_randomized_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-2, 2))
                m[i][j] = v
                m[j][i] = v
        pos, zero, neg = symmetric_inertia(m)
        sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(m[i][j]))
        lam = sympy.Symbol("lam")
        coeffs = sympy.Poly(sm.charpoly(lam).as_expr(), lam).all_coeffs()
        # symmetric matrices have real spectrum, so Descartes' rule is exact:
        # positive roots = sign changes, zero roots = trailing zeros
        s_zero = 0
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
            s_zero += 1
        nonzero = [c for c in coeffs if c != 0]
        s_pos = sum(
            1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0)
        )
        s_neg = n - s_pos - s_zero
        assert (pos, zero, neg) == (s_pos, s_zero, s_neg)


# small rationals, ints and Fractions mixed
INERTIA_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of order 0 to 9: dense or sparse, with a zero
    diagonal, of low rank (a signed sum of k < n squares), or all zero."""
    n = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["dense", "sparse", "zero diagonal", "low rank", "zero"]))
    m = [[0] * n for _ in range(n)]
    if kind == "low rank":
        for _ in range(draw(st.integers(0, max(n - 1, 0)))):
            v = draw(st.lists(INERTIA_ENTRIES, min_size=n, max_size=n))
            sign = draw(st.sampled_from([1, -1]))
            for i in range(n):
                for j in range(n):
                    m[i][j] += sign * v[i] * v[j]
        return m
    if kind == "zero":
        return m
    for i in range(n):
        for j in range(i, n):
            if i == j and kind == "zero diagonal":
                continue
            if kind == "sparse" and draw(st.integers(0, 3)):
                continue
            m[i][j] = m[j][i] = draw(INERTIA_ENTRIES)
    return m


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_inertia_matches_the_dense_fraction_reference(m):
    pos, zero, neg = symmetric_inertia(m)
    assert (pos, zero, neg) == reference_inertia(m)
    assert pos + zero + neg == len(m)


def test_inertia_of_all_zero_and_empty_matrices():
    assert symmetric_inertia([]) == (0, 0, 0)
    for n in range(1, 4):
        assert symmetric_inertia([[F(0)] * n for _ in range(n)]) == (0, n, 0)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1, 2, 3], [2, 1]], "not square"),
        ([[1, 2], [3]], "not symmetric"),  # row 0 is checked against column 0 first
        ([[1, 2], [2]], "not square"),
        ([[1, 2], [2, 1], [0, 0]], "not square"),
        ([[0, 1, 2], [1, 0, 3], [2, 4, 0]], "not symmetric"),
    ],
)
def test_inertia_refuses_bad_shapes_in_order(matrix, message):
    for inertia in (symmetric_inertia, reference_inertia):
        with pytest.raises(ValueError, match=f"matrix is {message}"):
            inertia(matrix)
