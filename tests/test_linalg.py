import copy
import math
import random
import subprocess
import sys
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

import crnkit.linalg
from crnkit import (
    find_quadratic_first_integrals,
    induced_kinetic_ode,
    kinetic_conservation,
    parse_system,
    stoichiometric_conservation,
)
from crnkit.conservation import lie_derivative_rows
from crnkit.linalg import (
    ProofCheckError,
    _back_substitute,
    _eliminate,
    _integer_rows,
    _reduce,
    nullspace_basis,
    positive_vector_in_span,
    symmetric_inertia,
)

from .support import (
    combine_units,
    dense_nullspace_basis,
    dense_rref,
    gauss_jordan_reduce,
    leading_sign_normalized,
    matvec,
    random_network,
    reference_inertia,
    rref,
    sparse_rows,
    split_positive_vector_in_span,
    unit_candidates,
    unit_lie_derivative_matrix,
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
    # a bad column is left alone in a pending row, kept in a placed row, or
    # both, whether the matrix is read as ints or scaled from other values
    bad_rows = (
        {3: F(1)}, {-1: F(2), 0: F(1)}, {1: F(1), 5: 3}, {0: F(1), -2: F(1, 2)},
        {3: 1}, {-1: 2, 0: 1}, {1: 1, 7: -4}, {0: True, -2: True},
    )
    for row in bad_rows:
        for rows in ([{0: F(1)}, row], [{0: 1}, row], [row], [row, dict(row)]):
            with pytest.raises(ValueError) as info:
                nullspace_basis(rows, 3)
            assert str(info.value) == "column index out of range for 3 columns"
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


_SPARSE_ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.sampled_from([10007, 65537, 2**61 - 1])),
)


@st.composite
def sparse_matrices(draw):
    """Sparse rows of int and Fraction entries over 1-9 columns: tall, wide or
    rank-deficient, with zero, duplicate and combined rows, explicit zeros, and
    now and then an entry in a column outside 0..ncols-1."""
    ncols = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["tall", "wide", "deficient"]))
    count = {"tall": ncols + 3, "wide": max(1, ncols - 2), "deficient": max(1, ncols // 2)}[shape]
    column = st.integers(0, ncols - 1)
    rows = [
        draw(st.dictionaries(column, _SPARSE_ENTRIES, max_size=min(ncols, 4)))
        for _ in range(draw(st.integers(0, count)))
    ]
    if shape == "tall" and draw(st.booleans()):
        rows += [{j: 1} for j in range(ncols)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            rows.append({})
        elif kind == 1 and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(_SPARSE_ENTRIES), draw(_SPARSE_ENTRIES)
            rows.append({j: c * a.get(j, 0) + d * b.get(j, 0) for j in a.keys() | b.keys()})
    draw(st.randoms()).shuffle(rows)
    if rows and draw(st.integers(0, 7)) == 0:
        outside = draw(st.sampled_from([-1, ncols, ncols + 3]))
        draw(st.sampled_from(rows))[outside] = draw(st.sampled_from([0, 1, F(-2, 3)]))
    return rows, ncols


def _outcome(run, *args):
    try:
        return run(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@settings(max_examples=400, deadline=None)
@given(matrix=sparse_matrices())
def test_kernel_matches_the_gauss_jordan_oracle(matrix):
    """Forward elimination plus the back pass where it is needed gives what one
    Gauss-Jordan pass gave: pivots, reduced rows up to sign, bases, witnesses,
    certificates and errors."""
    rows, ncols = matrix
    expected = _outcome(gauss_jordan_reduce, rows, ncols)
    got = _outcome(_reduce, rows, ncols)
    if expected[0] == "ValueError":
        assert got == expected
    else:
        (placed, pivots), (oracle_rows, oracle_pivots) = got, expected
        assert pivots == oracle_pivots
        _back_substitute(placed, pivots)
        for row, oracle_row in zip(placed, oracle_rows):
            assert row == oracle_row or row == {j: -v for j, v in oracle_row.items()}

    basis = _outcome(nullspace_basis, rows, ncols)
    vectors = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    positivity = _outcome(positive_vector_in_span, vectors, ncols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crnkit.linalg, "_reduce", gauss_jordan_reduce)
        mp.setattr(crnkit.linalg, "_back_substitute", lambda placed, pivots: None)
        assert basis == _outcome(nullspace_basis, rows, ncols)
        assert positivity == _outcome(positive_vector_in_span, vectors, ncols)


@st.composite
def unit_ratio_inputs(draw):
    """A 0-9 by 1-8 matrix and a symmetric matrix of order 1-7, with entries in
    -2..2, so that most pivot ratios are units and most steps scale no row."""
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=9))
    size = draw(st.integers(1, 7))
    upper = [[draw(entry) for _ in range(size)] for _ in range(size)]
    symmetric = [[upper[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
    return rows, ncols, symmetric


@settings(max_examples=300, deadline=None)
@given(unit_ratio_inputs())
def test_rows_are_primitive_where_they_are_placed(case):
    """A step whose pivot ratio is a unit leaves the content in the row, so
    `_reduce` makes each row primitive where it places it and `_back_substitute`
    where it finishes it; the answers still match the dense oracles."""
    rows, ncols, symmetric = case
    placed, pivots = _reduce(sparse_rows(rows), ncols)
    assert all(math.gcd(*row.values()) == 1 for row in placed)
    _back_substitute(placed, pivots)
    assert all(math.gcd(*row.values()) == 1 for row in placed)
    assert all(
        row[col] and all(j == col or j not in pivots for j in row)
        for row, col in zip(placed, pivots)
    )

    assert nullspace_basis(sparse_rows(rows), ncols) == [
        list(leading_sign_normalized(vec))
        for vec in dense_nullspace_basis(frac_matrix(rows), ncols)
    ]
    result = positive_vector_in_span(rows, ncols)
    assert result.feasible == split_positive_vector_in_span(rows, ncols).feasible
    assert_positivity_proof(result, rows, ncols)
    assert symmetric_inertia(symmetric) == reference_inertia(symmetric)


def _primitive_form(row):
    return {j: v // math.gcd(*row.values()) for j, v in row.items()}


def _inertia_matrix(rows, n):
    """A symmetric matrix that carries `rows`: the first fills row and column 0,
    the others the diagonal, one entry each."""
    m = [[0] * n for _ in range(n)]
    if rows:
        for j in range(n):
            m[0][j] = m[j][0] = rows[0].get(j, 0)
    for i, row in enumerate(rows[1:], 1):
        m[i][i] = row.get(i, 0)
    return m


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.dictionaries(st.integers(0, 8), st.integers(-(2**70), 2**70), max_size=6), max_size=4
))
def test_integer_rows_take_the_same_path_as_equal_fraction_rows(rows):
    """An int row and its Fraction copy enter as equal int rows, and the copy
    divided by 7 enters as a positive multiple of the same primitive row, so
    all three give the same answers.  No row is made primitive on entry."""
    as_fractions = [{j: Fraction(v) for j, v in row.items()} for row in rows]
    scaled = [{j: Fraction(v, 7) for j, v in row.items()} for row in rows]
    entered = _integer_rows(rows)
    assert entered == [{j: v for j, v in row.items() if v} for row in rows]
    assert _integer_rows(as_fractions) == entered
    for row, scaled_row in zip(entered, _integer_rows(scaled)):
        assert all(type(v) is int for v in scaled_row.values())
        assert scaled_row.keys() == row.keys()
        if row:
            assert _primitive_form(scaled_row) == _primitive_form(row)
            j = next(iter(row))
            assert (scaled_row[j] > 0) == (row[j] > 0)

    def answers(rows):
        dense = [[row.get(j, 0) for j in range(9)] for row in rows]
        return (
            nullspace_basis(rows, 9),
            positive_vector_in_span(dense, 9),
            symmetric_inertia(_inertia_matrix(rows, 9)),
        )

    assert answers(rows) == answers(as_fractions) == answers(scaled)


@pytest.mark.parametrize(
    "text, zero_row, rendered",
    [
        # X -> 2X, Y -> 0: the two x*y terms of the x*y unit cancel
        ("vars x y\nx\n-y\n", {1: 0}, ["2*x*y"]),
        ("vars x y\nx + x*y\n-y\n", {1: 0, 3: 1}, []),
    ],
)
def test_cancelled_builder_entries_reach_the_kernel_as_zeros(text, zero_row, rendered):
    """The row builder leaves an entry whose terms cancel as an explicit 0;
    the kernel drops it on entry and answers as the dense Fraction oracle."""
    system = parse_system(text)
    n = system.dim
    units = [(i, j) for i in range(n) for j in range(i, n)] + [(i,) for i in range(n)]
    assert zero_row in lie_derivative_rows(system, units)
    basis = find_quadratic_first_integrals(system).basis
    assert [c.render(system.variables) for c in basis] == rendered
    candidates = unit_candidates(n, diagonal_only=False)
    oracle = dense_nullspace_basis(unit_lie_derivative_matrix(system, candidates), len(candidates))
    assert basis == tuple(combine_units(candidates, leading_sign_normalized(w)) for w in oracle)


@st.composite
def unit_row_matrices(draw):
    """A 1-8 column matrix in which at least half the rows have one entry,
    entries in -2..2, and a diagonal-heavy symmetric matrix of order 1-8."""
    ncols = draw(st.integers(1, 8))
    entry = st.integers(-2, 2).filter(bool)
    column = st.integers(0, ncols - 1)
    single = st.dictionaries(column, entry, min_size=1, max_size=1)
    singles = draw(st.lists(single, min_size=1, max_size=8))
    others = draw(st.lists(st.dictionaries(column, entry, max_size=ncols), max_size=len(singles)))
    rows = singles + others
    draw(st.randoms()).shuffle(rows)
    size = draw(st.integers(1, 8))
    symmetric = [[0] * size for _ in range(size)]
    for i in range(size):
        symmetric[i][i] = draw(st.integers(-2, 2))
        for j in range(i + 1, size):
            if draw(st.integers(0, 4)) == 0:
                symmetric[i][j] = symmetric[j][i] = draw(entry)
    return rows, ncols, symmetric


@settings(max_examples=300, deadline=None)
@given(unit_row_matrices())
def test_unit_pivot_rows_give_the_oracle_answers(case):
    """Pivot rows with one entry clear their column by deletion in the
    forward and back passes, the phase-1 tableau and the inertia count."""
    rows, ncols, symmetric = case
    placed, pivots = _reduce(rows, ncols)
    oracle_rows, oracle_pivots = gauss_jordan_reduce(rows, ncols)
    assert pivots == oracle_pivots
    _back_substitute(placed, pivots)
    for row, oracle_row in zip(placed, oracle_rows):
        assert row == oracle_row or row == {j: -v for j, v in oracle_row.items()}
    dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    result = positive_vector_in_span(dense, ncols)
    assert result.feasible == split_positive_vector_in_span(dense, ncols).feasible
    assert_positivity_proof(result, dense, ncols)
    assert symmetric_inertia(symmetric) == reference_inertia(symmetric)


@pytest.mark.parametrize("pivot", [1, -1, 3, -3])
def test_a_unit_pivot_row_clears_its_column_by_deletion(pivot):
    row = {0: 4, 2: 6, 5: -2}
    assert _eliminate(row, {2: pivot}, 2) is row
    assert row == {0: 4, 5: -2}


_ACCEPTED_ROWS = [{0: 1, 1: -1, 3: 2}, {1: 2, 2: -2}, {0: 3, 2: 0, 3: 6}, {}]


@pytest.mark.parametrize(
    "variant",
    [
        pytest.param(lambda rows: (row for row in rows), id="generator"),
        pytest.param(lambda rows: [MappingProxyType(row) for row in rows], id="mapping-proxy"),
        pytest.param(
            lambda rows: [{j: True if v == 1 else v for j, v in row.items()} for row in rows],
            id="bool",
        ),
        pytest.param(
            lambda rows: [{j: F(v) if j % 2 else v for j, v in row.items()} for row in rows],
            id="mixed",
        ),
        pytest.param(
            lambda rows: [{**row, 4: 0, 5: F(0)} for row in rows] + [{1: False}],
            id="zeros",
        ),
    ],
)
def test_every_accepted_row_form_enters_as_plain_int_rows(variant):
    """The entry pass reads the rows twice and every value's type at once; a
    generator, read-only mappings, bool, mixed and zero values all enter as
    the plain int rows do."""
    expected = _integer_rows(_ACCEPTED_ROWS)
    assert [row for row in _integer_rows(variant(_ACCEPTED_ROWS)) if row] == [
        row for row in expected if row
    ]
    dense = [[row.get(j, 0) for j in range(6)] for row in _ACCEPTED_ROWS]
    assert nullspace_basis(variant(_ACCEPTED_ROWS), 6) == [
        list(leading_sign_normalized(vec)) for vec in dense_nullspace_basis(dense, 6)
    ]
    assert _reduce(variant(_ACCEPTED_ROWS), 6) == _reduce(_ACCEPTED_ROWS, 6)


@st.composite
def primitive_int_inputs(draw):
    """Primitive int rows over 1-6 columns, a symmetric int matrix, and a seed
    for `random_network`."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-6, 6).filter(bool)
    raw = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1), max_size=7))
    rows = [{j: v // math.gcd(*row.values()) for j, v in row.items()} for row in raw]
    size = draw(st.integers(1, 5))
    upper = [[draw(st.integers(-3, 3)) for _ in range(size)] for _ in range(size)]
    symmetric = [[upper[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
    return rows, ncols, symmetric, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(primitive_int_inputs())
def test_exact_routines_leave_their_inputs_alone(case):
    """The elimination updates the rows it is given, so every routine must
    pass it copies: inputs that are already primitive int rows come back
    equal to deep copies taken before the call."""
    rows, ncols, symmetric, seed = case
    dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
    before = copy.deepcopy((rows, dense, symmetric))
    nullspace_basis(rows, ncols)
    positive_vector_in_span(dense, ncols)
    symmetric_inertia(symmetric)
    assert (rows, dense, symmetric) == before

    network = random_network(random.Random(seed), conserving=seed % 2 == 0)
    system = induced_kinetic_ode(network)
    before = copy.deepcopy((
        [dict(step.net_change) for step in network.steps],
        [dict(component.terms()) for component in system.components],
    ))
    stoichiometric_conservation(network)
    kinetic_conservation(system)
    find_quadratic_first_integrals(system)
    find_quadratic_first_integrals(system, "positive-diagonal")
    assert (
        [dict(step.net_change) for step in network.steps],
        [dict(component.terms()) for component in system.components],
    ) == before


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


@pytest.mark.parametrize("matrix", [[[1, 2], []], [[1, 2, 3], [2, 1, 0], [3]]])
def test_inertia_refuses_a_row_too_short_for_the_symmetry_check(matrix):
    # row 0 is compared with column 0 before the short row's length is checked
    with pytest.raises(ValueError, match="matrix is not square"):
        symmetric_inertia(matrix)


@pytest.mark.parametrize(
    "vectors, dim, message",
    [
        pytest.param([], 0, "dimension must be positive", id="dimension"),
        pytest.param([[F(1), F(2)]], 3, "spanning vector has wrong length", id="length"),
    ],
)
def test_malformed_span_input_is_refused(vectors, dim, message):
    with pytest.raises(ValueError) as info:
        positive_vector_in_span(vectors, dim)
    assert type(info.value) is ValueError
    assert str(info.value) == message
