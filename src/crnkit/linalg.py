"""Exact linear algebra over the rationals.

A linear constraint is a sparse row: a mapping from column index to
coefficient (an int or a Fraction).  Absent columns are 0, zero values are
skipped, and a nonzero value in a column outside 0..ncols-1 is a ValueError.
The elimination reads only their nonzero entries, never a dense row.

Null-space bases come from one fraction-free elimination over sparse
integer rows: the input is read in one pass per matrix, which copies each
row, int rows as they are and others scaled by the lcm of their
denominators, and from then on each row is updated in place, combined
with a pivot row by integer cross-multiplication, so no input is written
to.  A row is divided by the gcd of its entries (its content) only after
a step that scaled it, where it is placed as a pivot row, and where the
back pass finishes it, so every placed row is primitive.  A pivot row
with one entry clears its column by deleting that entry.  Only the
results are turned back into Fractions: each basis vector as coprime
integers with a positive first nonzero entry.  A forward
pass brings the rows to echelon form, which already gives the rank; a back
pass that clears the pivot columns above each pivot runs only when the
kernel is nonempty, or when a caller reads the reduced rows.  Whether a subspace
contains a strictly positive vector is decided by a fraction-free integer
phase-1 simplex over the reduced span: the same elimination step pivots a
tableau with one variable per pivot of the span and one constraint per
other coordinate.  The inertia of a symmetric matrix is counted by
congruence with the same step, over integer rows too.  All decisions are
exact; infeasible positivity queries come with a separating certificate
that is verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

SparseRow = Mapping[int, Fraction | int]


class ProofCheckError(AssertionError):
    """An exact answer failed the check of the proof that comes with it.

    Raised explicitly rather than through `assert`, so these checks also run
    under `python -O`.
    """


def check_proof(condition: bool, message: str) -> None:
    if not condition:
        raise ProofCheckError(message)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide `row` by its content (the gcd of its entries) in place; return it."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _integer_rows(rows: Iterable[SparseRow]) -> list[dict[int, int]]:
    """The nonzero entries of each sparse row as integers, in a new dict per row.

    The value types of the whole matrix are read in one pass: when they are
    all int, each row is copied as it is, without its zero entries.
    Otherwise each row is scaled by the lcm of its entries' denominators.
    No row is made primitive here; `_reduce` does that where it places one.
    """
    rows = list(rows)
    if set(map(type, chain.from_iterable(row.values() for row in rows))) <= {int}:
        return [
            dict(row) if 0 not in row.values() else {j: v for j, v in row.items() if v}
            for row in rows
        ]
    scaled = []
    for row in rows:
        entries = {j: v for j, v in row.items() if v}
        if entries:
            den = lcm(*(v.denominator for v in entries.values()))
            entries = {j: v.numerator * (den // v.denominator) for j, v in entries.items()}
        scaled.append(entries)
    return scaled


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """Clear column `col` of `row` against `pivot_row`, fraction-free.

    Computes (p/g) row - (a/g) pivot_row with p, a the two entries in `col`
    and g = gcd(p, a).  The content of the result is divided out only when
    |p/g| != 1, that is when `row` was scaled, so the result is a positive
    multiple of the primitive one; callers make a row primitive where they
    place it.  A pivot row whose one entry is p makes that combination p/g
    times `row` without column `col`, so the entry is deleted and nothing
    else is computed: a positive multiple again when p > 0, as in
    `_phase1` and `symmetric_inertia`, and one up to sign otherwise, which
    is all `_reduce` and `_back_substitute` need.  Updates `row` and
    returns it; callers pass rows they own.
    """
    if len(pivot_row) == 1:
        del row[col]
        return row
    p = pivot_row[col]
    a = row[col]
    g = gcd(p, a)
    p //= g
    a //= g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, v in pivot_row.items():
        value = row.get(j, 0) - a * v
        if value:
            row[j] = value
        else:
            del row[j]
    return row if p == 1 or p == -1 else _primitive(row)


def _reduce(
    rows: Sequence[SparseRow], ncols: int
) -> tuple[list[dict[int, int]], list[int]]:
    """Fraction-free forward elimination over sparse integer rows.

    Returns one primitive integer row per pivot and the pivot columns, in
    column order: a row echelon form, in which row i is nonzero in column
    pivots[i] and zero in every column left of it.  Each column is met by
    one scan of the rows not yet placed: the sparsest row nonzero there
    becomes its pivot row, which keeps fill-in low, and is made primitive,
    and the column is cleared from the others.  Rows enter as
    `_integer_rows` reads them, content and all: a row not yet placed is
    a positive multiple of its primitive form, and `_eliminate` divides the
    content out only after scaling the row, so the pivots and placed rows
    are those of primitive input rows.  A pivot row with one entry, which
    is then +-1, clears its column by deletion.  Rows above a pivot keep
    their entries in its column; `_back_substitute` clears them when a
    caller needs the reduced form.
    """
    pending = [row for row in _integer_rows(rows) if row]
    placed: list[dict[int, int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        if not pending:
            break
        hits = []
        remaining = []
        for row in pending:
            (hits if col in row else remaining).append(row)
        if not hits:
            continue
        pivot_row = _primitive(min(hits, key=len))
        for row in hits:
            if row is not pivot_row:
                row = _eliminate(row, pivot_row, col)
                if row:
                    remaining.append(row)
        pending = remaining
        placed.append(pivot_row)
        pivots.append(col)
    # the rows span the input's row space, so a nonzero input entry in a
    # column outside 0..ncols-1 leaves one in a pending or placed row
    if pending or any(min(row) < 0 or max(row) >= ncols for row in placed):
        raise ValueError(f"column index out of range for {ncols} columns")
    return placed, pivots


def _back_substitute(placed: list[dict[int, int]], pivots: list[int]) -> None:
    """Turn `_reduce`'s echelon rows into reduced rows, in place.

    Clears each pivot column from the rows above it, last pivot first, so a
    pivot row is already clear of the later pivot columns when it is used,
    and is made primitive then; the first row is made primitive last.
    Afterwards row i is primitive and zero in every pivot column but
    pivots[i], and dividing it by that entry gives row i of the reduced row
    echelon form.  That form is unique, so the rows do not depend on which
    row supplied a pivot, up to sign.
    """
    for k in range(len(pivots) - 1, 0, -1):
        col, pivot_row = pivots[k], _primitive(placed[k])
        for i in range(k):
            if col in placed[i]:
                placed[i] = _eliminate(placed[i], pivot_row, col)
    if placed:
        _primitive(placed[0])


def nullspace_basis(rows: Sequence[SparseRow], ncols: int) -> list[list[Fraction]]:
    """Basis of {v : A v = 0}, one vector per free column, in column order.

    A is given as sparse rows: only nonzero entries are read, and one in a
    column outside 0..ncols-1 raises ValueError.  The basis vectors are dense.

    The vector of free column j is the multiple of the one with 1 in column
    j, -R[i][j] in pivot column i of the reduced row echelon form R, and 0
    elsewhere, that has coprime integer entries (as Fractions) and a
    positive first nonzero entry.  Pivot columns with R[i][j] != 0 lie left
    of j, so that entry is the one of the leftmost such pivot, or column j.
    """
    placed, pivots = _reduce(rows, ncols)
    if len(pivots) == ncols:
        return []
    _back_substitute(placed, pivots)
    pivot_set = set(pivots)
    zero = Fraction(0)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        # the rows nonzero in column free, leftmost pivot first; entry
        # -row[free] / row[col] in pivot column col, times the lcm of the row[col]
        hits = [(col, row) for row, col in zip(placed, pivots) if free in row]
        scale = lcm(*(row[col] for col, row in hits))
        vec = [0] * ncols
        vec[free] = scale
        for col, row in hits:
            vec[col] = -row[free] * (scale // row[col])
        g = gcd(*vec)
        if hits and vec[hits[0][0]] < 0:
            g = -g
        basis.append([Fraction(x // g) if x else zero for x in vec])
    return basis


@dataclass(frozen=True)
class PositivityResult:
    """Outcome of the strict-positivity search over a subspace.

    Exactly one of `vector` (a strictly positive element of the span) and
    `certificate` (a nonzero, nonnegative vector orthogonal to the span,
    which proves none exists) is set.
    """

    vector: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None

    @property
    def feasible(self) -> bool:
        return self.vector is not None


def _phase1(
    rows: list[dict[int, int]], rhs: list[int], nvars: int
) -> tuple[list[Fraction] | None, list[int] | None]:
    """Phase 1 of the simplex method for {s >= 0 : rows[j] . s >= rhs[j]}, in integers.

    Columns 0..nvars-1 hold s, column nvars + j the surplus t_j of
    constraint j, and column nvars + len(rows) the right-hand side.  A
    constraint violated at s = 0 (rhs[j] > 0) starts with an artificial
    basic variable, which ranks after every column and is dropped once it
    leaves the basis; any other starts with t_j basic, its row negated so
    that t_j has coefficient +1.  Every tableau row and the objective row
    (the reduced costs of the sum of the artificials) is kept an integer
    row that is a positive multiple of the textbook row, not necessarily
    primitive, so signs and ratios are the textbook ones: pivoting is
    `_eliminate`, and ratios are compared by cross-multiplication.  Bland's
    rule picks the entering and leaving variables, so the method terminates.

    Returns (s, None) with s a feasible point, or (None, z): z >= 0 holds
    the reduced costs of the surplus columns, a positive multiple of dual
    values with z . rhs > 0 and sum_j z_j rows[j] <= 0, which prove that
    there is no such s.
    """
    last = nvars + len(rows)
    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    objective: dict[int, int] = {}
    for j, (row, b) in enumerate(zip(rows, rhs)):
        if b > 0:
            row = {**row, nvars + j: -1, last: b}
            basis.append(last + 1 + j)
            for col, v in row.items():
                objective[col] = objective.get(col, 0) - v
        else:
            row = {i: -v for i, v in row.items()}
            row[nvars + j] = 1
            if b:
                row[last] = -b
            basis.append(nvars + j)
        tableau.append(row)
    objective = {col: v for col, v in objective.items() if v}

    # objective[last] is minus a positive multiple of the sum of the
    # artificials; once it is zero the current point is feasible
    while last in objective:
        entering = min(
            (col for col, v in objective.items() if v < 0 and col != last), default=None
        )
        if entering is None:
            return None, [objective.get(nvars + j, 0) for j in range(len(rows))]
        leaving = None
        for r, row in enumerate(tableau):
            coeff = row.get(entering, 0)
            if coeff > 0:
                if leaving is None:
                    leaving, best_rhs, best_coeff = r, row.get(last, 0), coeff
                    continue
                ratio = row.get(last, 0) * best_coeff
                best = best_rhs * coeff
                if ratio < best or (ratio == best and basis[r] < basis[leaving]):
                    leaving, best_rhs, best_coeff = r, row.get(last, 0), coeff
        if leaving is None:  # pragma: no cover - phase 1 is always bounded
            raise RuntimeError("unbounded phase-1 objective")
        pivot_row = tableau[leaving]
        for r, row in enumerate(tableau):
            if r != leaving and entering in row:
                tableau[r] = _eliminate(row, pivot_row, entering)
        objective = _eliminate(objective, pivot_row, entering)
        basis[leaving] = entering

    s = [Fraction(0)] * nvars
    for row, var in zip(tableau, basis):
        if var < nvars:
            s[var] = Fraction(row.get(last, 0), row[var])
    return s, None


def positive_vector_in_span(
    vectors: Sequence[Sequence[Fraction]], dim: int
) -> PositivityResult:
    """Decide whether span(vectors) meets the open positive orthant.

    `_reduce` and `_back_substitute` turn the vectors into reduced
    primitive integer rows R_i with pivot columns p_i, so the span is
    {sum_i mu_i R_i / R_i[p_i]}, whose coordinate p_i is mu_i.  With
    mu = 1 + s and s >= 0 the pivot coordinates are at least 1, and each
    other coordinate j asks sum_i s_i a_ji >= L - sum_i a_ji, where
    a_ji = L R_i[j] / R_i[p_i] and L = lcm |R_i[p_i]| make the constraints
    integral.  `_phase1` decides them.  A feasible s gives a witness with
    every entry >= 1, returned scaled to coprime integers.  Otherwise its
    dual values z >= 0 give the certificate y: y_j = z_j on the constrained
    coordinates and y_{p_i} = -sum_j z_j R_i[j] / R_i[p_i].  It is
    nonnegative, nonzero and orthogonal to every spanning vector, so no
    positive combination exists.
    Both proofs are checked before they are returned.
    """
    if dim <= 0:
        raise ValueError("dimension must be positive")
    for v in vectors:
        if len(v) != dim:
            raise ValueError("spanning vector has wrong length")
    placed, pivots = _reduce([dict(enumerate(v)) for v in vectors], dim)
    _back_substitute(placed, pivots)
    scale = lcm(*(row[p] for row, p in zip(placed, pivots)))
    pivot_set = set(pivots)
    constrained = [j for j in range(dim) if j not in pivot_set]
    position = {j: c for c, j in enumerate(constrained)}
    rows: list[dict[int, int]] = [{} for _ in constrained]
    for i, (row, p) in enumerate(zip(placed, pivots)):
        factor = scale // row[p]
        for j, v in row.items():
            if j != p:
                rows[position[j]][i] = v * factor
    rhs = [scale - sum(row.values()) for row in rows]
    s, z = _phase1(rows, rhs, len(pivots))

    if s is not None:
        # the witness times scale and the lcm of the denominators of mu
        mu = [1 + v for v in s]
        den = lcm(*(v.denominator for v in mu))
        mu = [v.numerator * (den // v.denominator) for v in mu]
        result = [0] * dim
        for p, value in zip(pivots, mu):
            result[p] = value * scale
        for j, row in zip(constrained, rows):
            result[j] = sum(mu[i] * v for i, v in row.items())
        g = gcd(*result) or 1
        witness = tuple(Fraction(x // g) for x in result)
        check_proof(all(x >= 1 for x in witness), "positive witness has an entry below 1")
        return PositivityResult(vector=witness, certificate=None)

    cert = [0] * dim
    for j, row, zj in zip(constrained, rows, z):
        cert[j] = scale * zj
        for i, v in row.items():
            cert[pivots[i]] -= zj * v
    g = gcd(*cert) or 1
    cert = [Fraction(y // g) for y in cert]
    nonnegative_nonzero = all(y >= 0 for y in cert) and any(y > 0 for y in cert)
    check_proof(nonnegative_nonzero, "certificate must be nonnegative and nonzero")
    for v in vectors:
        residual = sum((y * Fraction(x) for y, x in zip(cert, v)), Fraction(0))
        check_proof(residual == 0, "certificate must be orthogonal to the span")
    return PositivityResult(vector=None, certificate=tuple(cert))


def symmetric_inertia(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric matrix.

    Computed exactly by congruence (repeated Schur complements), which
    preserves inertia by Sylvester's law, over integer rows R that stay
    positive multiples of the rows of the current Schur complement S: a
    pivot row is negated when its diagonal entry is negative, before
    `_eliminate` clears its column.  An all-zero row of S is a zero
    eigenvalue.  When S has a zero diagonal, a nonzero S[i][j] gives row
    i += row j, column i += column j, which makes S[i][i] = 2 S[i][j]; on R,
    row i becomes |R[j][i]| row i + |R[i][j]| row j.
    """
    n = len(matrix)
    for i in range(n):
        if len(matrix[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(i + 1, n):
            if len(matrix[j]) <= i:
                raise ValueError("matrix is not square")
            if matrix[i][j] != matrix[j][i]:
                raise ValueError("matrix is not symmetric")
    rows = _integer_rows({j: v for j, v in enumerate(row) if v} for row in matrix)
    rows = {i: row for i, row in enumerate(rows) if row}
    pos = neg = 0
    while rows:
        piv = next((i for i, row in rows.items() if i in row), None)
        if piv is None:
            piv, row = next(iter(rows.items()))
            j = next(iter(row))
            partner = rows[j]
            a, b = abs(partner[piv]), abs(row[j])
            keys = row.keys() | partner.keys()
            combined = {t: a * row.get(t, 0) + b * partner.get(t, 0) for t in keys}
            rows[piv] = {t: v for t, v in combined.items() if v}
            for row in rows.values():
                if j in row:
                    row[piv] = row.get(piv, 0) + row[j]
                    if not row[piv]:
                        del row[piv]
        pivot_row = rows.pop(piv)
        if pivot_row[piv] > 0:
            pos += 1
        else:
            neg += 1
            pivot_row = {t: -v for t, v in pivot_row.items()}
        rows = {
            i: _eliminate(row, pivot_row, piv) if piv in row else row for i, row in rows.items()
        }
        rows = {i: row for i, row in rows.items() if row}
    return pos, n - pos - neg, neg
