"""Exact linear algebra over the rationals.

Reduced row echelon forms and null-space bases come from one fraction-free
Gauss-Jordan elimination over sparse integer rows: each row is scaled to
coprime integers, rows are combined by integer cross-multiplication and
divided by the gcd of their entries, and only the results are turned back
into Fractions.  The phase-1 simplex that decides whether a subspace
contains a strictly positive vector, and the congruence-based inertia of
symmetric matrices, work on lists of Fractions.  All decisions are exact;
infeasible positivity queries come with a separating certificate that is
verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Matrix = list[list[Fraction]]


class ProofCheckError(AssertionError):
    """An exact answer failed the check of the proof that comes with it.

    Raised explicitly rather than through `assert`, so these checks also run
    under `python -O`.
    """


def check_proof(condition: bool, message: str) -> None:
    if not condition:
        raise ProofCheckError(message)


def _copy_matrix(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {j: v // g for j, v in row.items()}


def _integer_row(row: Sequence[Fraction]) -> dict[int, int]:
    """Nonzero entries of a row of ints and Fractions scaled to coprime integers."""
    entries = {j: v for j, v in enumerate(row) if v}
    if not entries:
        return entries
    den = lcm(*(v.denominator for v in entries.values()))
    return _primitive(
        {j: v.numerator * (den // v.denominator) for j, v in entries.items()}
    )


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """Clear column `col` of `row` against `pivot_row`, fraction-free.

    Computes (p/g) row - (a/g) pivot_row with p, a the two entries in `col`
    and g = gcd(p, a), then divides out the content of the result.
    """
    p = pivot_row[col]
    a = row[col]
    g = gcd(p, a)
    p //= g
    a //= g
    out = {j: v * p for j, v in row.items()} if p != 1 else dict(row)
    for j, v in pivot_row.items():
        value = out.get(j, 0) - a * v
        if value:
            out[j] = value
        else:
            del out[j]
    return _primitive(out) if out else out


def _reduce(
    rows: Sequence[Sequence[Fraction]], ncols: int
) -> tuple[list[dict[int, int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over sparse integer rows.

    Returns one primitive integer row per pivot and the pivot columns, in
    column order.  Row i is nonzero in column pivots[i] and zero in every
    other pivot column, so dividing it by that entry gives row i of the
    reduced row echelon form.  The reduced form is unique, so which row
    supplies a pivot is free: the sparsest one, which keeps fill-in low.
    """
    pending = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
        entries = _integer_row(row)
        if entries:
            pending.append(entries)
    placed: list[dict[int, int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        if not pending:
            break
        index = min(
            (i for i, row in enumerate(pending) if col in row),
            key=lambda i: len(pending[i]),
            default=None,
        )
        if index is None:
            continue
        pivot_row = pending.pop(index)
        remaining = []
        for row in pending:
            if col in row:
                row = _eliminate(row, pivot_row, col)
            if row:
                remaining.append(row)
        pending = remaining
        for i, row in enumerate(placed):
            if col in row:
                placed[i] = _eliminate(row, pivot_row, col)
        placed.append(pivot_row)
        pivots.append(col)
    return placed, pivots


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    The reduced matrix has as many rows as the input, zero rows last.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    placed, pivots = _reduce(rows, ncols)
    zero = Fraction(0)
    reduced = [
        [Fraction(row[j], row[col]) if j in row else zero for j in range(ncols)]
        for row, col in zip(placed, pivots)
    ]
    reduced.extend([zero] * ncols for _ in range(len(rows) - len(placed)))
    return reduced, pivots


def nullspace_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {v : A v = 0}, one vector per free column, in column order.

    The vector of free column j has 1 in column j, -R[i][j] in pivot column
    i of the reduced row echelon form R, and 0 elsewhere.
    """
    placed, pivots = _reduce(rows, ncols)
    zero = Fraction(0)
    one = Fraction(1)
    pivot_set = set(pivots)
    basis: dict[int, list[Fraction]] = {}
    for free in range(ncols):
        if free not in pivot_set:
            vec = [zero] * ncols
            vec[free] = one
            basis[free] = vec
    for row, col in zip(placed, pivots):
        p = row[col]
        for j, v in row.items():
            if j != col:
                basis[j][col] = Fraction(-v, p)
    return list(basis.values())


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


def positive_vector_in_span(
    vectors: Sequence[Sequence[Fraction]], dim: int
) -> PositivityResult:
    """Decide whether span(vectors) meets the open positive orthant.

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


def symmetric_inertia(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """(positive, zero, negative) eigenvalue counts of a symmetric matrix.

    Computed exactly by congruence (repeated Schur complements), which
    preserves inertia by Sylvester's law.
    """
    n = len(matrix)
    a = _copy_matrix(matrix)
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
