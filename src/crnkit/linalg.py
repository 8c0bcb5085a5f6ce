"""Exact linear algebra over the rationals.

Everything here works on plain lists of Fractions: reduced row echelon form,
null-space bases, a phase-1 simplex that decides whether a subspace contains
a strictly positive vector, and congruence-based inertia of symmetric
matrices.  All decisions are exact; infeasible positivity queries come with a
separating certificate that is verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    mat = _copy_matrix(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = next(
            (r for r in range(rank, len(mat)) if mat[r][col] != 0), None
        )
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


def nullspace_basis(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {v : A v = 0}, one vector per free column, in column order."""
    if not rows:
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols)
        ]
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, piv_col in enumerate(pivots):
            vec[piv_col] = -reduced[row_idx][free]
        basis.append(vec)
    return basis


def matvec(rows: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> list[Fraction]:
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in rows]


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
