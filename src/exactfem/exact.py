"""Exact rational scalars and exact dense linear algebra.

Scalars are ``fractions.Fraction`` throughout: arbitrary precision, always in
canonical reduced form (positive denominator, gcd 1, zero as 0/1), so every
identity in this package is checked with ``==`` and zero tolerance.

Matrices are plain tuples of row tuples of Fraction.  Determinants use
fraction-free (Bareiss) elimination to bound intermediate growth; solving uses
ordinary rational Gaussian elimination, which is exact as well.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularMatrixError

Matrix = tuple[tuple[Fraction, ...], ...]


def rat(n: int, d: int = 1) -> Fraction:
    """Canonical rational n/d.  Raises ZeroDivisionError for d = 0."""
    return Fraction(n, d)


def rat_str(x: Fraction) -> str:
    """Render as "num/den", omitting "/den" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_parse(s: str) -> Fraction:
    """Inverse of rat_str; accepts "3", "-1/2", "4/8" (normalized on parse)."""
    return Fraction(s.strip())


def matrix(rows) -> Matrix:
    """Normalize nested sequences of ints/Fractions to a rectangular Matrix."""
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise ValueError("ragged rows in matrix")
    return out


def identity_matrix(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_vec(a: Matrix, v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    if a and len(a[0]) != len(v):
        raise ValueError("matrix/vector dimensions do not match")
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


def mat_det(a) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Pivoting picks the first nonzero entry in column order; magnitudes are
    irrelevant in exact arithmetic.
    """
    a = matrix(a)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return Fraction(1)
    m = [list(row) for row in a]
    sign = 1
    prev = Fraction(1)
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * pivot - m[r][col] * m[col][c]) / prev
            m[r][col] = Fraction(0)
        prev = pivot
    return sign * m[n - 1][n - 1]


def mat_solve(a, b) -> Matrix:
    """Exact X with A X = B, by rational Gaussian elimination.

    Raises SingularMatrixError when A is singular; for the matrices built by
    this package that signals a degenerate simplex or a non-unisolvent node
    configuration.
    """
    a = matrix(a)
    b = matrix(b)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("solve requires a square matrix")
    if len(b) != n:
        raise ValueError("right-hand side row count does not match")
    if n == 0:
        return ()
    width = len(b[0])
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col]
            if factor == 0:
                continue
            ratio = factor / pivot
            for c in range(col, n + width):
                aug[r][c] -= ratio * aug[col][c]
    x = [[Fraction(0)] * width for _ in range(n)]
    for row in range(n - 1, -1, -1):
        for j in range(width):
            s = aug[row][n + j]
            for c in range(row + 1, n):
                s -= aug[row][c] * x[c][j]
            x[row][j] = s / aug[row][row]
    return tuple(tuple(r) for r in x)


def mat_rank(a) -> int:
    """Exact rank by row echelon reduction (works on rectangular matrices)."""
    a = matrix(a)
    if not a:
        return 0
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        pivot_row = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, rows):
            if m[r][col] == 0:
                continue
            ratio = m[r][col] / pivot
            for c in range(col, cols):
                m[r][c] -= ratio * m[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank
