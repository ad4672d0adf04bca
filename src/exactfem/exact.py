"""Exact rational scalars and exact dense linear algebra.

Scalars are ``fractions.Fraction`` throughout: arbitrary precision, always in
canonical reduced form (positive denominator, gcd 1, zero as 0/1), so every
identity in this package is checked with ``==`` and zero tolerance.

Matrices are plain tuples of row tuples of Fraction.  One rational Gaussian
elimination (_eliminate) lies behind the determinant, the rank and the solve;
over Fractions every step is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

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


def rationals(values, what: str) -> tuple[Fraction, ...]:
    """Exact Fractions from ints, Fractions or rational strings.

    A float or bool raises ValueError naming what the values are, instead of
    becoming a binary fraction (0.1 is not 1/10) or the integer 0 or 1.
    """
    values = tuple(values)
    if any(isinstance(x, (float, bool)) for x in values):
        raise ValueError(f"{what} must be exact (int, Fraction or rational string)")
    return tuple(map(Fraction, values))


def matrix(rows) -> Matrix:
    """Normalize nested sequences of ints/Fractions/rational strings to a rectangular Matrix."""
    out = tuple(rationals(row, "matrix entries") for row in rows)
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


def _eliminate(m: list[list[Fraction]], ncols: int) -> tuple[list[int], int]:
    """Row-reduce m in place to row echelon form over its first ncols columns.

    Each pivot is the first nonzero entry at or below the current row; the
    rows beneath it are cleared over their whole width, so columns past ncols
    (a right-hand side) are carried along.  Returns the pivot columns, one per
    pivot row in order, and the sign of the row permutation applied.
    """
    pivots: list[int] = []
    sign = 1
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        pivot_row = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != row:
            m[row], m[pivot_row] = m[pivot_row], m[row]
            sign = -sign
        pivot = m[row]
        for r in range(row + 1, len(m)):
            factor = m[r][col]
            if factor == 0:
                continue
            ratio = factor / pivot[col]
            target = m[r]
            for c in range(col, len(pivot)):
                target[c] -= ratio * pivot[c]
        pivots.append(col)
    return pivots, sign


def mat_det(a) -> Fraction:
    """Exact determinant: the signed product of the pivots of _eliminate.

    Pivoting picks the first nonzero entry in column order; magnitudes are
    irrelevant in exact arithmetic.
    """
    a = matrix(a)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    m = [list(row) for row in a]
    pivots, sign = _eliminate(m, n)
    if len(pivots) < n:
        return Fraction(0)
    return prod((m[i][i] for i in range(n)), start=Fraction(sign))


def mat_solve(a, b) -> Matrix:
    """Exact X with A X = B: _eliminate on [A | B], then back substitution.

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
    pivots, _ = _eliminate(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    x = [[Fraction(0)] * width for _ in range(n)]
    for row in range(n - 1, -1, -1):
        for j in range(width):
            s = aug[row][n + j]
            for c in range(row + 1, n):
                s -= aug[row][c] * x[c][j]
            x[row][j] = s / aug[row][row]
    return tuple(tuple(r) for r in x)


def mat_rank(a) -> int:
    """Exact rank: the number of pivots of _eliminate (rectangular matrices too)."""
    a = matrix(a)
    if not a:
        return 0
    return len(_eliminate([list(row) for row in a], len(a[0]))[0])
