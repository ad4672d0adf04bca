import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactfem.errors import SingularMatrixError
from exactfem.exact import (
    identity_matrix,
    mat_det,
    mat_mul,
    mat_rank,
    mat_solve,
    rat,
    rat_parse,
    rat_str,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)


def test_rat_reduces_to_canonical_form():
    assert rat(2, 4) == Fraction(1, 2)
    x = rat(0, 5)
    assert (x.numerator, x.denominator) == (0, 1)
    y = rat(3, -6)
    assert y == Fraction(-1, 2) and y.denominator == 2


def test_rat_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


def test_rat_str_roundtrip():
    assert rat_str(rat(1, 2)) == "1/2"
    assert rat_str(rat(-4, 8)) == "-1/2"
    assert rat_str(rat(7)) == "7"
    assert rat_parse("?/!".replace("?", "-3").replace("!", "9")) == Fraction(-1, 3)
    assert rat_parse("5") == 5


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


def test_det_examples():
    assert mat_det([[5]]) == 5
    assert mat_det(identity_matrix(3)) == 1
    assert mat_det([[1, 2], [2, 4]]) == 0


def test_det_row_swap_sign():
    assert mat_det([[0, 1], [1, 0]]) == -1


@given(st.integers(-5, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_det_is_multiplicative(_, data):
    n = data.draw(st.integers(1, 3))
    draw_matrix = lambda: [
        [data.draw(rationals) for _ in range(n)] for _ in range(n)
    ]
    a, b = draw_matrix(), draw_matrix()
    assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def test_solve_identity_returns_rhs():
    b = [[rat(1, 3)], [rat(-2)], [rat(5, 7)]]
    assert mat_solve(identity_matrix(3), b) == tuple(tuple(r) for r in b)


def test_solve_back_substitution_example():
    x = mat_solve([[1, 1], [0, 1]], [[1], [0]])
    assert x == ((Fraction(1),), (Fraction(0),))


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        mat_solve([[1, 2], [2, 4]], [[1], [1]])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_solve_then_multiply_back(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 2))
    a = [[data.draw(rationals) for _ in range(n)] for _ in range(n)]
    b = [[data.draw(rationals) for _ in range(m)] for _ in range(n)]
    if mat_det(a) == 0:
        with pytest.raises(SingularMatrixError):
            mat_solve(a, b)
        return
    x = mat_solve(a, b)
    assert mat_mul(a, x) == tuple(tuple(Fraction(v) for v in row) for row in b)


def test_rank_examples():
    assert mat_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert mat_rank(identity_matrix(3)) == 3
    assert mat_rank([[1, 2], [2, 4]]) == 1


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_full_rank_iff_nonzero_det(data):
    n = data.draw(st.integers(1, 3))
    a = [[data.draw(rationals) for _ in range(n)] for _ in range(n)]
    assert (mat_rank(a) == n) == (mat_det(a) != 0)


def test_non_square_det_rejected():
    with pytest.raises(ValueError):
        mat_det([[1, 2, 3], [4, 5, 6]])


# Independent references: the determinant, rank and solve share one
# elimination, so "full rank iff det != 0" alone would only check it against
# itself.


def leibniz_det(a):
    """Sum over permutations of the signed products; no elimination involved."""
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= a[row][col]
        total += term
    return total


def minor_rank(a):
    """Size of the largest square submatrix with a nonzero Leibniz determinant."""
    rows, cols = len(a), len(a[0]) if a else 0
    for r in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), r):
            for cs in combinations(range(cols), r):
                if leibniz_det([[a[i][j] for j in cs] for i in rs]) != 0:
                    return r
    return 0


def random_matrix(rng, rows, cols):
    """Small rationals with many zeros; often one row is a combination of others."""
    a = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows >= 2 and rng.random() < 0.4:
        i, j, l = (rng.randrange(rows) for _ in range(3))
        s, t = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))
        a[i] = [s * x + t * y for x, y in zip(a[j], a[l])]
    return a


def test_det_matches_leibniz_sum():
    rng = random.Random(41)
    singular = regular = 0
    for _ in range(300):
        n = rng.randint(0, 4)
        a = random_matrix(rng, n, n)
        want = leibniz_det(a)
        assert mat_det(a) == want
        singular += want == 0
        regular += want != 0
    assert singular >= 30 and regular >= 30


def test_rank_matches_largest_nonzero_minor():
    rng = random.Random(43)
    ranks = set()
    for _ in range(300):
        rows, cols = rng.randint(0, 4), rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        want = minor_rank(a)
        assert mat_rank(a) == want
        ranks.add((want == min(rows, cols), rows == cols))
    # deficient and full rank, square and rectangular all occur
    assert ranks == {(False, False), (False, True), (True, False), (True, True)}
